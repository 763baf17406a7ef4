"""Seeded inputs, task lists and correctness checks of the workloads.

Input generation uses only ``math`` and numpy, with its own copy of the
Gaussian closed forms and of the grid-sizing rule, so the inputs a seed
produces do not move when the package changes.  The runners receive the
imported package and a ``Pass`` recorder and call the public API only.

Every workload draws its inputs per pass from ``(seed, workload, pass)``.
Where the cost of a task depends strongly on one input (grid size, filter
width), the draw is stratified over that input, so that each pass carries
the same mix of cheap and costly tasks and pass times stay comparable
across seeds.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import zlib

import numpy as np

WORKLOADS = ("three-route", "ktp-quadrature", "design-scan", "gridded-modal")

KTP = (6.0, 0.70, math.pi / 4, 0.97)

# Nominal seconds per pass, worker start included, on a 2-CPU x86-64
# machine with one BLAS thread; a run makes ``seconds / PASS_SECONDS``
# passes (at least three): 22, 7, 19 and 5 in 20 seconds.
PASS_SECONDS = {"three-route": 0.9, "ktp-quadrature": 2.9,
                "design-scan": 1.05, "gridded-modal": 4.0}

# Tolerances, as the package's tests state them.
QUAD_REL = 1e-6       # quadrature vs closed form (test_analytic, acceptance)
MODAL_REL = 1e-4      # modal vs closed form (acceptance three-route)
HOM_ABS = 1e-6        # parametric dip vs closed form (test_analytic, test_cli)
GRID_UNFILTERED = 1e-10   # modal vs quadrature purity, same grid
GRID_FILTERED = 1e-9      # filtered purity and success, same grid
GRID_DIP = 1e-8       # hom_dip_schmidt vs hom_dip (test_schmidt)
CLOSED_ABS = 1e-9     # CLI closed-form columns vs recomputed closed forms
SOLVE_TOL = 1e-4      # solve-filter purity tolerance (CLI default --tol)


# --- closed forms and grid sizing, frozen for input generation and checks --

def coefficients(s1, s2, t1, t2):
    """Intensity coefficients (a, b, c) of a double-Gaussian amplitude."""
    v1, v2 = 1.0 / s1**2, 1.0 / s2**2
    a = math.sin(t1) ** 2 * v1 + math.sin(t2) ** 2 * v2
    b = math.sin(t1) * math.cos(t1) * v1 + math.sin(t2) * math.cos(t2) * v2
    c = math.cos(t1) ** 2 * v1 + math.cos(t2) ** 2 * v2
    return a, b, c


def schmidt_k(jsa):
    a, b, c = coefficients(*jsa)
    return math.sqrt(a * c / (a * c - b * b))


def closed_success(jsa, center, width):
    a, b, c = coefficients(*jsa)
    w = a * c - b * b
    denom = a + 2.0 * width**2 * w
    return math.sqrt(2.0 * width**2 * w / denom) * math.exp(-center**2 * w / denom)


def closed_purity(jsa, width):
    a, b, c = coefficients(*jsa)
    return math.sqrt(1.0 - b * b / (a * (c + 0.5 / width**2)))


def closed_dip(jsa, purity, delays):
    """Balanced-splitter coincidence curve for equal Gaussian heralds."""
    a, _, _ = coefficients(*jsa)
    tau = np.asarray(delays, dtype=float)
    return 0.5 * (1.0 - purity * np.exp(-tau * tau / (2.0 * a)))


def _widths(jsa):
    """Marginal and conditional intensity widths, signal then idler."""
    a, b, c = coefficients(*jsa)
    det = a * c - b * b
    return (math.sqrt(c / (2.0 * det)), math.sqrt(a / (2.0 * det)),
            1.0 / math.sqrt(2.0 * a), 1.0 / math.sqrt(2.0 * c))


def grid_size(jsa, herald=None):
    """(half_extent, n_points) by the package's grid-sizing rule at seed time."""
    s_sig, s_idl, w_sig, w_idl = _widths(jsa)
    a, b, c = coefficients(*jsa)
    lam_max = 0.5 * (a + c) + math.hypot(0.5 * (a - c), b)
    limit = 6.5 * max(s_sig, s_idl)
    feature = min(w_sig, w_idl, 1.0 / math.sqrt(lam_max))
    if herald is not None:
        center, width = herald
        p_jsa, p_fil = 1.0 / s_idl**2, 1.0 / width**2
        shift = center * p_fil / (p_jsa + p_fil)
        limit = max(limit, abs(shift) + 9.0 / math.sqrt(p_jsa + p_fil))
        limit = max(limit, abs(b / a) * abs(shift) + 9.0 * w_sig)
        feature = min(feature, width)
    smax = max(jsa[0], jsa[1])
    half_extent = max(4.0, limit / smax)
    n = int(math.ceil(2.0 * half_extent * smax * 4.2 / feature)) + 1
    return half_extent, int(min(max(n, 256), 4096))


# --- seeded generation ------------------------------------------------------

def pass_rng(seed, workload, index):
    key = [int(seed), zlib.crc32(workload.encode()), int(index)]
    return np.random.default_rng(np.random.SeedSequence(key))


def draw_source(rng, k_max):
    """Double-Gaussian ridge parameters from the acceptance distribution."""
    while True:
        s1 = 10.0 ** rng.uniform(math.log10(0.2), 1.0)
        s2 = 10.0 ** rng.uniform(math.log10(0.2), 1.0)
        t1 = rng.uniform(0.1, math.pi - 0.1)
        offset = rng.uniform(0.1, math.pi - 0.1)
        if rng.random() < 0.5:
            offset = -offset
        jsa = (float(s1), float(s2), float(t1), float(t1 - offset))
        if schmidt_k(jsa) <= k_max:
            return jsa


def draw_case(rng):
    """One acceptance draw: K <= 8, widths on [0.05, 20], grid <= 1100."""
    while True:
        jsa = draw_source(rng, 8.0)
        width = float(10.0 ** rng.uniform(math.log10(0.05), math.log10(20.0)))
        center = float(rng.uniform(-3.0, 3.0))
        if closed_success(jsa, center, width) < 1e-8:
            continue
        half_extent, n_points = grid_size(jsa, (center, width))
        if n_points <= 1100:
            return {"jsa": jsa, "filter": (center, width),
                    "half_extent": half_extent, "n_points": n_points}


# Bands of the grid a three-route draw needs: (fewest points, most points,
# draws per pass).  A draw runs on a grid of its band's most points.
THREE_ROUTE_BANDS = ((449, 640, 1), (321, 448, 1), (257, 320, 3),
                     (256, 256, 2))
BAND_POOL = 32
TINY = float(np.finfo(float).tiny)


def radical_inverse(index):
    """Van der Corput point of ``index`` in base 2: 0.5, 0.25, 0.75, ..."""
    point, scale = 0.0, 0.5
    while index:
        index, bit = divmod(index, 2)
        point += bit * scale
        scale *= 0.5
    return point


def subnormal_share(case, stride=8):
    """Share of grid samples ``decompose`` sees as subnormal numbers.

    LAPACK's SVD slows down on subnormal input: a grid whose tails fall
    below the smallest normal double decomposes up to twice as slowly as
    one of the same size without.  Counted on every ``stride``-th sample
    of the normalized amplitude times the grid step, as ``decompose``
    scales it.
    """
    s1, s2, t1, t2 = case["jsa"]
    limit = case["half_extent"] * max(s1, s2)
    grid = np.linspace(-limit, limit, case["n_points"])
    log_scale = (0.5 * math.log(abs(math.sin(t1 - t2)) / (math.pi * s1 * s2))
                 + math.log(grid[1] - grid[0]))
    ws, wi = grid[::stride, None], grid[None, ::stride]
    u1 = (ws * math.sin(t1) + wi * math.cos(t1)) / s1
    u2 = (ws * math.sin(t2) + wi * math.cos(t2)) / s2
    log_amp = log_scale - 0.5 * (u1 * u1 + u2 * u2)
    return float(np.mean((log_amp < math.log(TINY))
                         & (log_amp > math.log(5e-324))))


def gen_three_route(rng, index=0):
    """Acceptance draws banded by the grid they need, largest band first.

    Decomposition cost is set by the grid size and by the share of
    subnormal samples, so each draw runs on the largest grid of its band
    (never coarser than recommended) and, within a band, draws are taken
    at stratified quantiles of the subnormal share of a pool of
    ``BAND_POOL`` band draws: the ``j``-th of ``count`` at quantile
    ``(j + q) / count``, where ``q`` is the van der Corput point of the
    pass.  The passes of a run so cover the share evenly whatever the seed.
    The three draws that need 257-320 points hold the median task and the
    largest band holds the slowest tasks; its draw runs first and pays for
    the process's first calls.  Draws that need more than 640 points are
    left out: an SVD of a larger grid outgrows the caches, and its time then
    follows what other tenants of the host do.
    """
    pools = {band: [] for band in THREE_ROUTE_BANDS}
    while any(len(pool) < BAND_POOL for pool in pools.values()):
        case = draw_case(rng)
        for band, pool in pools.items():
            if band[0] <= case["n_points"] <= band[1]:
                if len(pool) < BAND_POOL:
                    case["n_points"] = band[1]
                    pool.append(case)
                break
    q = radical_inverse(index + 1)
    cases = []
    for band, pool in pools.items():
        pool.sort(key=subnormal_share)
        cases += [pool[int((j + q) / band[2] * BAND_POOL)]
                  for j in range(band[2])]
    return {"cases": cases}


def gen_ktp(rng, index=0, rungs=7, lo=0.05, hi=20.0):
    """A ladder of herald filters on the KTP source, one per log stratum.

    Widths sit at a fixed place in their strata, set by the van der Corput
    point of the pass: node counts, which set the cost, then step the same
    way in every run, and the seed draws the filter centers.  Rungs run from
    the widest down, so the process's first calls and most new quadrature
    node sets land on the costly rungs in every pass and not on the cheap
    ones around the median task.  The report and the dip use one filter of
    width 2, whose dip costs about three times the fifth rung and half the
    second, so the median task is always the fifth rung.
    """
    q = radical_inverse(index + 1)
    span = math.log(hi / lo)
    ladder = []
    for i in reversed(range(rungs)):
        width = lo * math.exp(span * (i + 0.4 + 0.2 * q) / rungs)
        center = rng.uniform(-0.5, 0.5) * min(width, 1.0)
        ladder.append((float(center), float(width)))
    a, _, _ = coefficients(*KTP)
    return {"jsa": KTP, "ladder": ladder,
            "filter": (0.0, 2.0),
            "tau_max": 4.0 * math.sqrt(2.0 * a), "tau_points": 201}


def _fmt(value):
    return repr(float(value))


def gen_design(rng, index=0):
    """Five CLI invocations on low-K parametric sources (``index`` unused)."""
    def jsa_config():
        s1, s2, t1, t2 = draw_source(rng, 3.0)
        return {"sigma1": s1, "sigma2": s2, "theta1": t1, "theta2": t2}

    def widths():
        lo = 10.0 ** rng.uniform(-2.2, -1.8)
        hi = 10.0 ** rng.uniform(0.8, 1.2)
        return f"{_fmt(lo)}:{_fmt(hi)}:101"

    theta1 = rng.uniform(0.6, 1.0)
    aspect = ["sweep", "aspect", "--ratios",
              f"{_fmt(rng.uniform(1.0, 2.0))}:{_fmt(rng.uniform(6.0, 8.0))}:101",
              "--widths", widths(), "--theta1", _fmt(theta1),
              "--theta2", _fmt(theta1 - math.pi / 2)]
    orientation = ["sweep", "orientation", "--format", "json", "--thetas",
                   f"{_fmt(rng.uniform(0.0, 0.1))}:{_fmt(rng.uniform(1.4, math.pi / 2))}:101",
                   "--widths", widths(), "--ratio", _fmt(rng.uniform(3.0, 6.0))]
    tradeoff_jsa = jsa_config()
    tradeoff = ["sweep", "tradeoff", "--widths", widths()]
    solve_jsa = jsa_config()
    target = rng.uniform(0.85, 0.98)
    solve = ["solve-filter", "--format", "json", "--target-purity", _fmt(target)]
    # The per-delay loop's cost follows the node counts, which depend on the
    # source's shape and not its scale, so only the scale is drawn here.
    scale = 10.0 ** rng.uniform(-0.5, 0.5)
    hom_jsa = {"sigma1": scale, "sigma2": 5.0 * scale,
               "theta1": math.pi / 4 + rng.uniform(-0.02, 0.02),
               "theta2": -math.pi / 4 + rng.uniform(-0.02, 0.02)}
    s_idl = _widths(tuple(hom_jsa.values()))[1]
    hom = ["hom", "--filter-width", _fmt(s_idl * 10.0 ** rng.uniform(-0.3, -0.2))]
    return {"jobs": [
        {"kind": "aspect", "argv": aspect, "jsa": None},
        {"kind": "orientation", "argv": orientation, "jsa": None},
        {"kind": "tradeoff", "argv": tradeoff, "jsa": tradeoff_jsa},
        {"kind": "solve", "argv": solve, "jsa": solve_jsa},
        {"kind": "hom", "argv": hom, "jsa": hom_jsa},
    ]}


def gen_gridded(rng, index=0, count=3):
    """``count`` complex gridded sources on grids of 256 to 512 points.

    CSV parsing costs grow as n**2; the ``j``-th source has
    ``256 + 256 * (j + 1/2) / count`` points (298, 384 and 469), and the
    seed draws the sources.  Every pass of a run reads the same sources
    (``index`` is unused, see ``SHARED_INPUTS``): a task takes about a
    second, so a run has few of them, and repeating each source makes the
    median task the median of one source's repeats and not an edge between
    two single samples.
    """
    sources = []
    for n in (256 + int(256 * (j + 0.5) / count) for j in range(count)):
        while True:
            jsa = draw_source(rng, 8.0)
            half_extent, n_needed = grid_size(jsa)
            if n_needed <= n:
                break
        s_sig, s_idl, _, _ = _widths(jsa)
        phase = (0.3 * rng.uniform(-1, 1) / s_sig**2,
                 0.3 * rng.uniform(-1, 1) / s_idl**2,
                 0.3 * rng.uniform(-1, 1) / (s_sig * s_idl),
                 0.3 * rng.uniform(-1, 1) / s_sig)
        herald = (float(0.3 * rng.uniform(-1, 1) * s_idl),
                  float(s_idl * 10.0 ** rng.uniform(-0.5, 0.3)))
        step = 2.0 * half_extent * max(jsa[0], jsa[1]) / (n - 1)
        a, _, _ = coefficients(*jsa)
        tau_max = min(0.9 * (math.pi / 3.0) / step, 4.0 * math.sqrt(2.0 * a))
        sources.append({"jsa": jsa, "n": n, "half_extent": half_extent,
                        "phase": [float(p) for p in phase], "filter": herald,
                        "tau_max": tau_max, "tau_points": 61})
    return {"sources": sources}


# Workloads whose passes all read the inputs of pass 0, so that their
# files are written once per run.
SHARED_INPUTS = ("gridded-modal",)
GENERATORS = {"three-route": gen_three_route, "ktp-quadrature": gen_ktp,
              "design-scan": gen_design, "gridded-modal": gen_gridded}


def generate(workload, seed, index):
    """The JSON-ready inputs of one pass."""
    if workload in SHARED_INPUTS:
        index = 0
    spec = GENERATORS[workload](pass_rng(seed, workload, index), index)
    return json.loads(json.dumps(spec))


def digest(spec):
    """sha256 of a pass's inputs in canonical JSON."""
    text = json.dumps(spec, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def gridded_samples(source):
    """(grid, complex amplitude) of one gridded-modal source, unnormalized."""
    s1, s2, t1, t2 = source["jsa"]
    limit = source["half_extent"] * max(s1, s2)
    grid = np.linspace(-limit, limit, source["n"])
    ws, wi = grid[:, None], grid[None, :]
    u1 = (ws * math.sin(t1) + wi * math.cos(t1)) / s1
    u2 = (ws * math.sin(t2) + wi * math.cos(t2)) / s2
    c2s, c2i, cx, c1s = source["phase"]
    phase = c2s * ws**2 + c2i * wi**2 + cx * ws * wi + c1s * ws
    return grid, np.exp(-0.5 * (u1 * u1 + u2 * u2) + 1j * phase)


def prepare(workload, spec, directory):
    """Write the files a pass reads: JSA CSVs and CLI configs.  Untimed."""
    if workload == "gridded-modal":
        for i, source in enumerate(spec["sources"]):
            grid, amps = gridded_samples(source)
            n = grid.size
            # Grid values are formatted once each and amplitudes in one go.
            labels = ["%.17g," % value for value in grid]
            values = (("%.17g,%.17g\n" * (n * n))
                      % tuple(np.column_stack([amps.real.ravel(),
                                               amps.imag.ravel()]).ravel()))
            rows = values.splitlines(keepends=True)
            path = os.path.join(directory, f"jsa-{i}.csv")
            with open(path, "w", encoding="utf-8") as handle:
                handle.write("omega_signal,omega_idler,re,im\n")
                handle.write("".join(
                    signal + idler + rows[k * n + m]
                    for k, signal in enumerate(labels)
                    for m, idler in enumerate(labels)))
            source["csv_path"] = path
    elif workload == "design-scan":
        for i, job in enumerate(spec["jobs"]):
            job["output"] = os.path.join(directory, f"out-{i}-{job['kind']}")
            if job["jsa"] is not None:
                job["config"] = os.path.join(directory, f"config-{i}.json")
                with open(job["config"], "w", encoding="utf-8") as handle:
                    json.dump({"jsa": job["jsa"]}, handle)
    return spec


# --- pass runners -----------------------------------------------------------

def run_three_route(hp, spec, rec):
    """One task per draw: closed forms, quadrature, discretize, SVD, modal.

    Before the first task, untimed and untraced, the quadrature runs once
    on every draw of the pass.  That builds the node sets the pass needs;
    their cost depends on the draw and is ktp-quadrature's to measure, and
    here it would land on a random third of the tasks.
    """
    with rec.untraced():
        for case in spec["cases"]:
            jsa = hp.DoubleGaussianJsa(*case["jsa"])
            filt = hp.GaussianFilter(*case["filter"])
            try:
                hp.herald_success(jsa, filt)
                hp.filtered_purity(jsa, filt)
            except Exception:  # noqa: BLE001  (the task reports it)
                pass
    for case in spec["cases"]:
        jsa = hp.DoubleGaussianJsa(*case["jsa"])
        filt = hp.GaussianFilter(*case["filter"])

        def task():
            success_cf = hp.closed_form_success(jsa, filt)
            purity_cf = hp.closed_form_purity(jsa, filt)
            success_q = hp.herald_success(jsa, filt)
            purity_q = hp.filtered_purity(jsa, filt)
            grid = hp.discretize(jsa, half_extent=case["half_extent"],
                                 n_points=case["n_points"])
            modes = hp.decompose(grid)
            overlap = hp.overlap_matrix(modes, filt)
            purity_m, success_m = hp.schmidt_quantities(modes, overlap)
            return (success_cf, purity_cf, success_q, purity_q,
                    success_m, purity_m)

        out = rec.task("three_route", task)
        if out is None:
            continue
        success_cf, purity_cf, success_q, purity_q, success_m, purity_m = out
        dev_q = max(abs(success_q - success_cf) / success_cf,
                    abs(purity_q - purity_cf) / purity_cf)
        dev_m = max(abs(success_m - success_cf) / success_cf,
                    abs(purity_m - purity_cf) / purity_cf)
        rec.check(dev_q, QUAD_REL, "quadrature vs closed form")
        rec.check(dev_m, MODAL_REL, "modal vs closed form")


def run_ktp(hp, spec, rec):
    """One task per rung (two-filter, then single-filter quadrature), the
    report and the HOM dip: an odd count per pass, so the median task is a
    rung in the middle of the ladder and not the edge between two rungs."""
    jsa_t = tuple(spec["jsa"])
    jsa = hp.DoubleGaussianJsa(*jsa_t)
    for center, width in spec["ladder"]:
        filt = hp.GaussianFilter(center, width)
        out = rec.task("rung", lambda: (hp.two_filter_quantities(jsa, filt, filt),
                                        hp.filtered_purity(jsa, filt)))
        if out is not None:
            pair, purity = out
            rec.check(max(0.0, pair[1] / closed_success(jsa_t, center, width)
                          - 1.0), QUAD_REL,
                      "two-filter success above single-filter success",
                      route=False)
            ref = closed_purity(jsa_t, width)
            rec.check(abs(purity - ref) / ref, QUAD_REL,
                      "quadrature purity vs closed form")
    center, width = spec["filter"]
    filt = hp.GaussianFilter(center, width)
    report = rec.task("heralding_report", hp.heralding_report, jsa, filt)
    if report is not None:
        rec.check(max(abs(report.success / closed_success(jsa_t, center, width) - 1.0),
                      abs(report.purity_filtered / closed_purity(jsa_t, width) - 1.0),
                      abs(report.schmidt_number / schmidt_k(jsa_t) - 1.0)),
                  QUAD_REL, "heralding report vs closed forms")
    delays = np.linspace(-spec["tau_max"], spec["tau_max"], spec["tau_points"])
    curve = rec.task("hom_dip", hp.hom_dip, jsa, filt, filt, delays)
    if curve is not None:
        ref = closed_dip(jsa_t, closed_purity(jsa_t, width), delays)
        rec.check(float(np.abs(curve.coincidences - ref).max()), HOM_ABS,
                  "quadrature dip vs closed form")


def _read_table(path):
    """(meta, header, rows) of a CLI CSV output."""
    meta, lines = {}, []
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            if line.startswith("# "):
                key, _, value = line[2:].strip().partition(" = ")
                meta[key] = value
            elif line.strip():
                lines.append(line.strip().split(","))
    return meta, lines[0], np.array(lines[1:], dtype=float)


def _grid_dev(axis1, axis2, success, purity, make_jsa):
    """Worst distance of a sweep grid from the frozen closed forms."""
    worst = 0.0
    for i, v1 in enumerate(axis1):
        jsa = make_jsa(v1)
        for j, width in enumerate(axis2):
            worst = max(worst,
                        abs(success[i][j] - closed_success(jsa, 0.0, width)),
                        abs(purity[i][j] - closed_purity(jsa, width)))
    return worst


def _check_design(job, rec):
    """Compare a CLI output's closed-form columns with the frozen forms."""
    kind, path = job["kind"], job["output"]
    argv = job["argv"]
    if kind == "aspect":
        meta, _, table = _read_table(path)
        t1, t2 = float(meta["theta1"]), float(meta["theta2"])
        axis1 = np.unique(table[:, 0])
        axis2 = table[: table.shape[0] // axis1.size, 1]
        shape = (axis1.size, axis2.size)
        return _grid_dev(axis1, axis2, table[:, 2].reshape(shape),
                         table[:, 3].reshape(shape),
                         lambda ratio: (1.0, ratio, t1, t2))
    if kind == "orientation":
        with open(path, encoding="utf-8") as handle:
            payload = json.load(handle)
        ratio = float(payload["meta"]["ratio"])
        axes = payload["data"]["axes"]
        return _grid_dev(axes["theta1"], axes["filter_width"],
                         payload["data"]["success"], payload["data"]["purity"],
                         lambda t: (1.0, ratio, t, t - math.pi / 2))
    jsa = tuple(job["jsa"][key] for key in ("sigma1", "sigma2", "theta1", "theta2"))
    if kind == "tradeoff":
        _, _, table = _read_table(path)
        return max(max(abs(s - closed_success(jsa, 0.0, w)),
                       abs(p - closed_purity(jsa, w)))
                   for w, s, p, _ in table)
    if kind == "solve":
        with open(path, encoding="utf-8") as handle:
            out = json.load(handle)
        width, purity = float(out["sigma_f"]), float(out["purity"])
        target = float(argv[argv.index("--target-purity") + 1])
        rec.check(abs(purity - target) if out["method"] != "bracket_end" else 0.0,
                  SOLVE_TOL, "solved purity misses its target", route=False)
        return max(abs(purity - closed_purity(jsa, width)),
                   abs(float(out["success"]) - closed_success(jsa, 0.0, width)))
    _, header, table = _read_table(path)
    width = float(argv[argv.index("--filter-width") + 1])
    if header != ["delay_ps", "coincidence", "closed_form"]:
        return math.inf
    ref = closed_dip(jsa, closed_purity(jsa, width), table[:, 0])
    rec.check(float(np.abs(table[:, 1] - table[:, 2]).max()), HOM_ABS,
              "quadrature dip vs closed_form column")
    return float(np.abs(table[:, 2] - ref).max())


def run_design(hp, spec, rec):
    """One task per in-process ``cli.main`` run, writing to a file."""
    for job in spec["jobs"]:
        argv = list(job["argv"])
        if "config" in job:
            argv += ["--config", job["config"]]
        argv += ["--output", job["output"], "--no-timestamp"]
        code = rec.task(f"cli_{job['kind']}", hp.cli.main, argv)
        if code is None:
            continue
        rec.check(0.0 if code == 0 else math.inf, 0.0,
                  f"cli exit code {code}", route=False)
        if code != 0:
            continue
        with open(job["output"], "rb") as handle:
            body = handle.read()
        rec.output(job["kind"], body)
        rec.check(_check_design(job, rec), CLOSED_ABS,
                  f"{job['kind']} closed-form columns")


def run_gridded(hp, spec, rec):
    """One task per CSV source: load, report, SVD, modal, solve, two dips."""
    for source in spec["sources"]:
        filt = hp.GaussianFilter(*source["filter"])
        delays = np.linspace(-source["tau_max"], source["tau_max"],
                             source["tau_points"])

        def task():
            grid = hp.cli.load_jsa_csv(source["csv_path"])
            report = hp.heralding_report(grid, filt)
            modes = hp.decompose(grid)
            overlap = hp.overlap_matrix(modes, filt)
            modal = hp.schmidt_quantities(modes, overlap)
            solution = hp.solve_filter_for_target(
                grid, target_purity=solve_target(report), center=filt.center)
            dip = hp.hom_dip(grid, filt, filt, delays)
            dip_m = hp.hom_dip_schmidt(modes, overlap, overlap, delays)
            return grid, report, modes, modal, solution, dip, dip_m

        out = rec.task("gridded_source", task)
        if out is None:
            continue
        grid, report, modes, (purity, success), solution, dip, dip_m = out
        _, samples = gridded_samples(source)
        expected = samples / math.sqrt(
            float(np.sum(np.abs(samples) ** 2)) * grid.cell_area)
        rec.check(float(np.abs(grid.amplitudes - expected).max()), 1e-10,
                  "loaded samples differ from the written ones", route=False)
        rec.check(abs(modes.purity() - report.purity_unfiltered),
                  GRID_UNFILTERED, "modal vs quadrature unfiltered purity")
        rec.check(max(abs(purity - report.purity_filtered),
                      abs(success - report.success)),
                  GRID_FILTERED, "modal vs quadrature filtered quantities")
        miss = 0.0 if solution.method == "bracket_end" else \
            abs(solution.purity - solve_target(report))
        rec.check(miss, SOLVE_TOL, "solved purity misses its target",
                  route=False)
        kept = hp.GriddedJsa(modes.signal_grid, modes.idler_grid,
                             modes.reconstruct())
        with rec.untraced():
            kept_dip = hp.hom_dip(kept, filt, filt, delays).coincidences
        rec.check(float(np.abs(dip_m.coincidences - kept_dip).max()), GRID_DIP,
                  "modal dip vs direct dip of the kept modes")
        rec.check(float(np.abs(dip_m.coincidences - dip.coincidences).max()),
                  dip_tolerance(modes, success), "modal dip vs quadrature dip")


def solve_target(report):
    """Purity target halfway between the unfiltered and the reported purity.

    Purity of a chirped gridded source need not fall monotonically with the
    filter width.  The solver tests monotonicity on nine probes only, and
    it reports a target above its narrowest probe as unachievable even when
    a width between probes reaches it (seen for a target equal to the
    reported purity), so the target sits below the reported purity.
    """
    return 0.5 * (report.purity_unfiltered + report.purity_filtered)


def dip_tolerance(modes, success):
    """Allowed gap between the modal dip and the direct dip of the full grid.

    ``decompose`` drops modes below its relative threshold, and the schmidt
    module promises agreement "to within the truncation error"; against the
    amplitude of the kept modes the dips must agree within ``GRID_DIP``.
    Purity and success change only in second order of the dropped
    amplitude, but the delay phase couples kept and dropped signal modes,
    so a dip moves in first order: by at most ``4 * sqrt(d / success)`` for
    a discarded weight ``d`` (bounding the change of the normalized
    heralded state in trace norm).
    """
    discarded = max(0.0, 1.0 - float(np.sum(modes.coefficients)))
    return GRID_DIP + 4.0 * math.sqrt(discarded / success)


RUNNERS = {"three-route": run_three_route, "ktp-quadrature": run_ktp,
           "design-scan": run_design, "gridded-modal": run_gridded}
