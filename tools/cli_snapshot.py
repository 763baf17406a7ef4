"""Snapshot the command line outputs for a byte-identity check.

Usage::

    PYTHONPATH=src python tools/cli_snapshot.py OUTDIR
    python tools/cli_snapshot.py --compare OLD NEW

Writes twenty configs under ``OUTDIR`` (the demo source, the KTP source,
the demo with a detuned filter, the demo without a filter, a 128-point
gridded copy of the demo as CSV, that copy with extra jsa keys, the demo
with a boolean filter width, the demo behind a tabulated box herald, the
demo behind a table with boolean and string entries, a K = 30 source, the
gridded copy with its last signal frequency NaN, the demo behind a
herald 500 rad/ps away that passes nothing, the demo behind two
three-knot tables peaking at 1 + 5e-13 and at 1.5, the demo behind a
two-knot box on [-1, 1], a jsa section that is a number, the demo with a
filter section that is a string, a ``csv_path`` that is a number, and the
demo with every width scaled by 1e-200 and by 1e80), then runs a fixed
list of 111 ``heraldpurity.cli`` invocations with ``--no-timestamp``, each
in a fresh interpreter with ``OPENBLAS_NUM_THREADS=1`` and the caller's
``PYTHONPATH``.  Every run leaves ``NN.stdout``, ``NN.stderr`` and ``NN.code`` in ``OUTDIR``, and
``index.json`` lists the argument vectors.  The runs use ``OUTDIR`` as
their working directory and name the configs by relative path, so no
output embeds a location: two snapshots taken with different
``PYTHONPATH`` settings compare with ``diff -r``.

``--compare OLD NEW`` reads two such snapshots and prints each run whose
outputs differ: its argument vector, its moved lines, and for each moved
numeric column (a CSV header field, or a JSON key) the largest relative
change of an entry and the largest change over the column's largest
magnitude in the old output.  It exits 1 when any run differs.
"""

from __future__ import annotations

import difflib
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np

DEMO = {"sigma1": 1.0, "sigma2": 5.0, "theta1": "pi/4", "theta2": "-pi/4"}
KTP = {"sigma1": 6.0, "sigma2": 0.70, "theta1": "pi/4", "theta2": 0.97}
# K = 30: its heralded states are narrow bands of core._gram_blocks pairs.
K30 = {"sigma1": 1.0, "sigma2": 60.0, "theta1": "pi/4", "theta2": "-pi/4"}

CONFIGS = {
    "demo.json": {"jsa": DEMO, "filter": {"center": 0.0, "width": 0.6}},
    "ktp.json": {"jsa": KTP, "filter": {"center": 0.0, "width": 6.0}},
    "offcentre.json": {"jsa": DEMO, "filter": {"center": 0.7, "width": 0.6}},
    "nofilter.json": {"jsa": DEMO},
    "gridded.json": {"jsa": {"csv_path": "demo_grid.csv"},
                     "filter": {"center": 0.0, "width": 0.6}},
    "csvextra.json": {"jsa": {"csv_path": "demo_grid.csv", "sigma1": 2.0,
                              "bogus": 1},
                      "filter": {"center": 0.0, "width": 0.6}},
    "boolwidth.json": {"jsa": DEMO, "filter": {"center": 0.0, "width": True}},
    "tabbox.json": {"jsa": DEMO, "filter": {
        "grid": [-5, -1 - 1e-6, -1, 1, 1 + 1e-6, 5],
        "transmission": [0, 0, 1, 1, 0, 0]}},
    "tabtyped.json": {"jsa": DEMO, "filter": {
        "grid": [-1, "0", True], "transmission": [False, "1.0", 0]}},
    "k30.json": {"jsa": K30, "filter": {"center": 0.0, "width": 20.0}},
    "nanfreq.json": {"jsa": {"csv_path": "nan_grid.csv"},
                     "filter": {"center": 0.0, "width": 0.6}},
    "farherald.json": {"jsa": DEMO, "filter": {"center": 500, "width": 0.1}},
    "tabpeak.json": {"jsa": DEMO, "filter": {
        "grid": [-1, 0, 1], "transmission": [0, 1 + 5e-13, 0]}},
    "tabover.json": {"jsa": DEMO, "filter": {
        "grid": [-1, 0, 1], "transmission": [0, 1.5, 0]}},
    "box.json": {"jsa": DEMO, "filter": {
        "grid": [-1, 1], "transmission": [1, 1]}},
    "jsanum.json": {"jsa": 5},
    "filterstr.json": {"jsa": DEMO, "filter": "wide"},
    # never 0 or true: the runs inherit this tool's stdin and stdout
    "csvnum.json": {"jsa": {"csv_path": 7}},
    "tiny.json": {"jsa": {**DEMO, "sigma1": 1e-200, "sigma2": 5e-200},
                  "filter": {"center": 0.0, "width": 6e-201}},
    "huge.json": {"jsa": {**DEMO, "sigma1": 1e80, "sigma2": 5e80},
                  "filter": {"center": 0.0, "width": 6e79}},
}


def write_inputs(outdir):
    """Write the JSON configs and the gridded demo amplitude as CSV."""
    import heraldpurity as hp  # here, so --compare runs without the package
    for name, config in CONFIGS.items():
        (outdir / name).write_text(json.dumps(config, indent=2) + "\n")
    jsa = hp.jsa_from_dict(DEMO)
    with warnings.catch_warnings():
        # The coarse grid is deliberate: it keeps the gridded runs fast.
        warnings.simplefilter("ignore", UserWarning)
        grid = hp.discretize(jsa, 4.0, 128)
    ws, wi = np.meshgrid(grid.signal_grid, grid.idler_grid, indexing="ij")
    rows = np.column_stack([ws.ravel(), wi.ravel(),
                            grid.amplitudes.real.ravel(),
                            np.imag(grid.amplitudes).ravel()])
    for name in ("demo_grid.csv", "nan_grid.csv"):
        np.savetxt(outdir / name, rows, fmt="%.17g", delimiter=",",
                   header="omega_signal,omega_idler,re,im", comments="")
        # the next file: the last signal frequency NaN on each of its rows,
        # which still cover the rectangle once
        rows[rows[:, 0] == grid.signal_grid[-1], 0] = np.nan


def invocations():
    """The argument vectors to run, without the trailing ``--no-timestamp``."""
    runs = []
    for config in ("demo.json", "ktp.json", "offcentre.json",
                   "nofilter.json"):
        c = ["--config", config]
        runs += [
            ["report", *c],
            ["report", *c, "--format", "json"],
            ["sweep", "tradeoff", *c],
            ["sweep", "tradeoff", *c, "--format", "json"],
            ["hom", *c],
            ["schmidt", *c],
            ["schmidt", *c, "--n-modes", "4", "--project-mode", "0"],
            ["solve-filter", *c, "--target-visibility", "0.5"],
            ["solve-filter", *c, "--target-visibility", "0.5",
             "--format", "json"],
            ["solve-filter", *c, "--target-purity", "0.9"],
        ]
    runs += [
        ["sweep", "tradeoff", "--config", "demo.json", "--two-filters"],
        ["sweep", "tradeoff", "--config", "ktp.json", "--two-filters"],
        ["sweep", "aspect"],
        ["sweep", "aspect", "--format", "json"],
        ["sweep", "orientation"],
        ["sweep", "orientation", "--format", "json"],
        ["sweep", "aspect", "--ratios", "1:8:15", "--widths", "0.1:10:12",
         "--format", "json"],
        ["sweep", "orientation", "--ratio", "5", "--thetas", "0:1.5:25"],
        ["hom", "--config", "demo.json", "--tau-max", "2.0",
         "--tau-points", "5"],
        ["report", "--config", "ktp.json", "--filter-width", "0.72"],
    ]
    c = ["--config", "gridded.json"]
    runs += [
        ["report", *c],
        ["report", *c, "--format", "json"],
        ["schmidt", *c],
        ["schmidt", *c, "--n-modes", "4", "--project-mode", "0"],
        ["hom", *c, "--tau-max", "1.0", "--tau-points", "9"],
        ["solve-filter", *c, "--target-purity", "0.9"],
        ["solve-filter", *c, "--target-purity", "0.8"],
        ["solve-filter", *c, "--target-purity", "0.8", "--format", "json"],
        # flags these sweeps do not read: exit 2
        ["sweep", "aspect", "--nodes", "64"],
        ["sweep", "orientation", "--two-filters"],
        ["sweep", "aspect", "--config", "demo.json"],
        ["sweep", "orientation", "--theta1", "0.3"],
        ["sweep", "tradeoff", "--config", "demo.json", "--two-filters",
         "--nodes", "64"],
        # an even delay count misses zero delay; flag prefixes: exit 2
        ["hom", "--config", "demo.json", "--tau-points", "4"],
        ["report", "--conf", "demo.json"],
        ["sweep", "orientation", "--theta", "0:1:3"],
        # a non-finite window or grid extent: exit 2
        ["report", "--config", "demo.json", "--extent", "inf"],
        ["schmidt", "--config", "demo.json", "--extent", "inf"],
        # quadrature and grid flags on a gridded amplitude: exit 2
        ["report", *c, "--extent", "9", "--nodes", "64"],
        ["schmidt", *c, "--extent", "9", "--grid-n", "300"],
        # narrow and mid-width KTP heralds: banded heralded states
        ["report", "--config", "ktp.json", "--filter-width", "0.05"],
        ["hom", "--config", "ktp.json", "--filter-width", "2.0",
         "--tau-points", "41"],
        # the widest KTP herald, whose node axes are the largest filtered ones
        ["report", "--config", "ktp.json", "--filter-width", "20"],
        ["report", "--config", "ktp.json", "--filter-width", "20",
         "--format", "json"],
        # unbalanced splitters, parametric and gridded
        ["hom", "--config", "demo.json", "--reflectivity", "0.7",
         "--tau-max", "2.0", "--tau-points", "5"],
        ["hom", *c, "--reflectivity", "0.3", "--tau-max", "1.0",
         "--tau-points", "9"],
        # a non-finite range endpoint: exit 2
        ["sweep", "aspect", "--ratios", "1:inf:5"],
        ["sweep", "aspect", "--widths", "0.1:inf:3"],
        # a table reaching e-notation and values of exactly 1
        ["sweep", "aspect", "--ratios", "1:8:101", "--widths",
         "1e-6:1000:101"],
        # keys beside csv_path and a boolean filter width: exit 2
        ["report", "--config", "csvextra.json"],
        ["report", "--config", "boolwidth.json"],
        # a box herald whose knots sit in the amplitude's mass, integrated
        # on knot panels; a table with boolean and string entries: exit 2
        ["report", "--config", "tabbox.json"],
        ["report", "--config", "tabtyped.json"],
        # the box herald's dip
        ["hom", "--config", "tabbox.json", "--tau-max", "2", "--tau-points",
         "5"],
        # JSON with e-notation widths and purity of exactly 1 at both ends
        ["sweep", "orientation", "--format", "json", "--thetas",
         "0:1.5707963267948966:101", "--widths", "1e-6:1000:101"],
        # a K = 30 source, whose states are reduced from band blocks
        ["report", "--config", "k30.json", "--format", "json"],
        # its dip, whose overlaps are summed over shared band blocks
        ["hom", "--config", "k30.json", "--tau-max", "1", "--tau-points",
         "9"],
        # a large dense state, reduced from its 128-row block pairs
        ["report", "--config", "demo.json", "--nodes", "1024"],
        # a NaN grid frequency: exit 2; a herald that passes nothing: exit 3
        ["report", "--config", "nanfreq.json"],
        ["report", "--config", "farherald.json"],
        # an argument outside its bounds: exit 2
        ["hom", "--config", "demo.json", "--reflectivity", "1.5"],
        ["report", "--config", "demo.json", "--nodes", "16"],
        ["schmidt", "--config", "demo.json", "--grid-n", "32"],
        ["schmidt", "--config", "demo.json", "--n-modes", "0"],
        ["schmidt", "--config", "demo.json", "--project-mode", "999"],
        # a transmission within 1e-12 of 1 is clipped; one of 1.5: exit 2
        ["report", "--config", "tabpeak.json"],
        ["report", "--config", "tabover.json"],
        # delays of 20 and 40 ps lie past the decay cutoff, at the baseline
        ["hom", "--config", "demo.json", "--tau-max", "40", "--tau-points",
         "5"],
        # a delay the grid step cannot resolve: exit 3; with a bad splitter
        # too: exit 2, as the splitter is checked first
        ["hom", *c, "--tau-max", "100", "--tau-points", "5"],
        ["hom", *c, "--tau-max", "100", "--tau-points", "5",
         "--reflectivity", "1.5"],
        # a box herald given by its two knots alone, one panel between them
        ["report", "--config", "box.json"],
        ["hom", "--config", "box.json", "--tau-max", "2", "--tau-points",
         "5"],
        # sections that are not objects, a csv_path that is not a string and
        # a lone decimal point as an angle coefficient: exit 2
        ["report", "--config", "jsanum.json"],
        ["report", "--config", "filterstr.json"],
        ["report", "--config", "csvnum.json"],
        ["sweep", "aspect", "--theta1", ".pi"],
        # widths outside [1e-72, 1e72], where the figures lose their digits
        # or overflow: exit 2
        ["report", "--config", "tiny.json"],
        ["report", "--config", "huge.json"],
        # sources and heralds the closed forms do not cover: exit 2
        ["sweep", "tradeoff", *c],
        ["hom", *c],
        ["solve-filter", "--config", "tabbox.json", "--target-purity", "0.9"],
    ]
    return [run + ["--no-timestamp"] for run in runs]


def _fields(line):
    """``(column, text)`` pairs of one output line.

    A ``"key": value`` JSON line is one field named by its key; any other
    line is split at commas, its fields named by position.
    """
    text = line.strip().rstrip(",")
    if text.startswith('"') and '": ' in text:
        key, value = text.split('": ', 1)
        return [(key[1:], value)]
    return [(str(i), field) for i, field in enumerate(line.split(","))]


def _name(column, header):
    """A ``_fields`` column by its header field, if it has one."""
    return (header[int(column)] if column.isdigit()
            and int(column) < len(header) else column)


def _column_scales(lines, header):
    """Largest finite magnitude of each numeric column over ``lines``."""
    scales = {}
    for line in lines:
        for column, text in _fields(line):
            try:
                value = abs(float(text))
            except ValueError:
                continue
            if math.isfinite(value):
                name = _name(column, header)
                scales[name] = max(scales.get(name, 0.0), value)
    return scales


def _moved_columns(old, new, header):
    """``[rel, x, y, change]`` of each numeric column, over paired lines:
    its largest relative change, from ``x`` to ``y``, and largest change."""
    changes = {}
    for a, b in zip(old, new):
        fa, fb = _fields(a), _fields(b)
        if len(fa) != len(fb):
            continue
        for (column, x), (_, y) in zip(fa, fb):
            try:
                x, y = float(x), float(y)
            except ValueError:
                continue
            if x == y:
                continue
            name = _name(column, header)
            rel = abs(y - x) / abs(x) if x else math.inf
            best = changes.setdefault(name, [rel, x, y, 0.0])
            if rel > best[0]:
                best[:3] = rel, x, y
            best[3] = max(best[3], abs(y - x))
    return changes


def _compare_stream(name, old, new):
    """The report lines for one differing output stream, or none."""
    if old == new:
        return []
    old_lines, new_lines = old.splitlines(), new.splitlines()
    header = next((line.split(",") for line in old_lines
                   if line and not line.startswith(("#", "{", " "))), [])
    out = [f"  {name}:"]
    removed, added = [], []
    matcher = difflib.SequenceMatcher(a=old_lines, b=new_lines, autojunk=False)
    for tag, i1, i2, j1, j2 in matcher.get_opcodes():
        if tag == "equal":
            continue
        out += [f"  - {line}" for line in old_lines[i1:i2]]
        out += [f"  + {line}" for line in new_lines[j1:j2]]
        if i2 - i1 == j2 - j1:
            removed += old_lines[i1:i2]
            added += new_lines[j1:j2]
    if name == "stdout":
        scales = _column_scales(old_lines, header)
        for column, (rel, x, y, change) in sorted(
                _moved_columns(removed, added, header).items()):
            scale = scales.get(column, 0.0)
            share = change / scale if scale else math.inf
            out.append(f"  largest relative change in {column}: {rel:.3g} "
                       f"({x!r} -> {y!r}); largest change over the column's "
                       f"largest magnitude {scale:.3g}: {share:.3g}")
    return out


def compare(old_dir, new_dir):
    """Print each run whose outputs differ between two snapshots.

    Runs are matched by argument vector.  For each differing run: its
    index and arguments, its moved lines, and for each numeric column among
    lines that moved one for one its largest relative change and its
    largest change over the column's largest magnitude in the old output.
    Returns the number of differing runs.
    """
    old_dir, new_dir = Path(old_dir), Path(new_dir)
    old_runs = json.loads((old_dir / "index.json").read_text())
    new_runs = json.loads((new_dir / "index.json").read_text())
    new_index = {tuple(args): i for i, args in enumerate(new_runs)}
    differing = 0
    for i, args in enumerate(old_runs):
        j = new_index.pop(tuple(args), None)
        if j is None:
            print(f"{i:02d} {' '.join(args)}: only in {old_dir}")
            differing += 1
            continue
        lines = []
        for suffix in ("code", "stdout", "stderr"):
            lines += _compare_stream(
                suffix, (old_dir / f"{i:02d}.{suffix}").read_text(),
                (new_dir / f"{j:02d}.{suffix}").read_text())
        if lines:
            differing += 1
            print(f"{i:02d} {' '.join(args)}")
            print("\n".join(lines))
    for args, j in new_index.items():
        print(f"{j:02d} {' '.join(args)}: only in {new_dir}")
        differing += 1
    print(f"{differing} of {len(old_runs)} runs differ")
    return differing


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) == 3 and argv[0] == "--compare":
        return 1 if compare(argv[1], argv[2]) else 0
    if len(argv) != 1:
        print("usage: cli_snapshot.py OUTDIR | --compare OLD NEW",
              file=sys.stderr)
        return 2
    outdir = Path(argv[0])
    outdir.mkdir(parents=True, exist_ok=True)
    write_inputs(outdir)

    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    # The runs start in OUTDIR, so relative search-path entries are
    # resolved against the caller's directory first.
    paths = [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    env["PYTHONPATH"] = os.pathsep.join(os.path.abspath(p) for p in paths)

    runs = invocations()
    for i, args in enumerate(runs):
        done = subprocess.run([sys.executable, "-m", "heraldpurity.cli", *args],
                              cwd=outdir, env=env, capture_output=True,
                              text=True, check=False)
        stem = outdir / f"{i:02d}"
        stem.with_suffix(".stdout").write_text(done.stdout)
        stem.with_suffix(".stderr").write_text(done.stderr)
        stem.with_suffix(".code").write_text(f"{done.returncode}\n")
    (outdir / "index.json").write_text(json.dumps(runs, indent=1) + "\n")
    print(f"{len(runs)} runs written to {outdir}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
