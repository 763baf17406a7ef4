"""Command line interface for heralded-source figures of merit.

Subcommands:
    report        scalar figures of merit by both computation routes
    sweep         parameter sweeps (aspect, orientation, tradeoff) as CSV/JSON
    hom           two-source interference dip samples as CSV
    schmidt       mode weights and samples as sectioned CSV
    solve-filter  widest herald filter meeting a purity/visibility target

Configuration is a JSON file with a ``jsa`` section (either ridge
parameters, laboratory parameters, or ``csv_path`` pointing at tabulated
samples) and an optional ``filter`` section for the herald arm; any other
key is an error.  Exit codes: 0 on success, 1 when the reader closes the
output early, 2 for configuration or usage errors, 3 for numerical
failures; errors are emitted as one JSON object on stderr.
"""

from __future__ import annotations

import argparse
import datetime as _dt
import json
import math
import os
import sys
import warnings
from contextlib import contextmanager
from functools import cache, partial
from itertools import chain, islice
from operator import attrgetter

import numpy as np

from .analytic import (
    closed_form_purity,
    closed_form_report,
    hom_dip_analytic,
    schmidt_number,
    thermal_schmidt_coefficients,
)
from .core import (
    GaussianFilter,
    GriddedJsa,
    NumericalError,
    _closed_forms,
    _real,
    discretize,
    filter_from_dict,
    jsa_from_dict,
    parse_angle,
    recommended_grid,
    visibility,
)
from .quadrature import QuadratureSpec, heralding_report, hom_dip
from .schmidt import decompose, mode_projection_herald
from .sweep import (
    solve_filter_for_target,
    sweep_aspect_ratio,
    sweep_orientation,
    tradeoff_curve,
)

__all__ = ["main", "load_jsa_csv"]

# Fields that the table writer formats and writes at a time.
_CHUNK_VALUES = 8192
# The columns of a trade-off table, which are ``TradeoffPoint`` fields.
_TRADEOFF_COLUMNS = ("sigma_f", "success", "purity", "visibility")
# Templates of the ``grid_to_rows`` columns: two axes of text, three numbers.
_GRID_FIELDS = ("%s", "%s", "%.12g", "%.12g", "%.12g")


def _fmt(value):
    """A meta value or report field: 12 digits, ``None`` empty, text as is."""
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    return format(float(value), ".12g")


def load_jsa_csv(path):
    """Read tabulated amplitude samples from CSV.

    The file, UTF-8 with or without a byte-order mark, must have a header
    naming the columns ``omega_signal``, ``omega_idler``, ``re`` and
    ``im``, in any order and among any others, and one row per grid cell,
    covering a full rectangle of signal and idler frequencies with each
    ``(signal, idler)`` pair exactly once.

    Returns:
        A normalized ``GriddedJsa``.

    Raises:
        ValueError: If a column is missing, a row is short or not numeric,
            there are no sample rows, or the rows do not cover the
            rectangle once.
    """
    required = ("omega_signal", "omega_idler", "re", "im")
    with open(path, "r", encoding="utf-8-sig") as handle:
        names = [name.strip() for name in handle.readline().lstrip("#")
                 .split(",")]
        if any(column not in names for column in required):
            raise ValueError(
                f"jsa csv must have columns {','.join(required)}, found "
                f"{','.join(names)}"
            )
        with warnings.catch_warnings():
            # A header alone is reported below, as having no samples.
            warnings.filterwarnings("ignore", "loadtxt: input contained no")
            data = np.loadtxt(handle, delimiter=",", ndmin=2,
                              usecols=[names.index(c) for c in required])
    if len(data) == 0:
        raise ValueError(f"jsa csv {path} has no samples, only a header")
    omega_signal, omega_idler, real, imag = data.T
    signal = np.unique(omega_signal)
    idler = np.unique(omega_idler)
    ix = np.searchsorted(signal, omega_signal)
    iy = np.searchsorted(idler, omega_idler)
    if (signal.size * idler.size != len(data)
            or np.unique(ix * idler.size + iy).size != len(data)):
        raise ValueError(
            "jsa csv must cover a full rectangle of signal and idler "
            "frequencies, with each (signal, idler) pair exactly once"
        )
    amplitudes = np.zeros((signal.size, idler.size), dtype=complex)
    amplitudes[ix, iy] = real + 1j * imag
    if np.abs(amplitudes.imag).max() == 0.0:
        amplitudes = amplitudes.real
    return GriddedJsa(signal, idler, amplitudes).normalize()


def _build_run_config(args):
    """``(jsa, herald_filter, spec)`` from the config file and flags.

    ``herald_filter`` is ``None`` without one; ``spec`` is the
    ``QuadratureSpec`` after the ``--nodes`` and ``--extent`` overrides.
    """
    config = {}
    if getattr(args, "config", None):
        with open(args.config, "r", encoding="utf-8") as handle:
            config = json.load(handle)
        if not isinstance(config, dict):
            raise ValueError("config file must hold a JSON object")
    unknown = [key for key in config if key not in ("jsa", "filter")]
    if unknown:
        raise ValueError(f"unknown config key {unknown[0]!r}; expected "
                         "'jsa' or 'filter'")
    if "jsa" not in config:
        raise ValueError("config must define a 'jsa' section")
    section = config["jsa"]
    if isinstance(section, dict) and "csv_path" in section:
        extra = sorted(set(section) - {"csv_path"})
        if extra:
            raise ValueError(f"a jsa section with csv_path holds nothing "
                             f"else; remove {extra}")
        # The samples fix the grid: no node count or extent is read.
        for name in ("nodes", "extent", "grid_n"):
            if getattr(args, name, None) is not None:
                flag = "--" + name.replace("_", "-")
                raise ValueError(f"{flag} does not apply to a gridded "
                                 "amplitude: its samples fix the grid")
        if not isinstance(path := section["csv_path"], str):
            raise ValueError(f"csv_path must be a path string, got {path!r}")
        jsa = load_jsa_csv(path)
    else:
        jsa = jsa_from_dict(section)
    herald = filter_from_dict(config["filter"]) if "filter" in config else None
    if getattr(args, "filter_width", None) is not None:
        herald = GaussianFilter(center=0.0, width=args.filter_width)
    spec_kwargs = {}
    if getattr(args, "nodes", None) is not None:
        spec_kwargs["n_nodes"] = args.nodes
    if getattr(args, "extent", None) is not None:
        spec_kwargs["half_extent"] = args.extent
    return jsa, herald, QuadratureSpec(**spec_kwargs)


@contextmanager
def _open_output(args):
    if getattr(args, "output", None):
        with open(args.output, "w", encoding="utf-8") as handle:
            yield handle
    else:
        yield sys.stdout


def _meta_dict(args, pairs):
    meta = {"command": args.command}
    if not args.no_timestamp:
        meta["generated"] = _dt.datetime.now().isoformat(timespec="seconds")
    meta.update({key: value for key, value in pairs})
    return meta


def _meta_lines(args, pairs):
    return [f"# {key} = {value}" for key, value in _meta_dict(args, pairs).items()]


def _write_json(handle, payload):
    """Write ``payload`` as ``json.dump(payload, handle, indent=2)`` does.

    The text is the same byte for byte, plus a final newline.  CPython's
    indented dump encodes one value at a time in Python; here a list of
    plain numbers is encoded in one C call and split into lines at its
    commas, which no number contains.  The text is written in pieces, so
    no document-sized string is built.
    """
    _write_json_value(handle.write, payload, "\n")
    handle.write("\n")


def _write_json_value(write, value, newline):
    """Write ``value`` indented, ``newline`` before its closing bracket."""
    inner = newline + "  "
    if (isinstance(value, (list, tuple)) and value
            and set(map(type, value)) <= {int, float}):
        text = json.dumps(value, separators=(",", ":"))
        write("[" + inner + text[1:-1].replace(",", "," + inner)
              + newline + "]")
    elif isinstance(value, (list, tuple)) and value:
        opener = "["
        for item in value:
            write(opener + inner)
            _write_json_value(write, item, inner)
            opener = ","
        write(newline + "]")
    elif (isinstance(value, dict) and value
          and all(isinstance(key, str) for key in value)):
        opener = "{"
        for key, item in value.items():
            write(opener + inner + json.dumps(key) + ": ")
            _write_json_value(write, item, inner)
            opener = ","
        write(newline + "}")
    else:
        # Scalars, empty containers and dicts with keys that are not text.
        write(json.dumps(value, indent=2).replace("\n", newline))


def _write_csv(handle, meta_lines, header, rows, field="%.12g"):
    """Meta lines, a header line and ``rows``, formatted by templates.

    ``field`` is the template of every column, or a list of one per
    column.  The default writes a number to 12 significant digits, as
    ``format(float(value), ".12g")`` does; text, already formatted (by
    ``_fmt``, say), goes through ``"%s"``.  Each chunk of rows is
    formatted in one call and written at once, so no table-sized string
    is built.
    """
    for line in meta_lines:
        handle.write(line + "\n")
    handle.write(",".join(header) + "\n")
    fields = [field] * len(header) if isinstance(field, str) else field
    template = ",".join(fields) + "\n"
    chunk_rows = max(1, _CHUNK_VALUES // len(header))
    rows = iter(rows)
    while chunk := list(islice(rows, chunk_rows)):
        handle.write((template * len(chunk))
                     % tuple(chain.from_iterable(chunk)))


def export_modes_csv(decomposition, handle, n_modes, reference):
    """Write weights and mode samples as sectioned CSV.

    The first section lists ``mu, p_mu, reference_p_mu``; the following
    sections, each after a blank line and a ``# signal modes`` or
    ``# idler modes`` title, list the mode samples, one grid point per row
    and two columns (re, im) per mode.

    Args:
        decomposition: ``SchmidtDecomposition`` to export.
        handle: Writable text file object.
        n_modes: Number of leading modes to include, at most the number
            retained.
        reference: Reference weights written next to ``p_mu`` (for example
            the geometric law for the same K), at least ``n_modes`` of them.
    """
    p = decomposition.coefficients
    _write_csv(handle, [], ["mu", "p_mu", "reference_p_mu"],
               ((mu, p[mu], reference[mu]) for mu in range(n_modes)))
    header = ["omega"] + [f"mode{mu}_{part}" for mu in range(n_modes)
                          for part in ("re", "im")]
    for title, grid, modes in (
            ("signal", decomposition.signal_grid, decomposition.signal_modes),
            ("idler", decomposition.idler_grid, decomposition.idler_modes)):
        parts = np.stack([modes[:n_modes].real, modes[:n_modes].imag], axis=1)
        samples = np.column_stack([grid, parts.reshape(2 * n_modes, -1).T])
        _write_csv(handle, ["", f"# {title} modes"], header, samples.tolist())


def grid_to_rows(grid):
    """Header and long-format rows for a ``SweepGrid``.

    Columns are fixed: the two axis names, then ``success``, ``purity``,
    ``visibility``; the fast axis varies within consecutive rows.  Each
    axis value is formatted once, by ``_fmt``, so the axis cells are text
    (write them with ``_GRID_FIELDS``); the other cells are floats.
    """
    header = [grid.axis1_name, grid.axis2_name, "success", "purity",
              "visibility"]
    axis1 = list(map(_fmt, grid.axis1.tolist()))
    axis2 = list(map(_fmt, grid.axis2.tolist()))
    columns = [[text for text in axis1 for _ in axis2], axis2 * len(axis1)]
    columns += [np.ravel(c).tolist() for c in
                (grid.success, grid.purity, visibility(grid.purity))]
    return header, list(zip(*columns))


def tradeoff_to_rows(points):
    """Header and rows for a trade-off curve, in fixed column order."""
    return (list(_TRADEOFF_COLUMNS),
            list(map(attrgetter(*_TRADEOFF_COLUMNS), points)))


def grid_to_dict(grid):
    """JSON-ready mapping for a ``SweepGrid``."""
    return {
        "axes": {
            grid.axis1_name: grid.axis1.tolist(),
            grid.axis2_name: grid.axis2.tolist(),
        },
        "success": grid.success.tolist(),
        "purity": grid.purity.tolist(),
    }


def tradeoff_to_dict(points):
    """JSON-ready list of mappings for a trade-off curve."""
    return [dict(zip(_TRADEOFF_COLUMNS, row))
            for row in tradeoff_to_rows(points)[1]]


def _parse_range(text, log=False, angles=False):
    """Parse ``start:stop:count`` into an array, optionally log spaced."""
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"range must look like start:stop:count, got {text!r}")
    start = parse_angle(parts[0]) if angles else float(parts[0])
    stop = parse_angle(parts[1]) if angles else float(parts[1])
    if not (math.isfinite(start) and math.isfinite(stop)):
        raise ValueError(f"range endpoints must be finite, got {text!r}")
    count = int(parts[2])
    if count < 2:
        raise ValueError(f"range needs at least 2 points, got {count}")
    if log:
        if start <= 0.0 or stop <= 0.0:
            raise ValueError("log range endpoints must be positive")
        return np.logspace(math.log10(start), math.log10(stop), count)
    return np.linspace(start, stop, count)


def cmd_report(args):
    jsa, herald, spec = _build_run_config(args)
    numeric = heralding_report(jsa, herald, spec=spec)
    closed = (closed_form_report(jsa, herald) if _closed_forms(jsa, herald)
              else None)

    if herald is None:
        names = ["purity_unfiltered", "schmidt_number", "g2"]
    else:
        names = ["success", "purity_filtered", "purity_unfiltered",
                 "schmidt_number", "g2", "visibility"]

    rows = []
    for name in names:
        reference = None if closed is None else getattr(closed, name)
        value = getattr(numeric, name)
        difference = None if reference is None else abs(reference - value)
        rows.append((name, reference, value, difference))

    with _open_output(args) as handle:
        if args.format == "json":
            _write_json(handle, {
                "meta": _meta_dict(args, []),
                "quantities": {
                    name: {
                        "analytic": reference,
                        "quadrature": value,
                        "difference": difference,
                    }
                    for name, reference, value, difference in rows
                },
            })
        else:
            _write_csv(handle, _meta_lines(args, []),
                       ["quantity", "analytic", "quadrature", "difference"],
                       [tuple(map(_fmt, row)) for row in rows], field="%s")
    return 0


def cmd_sweep(args):
    pairs = [("kind", args.kind)]
    widths = _parse_range(args.widths, log=True) if args.widths else None
    if args.kind == "aspect":
        ratios = _parse_range(args.ratios) if args.ratios else None
        theta1 = parse_angle(args.theta1)
        theta2 = parse_angle(args.theta2)
        pairs += [("theta1", _fmt(theta1)), ("theta2", _fmt(theta2))]
        result = sweep_aspect_ratio(ratios=ratios, filter_widths=widths,
                                    theta1=theta1, theta2=theta2)
        to_dict, to_rows, field = grid_to_dict, grid_to_rows, _GRID_FIELDS
    elif args.kind == "orientation":
        thetas = _parse_range(args.thetas, angles=True) if args.thetas else None
        pairs += [("ratio", _fmt(args.ratio))]
        result = sweep_orientation(theta1_values=thetas, filter_widths=widths,
                                   ratio=args.ratio)
        to_dict, to_rows, field = grid_to_dict, grid_to_rows, _GRID_FIELDS
    else:
        jsa, _, _ = _build_run_config(args)
        # Before the pairs read sigma1: a gridded amplitude is refused here.
        result = tradeoff_curve(jsa, filter_widths=widths,
                                two_filter=args.two_filters)
        pairs += [
            ("sigma1", _fmt(jsa.sigma1)),
            ("sigma2", _fmt(jsa.sigma2)),
            ("theta1", _fmt(jsa.theta1)),
            ("theta2", _fmt(jsa.theta2)),
            ("two_filters", str(bool(args.two_filters)).lower()),
        ]
        to_dict, to_rows, field = tradeoff_to_dict, tradeoff_to_rows, "%.12g"

    with _open_output(args) as handle:
        if args.format == "json":
            _write_json(handle, {"meta": _meta_dict(args, pairs),
                                 "data": to_dict(result)})
        else:
            _write_csv(handle, _meta_lines(args, pairs), *to_rows(result),
                       field=field)
    return 0


def cmd_hom(args):
    jsa, herald, spec = _build_run_config(args)
    if herald is None:
        raise ValueError("hom needs a herald filter (config or --filter-width)")
    if args.tau_points < 3 or args.tau_points % 2 == 0:
        raise ValueError(f"--tau-points must be odd and at least 3 to sample "
                         f"zero delay, got {args.tau_points}")
    if args.tau_max is not None:
        # Checked here too: linspace warns on an infinite end.
        tau_max = _real("--tau-max", args.tau_max, positive=True)
    elif _closed_forms(jsa):
        tau_max = 4.0 * math.sqrt(2.0 * jsa.intensity_coefficients()[0])
    else:
        raise ValueError("gridded amplitudes need an explicit --tau-max")
    delays = np.linspace(-tau_max, tau_max, args.tau_points)
    reflectivity = args.reflectivity
    curve = hom_dip(jsa, herald, herald, delays, reflectivity=reflectivity,
                    spec=spec)

    pairs = [
        ("reflectivity", _fmt(reflectivity)),
        ("transmissivity", _fmt(1.0 - reflectivity)),
        ("baseline", _fmt(curve.baseline)),
        ("dip_minimum", _fmt(curve.coincidences.min())),
        ("visibility", _fmt(curve.visibility())),
    ]
    header = ["delay_ps", "coincidence"]
    columns = [curve.delays, curve.coincidences]
    if _closed_forms(jsa, herald):
        header.append("closed_form")
        columns.append(hom_dip_analytic(
            jsa, closed_form_purity(jsa, herald), delays,
            reflectivity=reflectivity).coincidences)
    rows = zip(*columns)
    with _open_output(args) as handle:
        _write_csv(handle, _meta_lines(args, pairs), header, rows)
    return 0


def cmd_schmidt(args):
    jsa, _, _ = _build_run_config(args)
    if _closed_forms(jsa):
        extent, points = recommended_grid(jsa)
        if args.extent is not None:
            extent = args.extent
        if args.grid_n is not None:
            points = args.grid_n
        gridded = discretize(jsa, half_extent=extent, n_points=points)
        k_reference = schmidt_number(jsa)
    else:
        gridded = jsa
        k_reference = None
    modes = decompose(gridded)
    if k_reference is None:
        k_reference = modes.schmidt_number()
    n_rows = args.n_modes if args.n_modes is not None else min(modes.n_modes, 64)
    n_rows = min(n_rows, modes.n_modes)
    thermal = thermal_schmidt_coefficients(k_reference, n_modes=n_rows)

    pairs = [
        ("n_modes_retained", str(modes.n_modes)),
        ("schmidt_number", _fmt(modes.schmidt_number())),
        ("purity_unfiltered", _fmt(modes.purity())),
        ("thermal_reference_k", _fmt(k_reference)),
    ]
    if args.project_mode is not None:
        projection = mode_projection_herald(modes, args.project_mode)
        pairs += [
            ("projection_mode", str(projection.index)),
            ("projection_success", _fmt(projection.success)),
            ("projection_purity", _fmt(projection.purity)),
        ]
    with _open_output(args) as handle:
        for line in _meta_lines(args, pairs):
            handle.write(line + "\n")
        export_modes_csv(modes, handle, n_modes=n_rows, reference=thermal)
    return 0


def cmd_solve_filter(args):
    jsa, herald, _ = _build_run_config(args)
    center = 0.0
    if herald is not None:
        if not isinstance(herald, GaussianFilter):
            raise ValueError("solve-filter sizes a Gaussian herald filter; "
                             "the config filter is tabulated")
        center = herald.center
    solution = solve_filter_for_target(
        jsa,
        target_purity=args.target_purity,
        target_visibility=args.target_visibility,
        center=center,
    )
    pairs = [
        ("sigma_f", _fmt(solution.sigma_f)),
        ("purity", _fmt(solution.purity)),
        ("success", _fmt(solution.success)),
        ("visibility", _fmt(solution.visibility)),
        ("method", solution.method),
        ("iterations", str(solution.iterations)),
    ]
    if _closed_forms(jsa):
        pairs.insert(1, ("sigma_f_over_sigma1",
                         _fmt(solution.sigma_f / jsa.sigma1)))
    with _open_output(args) as handle:
        if args.format == "json":
            _write_json(handle, _meta_dict(args, pairs))
        else:
            for key, value in pairs:
                handle.write(f"{key},{value}\n")
    return 0


def _add_common(parser, formats=("csv", "json"), default_format="csv"):
    parser.add_argument("--output", help="write output to this path")
    parser.add_argument("--format", choices=formats, default=default_format,
                        help="output format")
    parser.add_argument("--no-timestamp", action="store_true",
                        help="omit the generation timestamp for diffable output")


# Built once per process, on first use: parsing leaves the parser as it was.
@cache
def build_parser():
    # No "--conf" for "--config"; sub-parsers don't inherit allow_abbrev.
    strict = partial(argparse.ArgumentParser, allow_abbrev=False)
    parser = strict(
        prog="heraldpurity",
        description="heralded-photon purity and heralding statistics for "
                    "filtered pair sources",
    )
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=strict)

    p_report = sub.add_parser("report", help="scalar figures of merit")
    _add_common(p_report, formats=("text", "json"), default_format="text")
    p_report.add_argument("--filter-width", type=float,
                          help="use a centered Gaussian herald of this width")
    p_report.set_defaults(func=cmd_report)

    # Each sweep kind is a parser of its own, so it takes only its flags.
    kinds = sub.add_parser("sweep", help="parameter sweeps").add_subparsers(
        dest="kind", required=True, parser_class=strict)
    p_aspect = kinds.add_parser("aspect", help="aspect ratio vs filter width")
    p_aspect.add_argument("--ratios", help="aspect ratios as start:stop:count")
    p_aspect.add_argument("--theta1", default="pi/4", help="first ridge tilt")
    p_aspect.add_argument("--theta2", default="-pi/4", help="second ridge tilt")
    p_orientation = kinds.add_parser("orientation",
                                     help="ridge tilt vs filter width")
    p_orientation.add_argument("--thetas",
                               help="orientation angles as start:stop:count")
    p_orientation.add_argument("--ratio", type=float, default=5.0,
                               help="fixed width ratio")
    p_tradeoff = kinds.add_parser("tradeoff",
                                  help="success vs purity along filter width")
    p_tradeoff.add_argument("--two-filters", action="store_true",
                            help="filter both arms")
    for p in (p_aspect, p_orientation, p_tradeoff):
        _add_common(p)
        p.add_argument("--widths",
                       help="filter widths as start:stop:count (log spaced)")
        p.set_defaults(func=cmd_sweep)

    p_hom = sub.add_parser("hom", help="two-source interference dip")
    _add_common(p_hom, formats=("csv",))
    p_hom.add_argument("--filter-width", type=float,
                       help="use a centered Gaussian herald of this width")
    p_hom.add_argument("--tau-max", type=float,
                       help="largest delay magnitude in ps")
    p_hom.add_argument("--tau-points", type=int, default=201,
                       help="number of delay samples; odd and at least 3")
    p_hom.add_argument("--reflectivity", type=float, default=0.5,
                       help="beam splitter intensity reflectivity")
    p_hom.set_defaults(func=cmd_hom)

    p_schmidt = sub.add_parser("schmidt", help="mode weights and samples")
    _add_common(p_schmidt, formats=("csv",))
    p_schmidt.add_argument("--grid-n", type=int,
                           help="grid points per axis for discretization")
    p_schmidt.add_argument("--n-modes", type=int,
                           help="number of modes to write")
    p_schmidt.add_argument("--project-mode", type=int,
                           help="report heralding on this idler mode")
    p_schmidt.set_defaults(func=cmd_schmidt)

    p_solve = sub.add_parser("solve-filter",
                             help="widest filter meeting a target")
    _add_common(p_solve, formats=("text", "json"), default_format="text")
    p_solve.add_argument("--target-purity", type=float,
                         help="purity target in (0, 1)")
    p_solve.add_argument("--target-visibility", type=float,
                         help="balanced-splitter visibility target in (0, 1)")
    p_solve.set_defaults(func=cmd_solve_filter)

    # Only the subcommands that read these flags accept them.
    for p in (p_report, p_tradeoff, p_hom, p_schmidt, p_solve):
        p.add_argument("--config", help="path to a JSON configuration file")
    for p in (p_report, p_hom):
        p.add_argument("--nodes", type=int,
                       help="floor on the quadrature nodes per axis, in "
                            f"[32, 6000] (default {QuadratureSpec.n_nodes})")
    for p in (p_report, p_hom, p_schmidt):
        p.add_argument("--extent", type=float,
                       help="integration window half-extent / grid extent")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # The reader closed the output (``| head``, say): nothing to report.
        # Python flushes stdout at exit, so point it at the null device, as
        # the signal module's note on SIGPIPE does.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    except NumericalError as exc:
        print(json.dumps({"error": "numerical", "message": str(exc)}),
              file=sys.stderr)
        return 3
    except (ValueError, TypeError, KeyError, OSError) as exc:
        print(json.dumps({"error": "config", "message": str(exc)}),
              file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
