"""Command line interface for heralded-source figures of merit.

Subcommands:
    report        scalar figures of merit by both computation routes
    sweep         parameter sweeps (aspect, orientation, tradeoff) as CSV/JSON
    hom           two-source interference dip samples as CSV
    schmidt       mode weights and samples as sectioned CSV
    solve-filter  widest herald filter meeting a purity/visibility target

Configuration is a JSON file with a ``jsa`` section (either ridge
parameters, laboratory parameters, or ``csv_path`` pointing at tabulated
samples), an optional ``filter`` section for the herald arm, and an
optional ``heralded_filter`` section for the signal arm.  Exit codes: 0 on
success, 2 for configuration or usage errors, 3 for numerical failures;
errors are emitted as one JSON object on stderr.
"""

from __future__ import annotations

import argparse
import datetime as _dt
import json
import math
import sys
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .analytic import (
    closed_form_purity,
    closed_form_report,
    schmidt_number,
    thermal_schmidt_coefficients,
)
from .core import (
    DoubleGaussianJsa,
    GaussianFilter,
    GriddedJsa,
    NumericalError,
    discretize,
    filter_from_dict,
    jsa_from_dict,
    parse_angle,
    recommended_grid,
)
from .quadrature import QuadratureSpec, heralding_report, hom_dip
from .schmidt import decompose, export_modes_csv, mode_projection_herald
from .sweep import (
    grid_to_dict,
    grid_to_rows,
    solve_filter_for_target,
    sweep_aspect_ratio,
    sweep_orientation,
    tradeoff_curve,
    tradeoff_to_dict,
    tradeoff_to_rows,
)

__all__ = ["RunConfig", "main", "load_jsa_csv"]


@dataclass(frozen=True)
class RunConfig:
    """Everything one invocation computes from.

    Attributes:
        jsa: The source amplitude (parametric or gridded).
        herald_filter: Optional filter on the idler arm.
        heralded_filter: Optional filter on the signal arm.
        spec: Quadrature controls after flag overrides.
    """

    jsa: object
    herald_filter: object
    heralded_filter: object
    spec: QuadratureSpec


def _fmt(value):
    return format(float(value), ".12g")


def load_jsa_csv(path):
    """Read tabulated amplitude samples from CSV.

    The file must have a header ``omega_signal,omega_idler,re,im`` and one
    row per grid cell, covering a full rectangle of signal and idler
    frequencies with each ``(signal, idler)`` pair exactly once.

    Returns:
        A normalized ``GriddedJsa``.

    Raises:
        ValueError: If a column is missing or the rows do not cover the
            rectangle once.
    """
    data = np.genfromtxt(path, delimiter=",", names=True)
    required = ("omega_signal", "omega_idler", "re", "im")
    names = data.dtype.names or ()
    if any(column not in names for column in required):
        raise ValueError(
            f"jsa csv must have columns {','.join(required)}, found "
            f"{','.join(names)}"
        )
    signal = np.unique(data["omega_signal"])
    idler = np.unique(data["omega_idler"])
    ix = np.searchsorted(signal, data["omega_signal"])
    iy = np.searchsorted(idler, data["omega_idler"])
    if (signal.size * idler.size != data.size
            or np.unique(ix * idler.size + iy).size != data.size):
        raise ValueError(
            "jsa csv must cover a full rectangle of signal and idler "
            "frequencies, with each (signal, idler) pair exactly once"
        )
    amplitudes = np.zeros((signal.size, idler.size), dtype=complex)
    amplitudes[ix, iy] = data["re"] + 1j * data["im"]
    if np.abs(amplitudes.imag).max() == 0.0:
        amplitudes = amplitudes.real
    return GriddedJsa(signal, idler, amplitudes).normalize()


def _build_run_config(args, require_jsa=True):
    config = {}
    if getattr(args, "config", None):
        with open(args.config, "r", encoding="utf-8") as handle:
            config = json.load(handle)
        if not isinstance(config, dict):
            raise ValueError("config file must hold a JSON object")
    jsa = None
    if "jsa" in config:
        section = config["jsa"]
        if isinstance(section, dict) and "csv_path" in section:
            jsa = load_jsa_csv(section["csv_path"])
        else:
            jsa = jsa_from_dict(section)
    if jsa is None and require_jsa:
        raise ValueError("config must define a 'jsa' section")
    herald = filter_from_dict(config["filter"]) if "filter" in config else None
    heralded = (filter_from_dict(config["heralded_filter"])
                if "heralded_filter" in config else None)
    if getattr(args, "filter_width", None) is not None:
        herald = GaussianFilter(center=0.0, width=args.filter_width)
    spec_kwargs = {}
    if getattr(args, "nodes", None) is not None:
        spec_kwargs["n_nodes"] = args.nodes
    if getattr(args, "extent", None) is not None:
        spec_kwargs["half_extent"] = args.extent
    return RunConfig(jsa=jsa, herald_filter=herald, heralded_filter=heralded,
                     spec=QuadratureSpec(**spec_kwargs))


@contextmanager
def _open_output(args):
    if getattr(args, "output", None):
        with open(args.output, "w", encoding="utf-8") as handle:
            yield handle
    else:
        yield sys.stdout


def _meta_lines(args, pairs):
    lines = [f"# command = {args.command}"]
    if not args.no_timestamp:
        stamp = _dt.datetime.now().isoformat(timespec="seconds")
        lines.append(f"# generated = {stamp}")
    lines += [f"# {key} = {value}" for key, value in pairs]
    return lines


def _meta_dict(args, pairs):
    meta = {"command": args.command}
    if not args.no_timestamp:
        meta["generated"] = _dt.datetime.now().isoformat(timespec="seconds")
    meta.update({key: value for key, value in pairs})
    return meta


def _write_csv(handle, meta_lines, header, rows):
    for line in meta_lines:
        handle.write(line + "\n")
    handle.write(",".join(header) + "\n")
    for row in rows:
        handle.write(",".join(_fmt(v) for v in row) + "\n")


def _parse_range(text, log=False, angles=False):
    """Parse ``start:stop:count`` into an array, optionally log spaced."""
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"range must look like start:stop:count, got {text!r}")
    start = parse_angle(parts[0]) if angles else float(parts[0])
    stop = parse_angle(parts[1]) if angles else float(parts[1])
    count = int(parts[2])
    if count < 2:
        raise ValueError(f"range needs at least 2 points, got {count}")
    if log:
        if start <= 0.0 or stop <= 0.0:
            raise ValueError("log range endpoints must be positive")
        return np.logspace(math.log10(start), math.log10(stop), count)
    return np.linspace(start, stop, count)


def cmd_report(args):
    run = _build_run_config(args)
    numeric = heralding_report(run.jsa, run.herald_filter, spec=run.spec)
    closed = None
    if isinstance(run.jsa, DoubleGaussianJsa):
        if isinstance(run.herald_filter, GaussianFilter):
            closed = closed_form_report(run.jsa, run.herald_filter)
        elif run.herald_filter is None:
            k = schmidt_number(run.jsa)
            closed = {"purity_unfiltered": 1.0 / k, "schmidt_number": k,
                      "g2": 1.0 + 1.0 / k}

    if run.herald_filter is None:
        names = ["purity_unfiltered", "schmidt_number", "g2"]
    else:
        names = ["success", "purity_filtered", "purity_unfiltered",
                 "schmidt_number", "g2", "visibility"]

    def closed_value(name):
        if closed is None:
            return None
        if isinstance(closed, dict):
            return closed.get(name)
        if name == "purity_unfiltered":
            return 1.0 / closed.schmidt_number
        return getattr(closed, name)

    rows = []
    for name in names:
        reference = closed_value(name)
        value = getattr(numeric, name)
        difference = None if reference is None else abs(reference - value)
        rows.append((name, reference, value, difference))

    with _open_output(args) as handle:
        if args.format == "json":
            payload = {
                "meta": _meta_dict(args, []),
                "quantities": {
                    name: {
                        "analytic": reference,
                        "quadrature": value,
                        "difference": difference,
                    }
                    for name, reference, value, difference in rows
                },
            }
            json.dump(payload, handle, indent=2)
            handle.write("\n")
        else:
            for line in _meta_lines(args, []):
                handle.write(line + "\n")
            handle.write("quantity,analytic,quadrature,difference\n")
            for name, reference, value, difference in rows:
                left = _fmt(reference) if reference is not None else ""
                diff = _fmt(difference) if difference is not None else ""
                handle.write(f"{name},{left},{_fmt(value)},{diff}\n")
    return 0


def cmd_sweep(args):
    pairs = [("kind", args.kind)]
    if args.kind == "aspect":
        ratios = _parse_range(args.ratios) if args.ratios else None
        widths = _parse_range(args.widths, log=True) if args.widths else None
        theta1 = parse_angle(args.theta1)
        theta2 = parse_angle(args.theta2)
        pairs += [("theta1", _fmt(theta1)), ("theta2", _fmt(theta2))]
        grid = sweep_aspect_ratio(ratios=ratios, filter_widths=widths,
                                  theta1=theta1, theta2=theta2)
        payload = grid_to_dict(grid)
        header, rows = grid_to_rows(grid)
    elif args.kind == "orientation":
        thetas = _parse_range(args.thetas, angles=True) if args.thetas else None
        widths = _parse_range(args.widths, log=True) if args.widths else None
        pairs += [("ratio", _fmt(args.ratio))]
        grid = sweep_orientation(theta1_values=thetas, filter_widths=widths,
                                 ratio=args.ratio)
        payload = grid_to_dict(grid)
        header, rows = grid_to_rows(grid)
    else:
        run = _build_run_config(args)
        if not isinstance(run.jsa, DoubleGaussianJsa):
            raise ValueError("tradeoff sweeps need a parametric jsa config")
        widths = _parse_range(args.widths, log=True) if args.widths else None
        pairs += [
            ("sigma1", _fmt(run.jsa.sigma1)),
            ("sigma2", _fmt(run.jsa.sigma2)),
            ("theta1", _fmt(run.jsa.theta1)),
            ("theta2", _fmt(run.jsa.theta2)),
            ("two_filters", str(bool(args.two_filters)).lower()),
        ]
        points = tradeoff_curve(run.jsa, filter_widths=widths,
                                two_filter=args.two_filters, spec=run.spec)
        payload = tradeoff_to_dict(points)
        header, rows = tradeoff_to_rows(points)

    with _open_output(args) as handle:
        if args.format == "json":
            json.dump({"meta": _meta_dict(args, pairs), "data": payload},
                      handle, indent=2)
            handle.write("\n")
        else:
            _write_csv(handle, _meta_lines(args, pairs), header, rows)
    return 0


def cmd_hom(args):
    run = _build_run_config(args)
    if run.herald_filter is None:
        raise ValueError("hom needs a herald filter (config or --filter-width)")
    if args.tau_max is not None:
        tau_max = args.tau_max
    elif isinstance(run.jsa, DoubleGaussianJsa):
        a, _, _ = run.jsa.intensity_coefficients()
        tau_max = 4.0 * math.sqrt(2.0 * a)
    else:
        raise ValueError("gridded amplitudes need an explicit --tau-max")
    delays = np.linspace(-tau_max, tau_max, args.tau_points)
    reflectivity = args.reflectivity
    transmissivity = 1.0 - reflectivity
    curve = hom_dip(run.jsa, run.herald_filter, run.herald_filter, delays,
                    reflectivity=reflectivity, transmissivity=transmissivity,
                    spec=run.spec)

    closed = None
    if (isinstance(run.jsa, DoubleGaussianJsa)
            and isinstance(run.herald_filter, GaussianFilter)):
        from .analytic import hom_dip_analytic

        purity = closed_form_purity(run.jsa, run.herald_filter)
        closed = hom_dip_analytic(run.jsa, purity, delays,
                                  reflectivity=reflectivity,
                                  transmissivity=transmissivity)

    baseline = 1.0 - 2.0 * reflectivity * transmissivity
    pairs = [
        ("reflectivity", _fmt(reflectivity)),
        ("transmissivity", _fmt(transmissivity)),
        ("baseline", _fmt(baseline)),
        ("dip_minimum", _fmt(curve.coincidences.min())),
        ("visibility", _fmt(curve.visibility(reflectivity, transmissivity))),
    ]
    header = ["delay_ps", "coincidence"]
    columns = [curve.delays, curve.coincidences]
    if closed is not None:
        header.append("closed_form")
        columns.append(closed.coincidences)
    rows = zip(*columns)
    with _open_output(args) as handle:
        _write_csv(handle, _meta_lines(args, pairs), header, rows)
    return 0


def cmd_schmidt(args):
    run = _build_run_config(args)
    if isinstance(run.jsa, DoubleGaussianJsa):
        extent, points = recommended_grid(run.jsa)
        if args.extent is not None:
            extent = args.extent
        if args.grid_n is not None:
            points = args.grid_n
        gridded = discretize(run.jsa, half_extent=extent, n_points=points)
        k_reference = schmidt_number(run.jsa)
    else:
        gridded = run.jsa
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
    run = _build_run_config(args)
    solution = solve_filter_for_target(
        run.jsa,
        target_purity=args.target_purity,
        target_visibility=args.target_visibility,
        tolerance=args.tol,
    )
    pairs = [
        ("sigma_f", _fmt(solution.sigma_f)),
        ("purity", _fmt(solution.purity)),
        ("success", _fmt(solution.success)),
        ("visibility", _fmt(solution.visibility)),
        ("method", solution.method),
        ("iterations", str(solution.iterations)),
    ]
    if isinstance(run.jsa, DoubleGaussianJsa):
        pairs.insert(1, ("sigma_f_over_sigma1",
                         _fmt(solution.sigma_f / run.jsa.sigma1)))
    with _open_output(args) as handle:
        if args.format == "json":
            payload = _meta_dict(args, pairs)
            json.dump(payload, handle, indent=2)
            handle.write("\n")
        else:
            for key, value in pairs:
                handle.write(f"{key},{value}\n")
    return 0


def _add_common(parser, formats=("csv", "json"), default_format="csv"):
    parser.add_argument("--config", help="path to a JSON configuration file")
    parser.add_argument("--nodes", type=int,
                        help="baseline quadrature nodes per axis")
    parser.add_argument("--extent", type=float,
                        help="integration window half-extent / grid extent")
    parser.add_argument("--output", help="write output to this path")
    parser.add_argument("--format", choices=formats, default=default_format,
                        help="output format")
    parser.add_argument("--no-timestamp", action="store_true",
                        help="omit the generation timestamp for diffable output")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="heraldpurity",
        description="heralded-photon purity and heralding statistics for "
                    "filtered pair sources",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_report = sub.add_parser("report", help="scalar figures of merit")
    _add_common(p_report, formats=("text", "json"), default_format="text")
    p_report.add_argument("--filter-width", type=float,
                          help="use a centered Gaussian herald of this width")
    p_report.set_defaults(func=cmd_report)

    p_sweep = sub.add_parser("sweep", help="parameter sweeps")
    p_sweep.add_argument("kind", choices=("aspect", "orientation", "tradeoff"))
    _add_common(p_sweep)
    p_sweep.add_argument("--ratios", help="aspect ratios as start:stop:count")
    p_sweep.add_argument("--thetas",
                         help="orientation angles as start:stop:count")
    p_sweep.add_argument("--widths",
                         help="filter widths as start:stop:count (log spaced)")
    p_sweep.add_argument("--theta1", default="pi/4",
                         help="first ridge tilt for aspect sweeps")
    p_sweep.add_argument("--theta2", default="-pi/4",
                         help="second ridge tilt for aspect sweeps")
    p_sweep.add_argument("--ratio", type=float, default=5.0,
                         help="fixed width ratio for orientation sweeps")
    p_sweep.add_argument("--two-filters", action="store_true",
                         help="tradeoff sweeps filter both arms")
    p_sweep.set_defaults(func=cmd_sweep)

    p_hom = sub.add_parser("hom", help="two-source interference dip")
    _add_common(p_hom, formats=("csv",))
    p_hom.add_argument("--filter-width", type=float,
                       help="use a centered Gaussian herald of this width")
    p_hom.add_argument("--tau-max", type=float,
                       help="largest delay magnitude in ps")
    p_hom.add_argument("--tau-points", type=int, default=201,
                       help="number of delay samples")
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
    p_solve.add_argument("--tol", type=float, default=1e-4,
                         help="acceptable purity distance from the target")
    p_solve.set_defaults(func=cmd_solve_filter)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except NumericalError as exc:
        print(json.dumps({"error": "numerical", "message": str(exc)}),
              file=sys.stderr)
        return 3
    except (ValueError, TypeError, KeyError, OSError,
            json.JSONDecodeError) as exc:
        print(json.dumps({"error": "config", "message": str(exc)}),
              file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
