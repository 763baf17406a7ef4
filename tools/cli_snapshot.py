"""Snapshot the command line outputs for a byte-identity check.

Usage::

    PYTHONPATH=src python tools/cli_snapshot.py OUTDIR

Writes eighteen configs under ``OUTDIR`` (the demo source, the KTP source,
the demo with a detuned filter, the demo without a filter, a 128-point
gridded copy of the demo as CSV, that copy with extra jsa keys, the demo
with a boolean filter width, the demo behind a tabulated box herald, the
demo behind a table with boolean and string entries, a K = 30 source, the
gridded copy with its last signal frequency NaN, the demo behind a
herald 500 rad/ps away that passes nothing, the demo behind two
three-knot tables peaking at 1 + 5e-13 and at 1.5, the demo behind a
two-knot box on [-1, 1], a jsa section that is a number, the demo with a
filter section that is a string, and a ``csv_path`` that is a number),
then runs a fixed list of 106
``heraldpurity.cli`` invocations with ``--no-timestamp``, each
in a fresh interpreter with ``OPENBLAS_NUM_THREADS=1`` and the caller's
``PYTHONPATH``.  Every run leaves ``NN.stdout``, ``NN.stderr`` and ``NN.code`` in ``OUTDIR``, and
``index.json`` lists the argument vectors.  The runs use ``OUTDIR`` as
their working directory and name the configs by relative path, so no
output embeds a location: two snapshots taken with different
``PYTHONPATH`` settings compare with ``diff -r``.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np

import heraldpurity as hp

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
}


def write_inputs(outdir):
    """Write the JSON configs and the gridded demo amplitude as CSV."""
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
    ]
    return [run + ["--no-timestamp"] for run in runs]


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        print("usage: cli_snapshot.py OUTDIR", file=sys.stderr)
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
