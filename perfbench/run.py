"""Benchmark of heraldpurity's three routes: one closed-loop client.

Usage (from the repository root)::

    python3 perfbench/run.py --workload three-route --seed 1 --seconds 20 --trace 0

A run makes as many passes as fill ``--seconds`` at the workload's nominal
pass time on a 2-CPU machine, and between them times fresh interpreters
importing the package (set-up time).  Each pass is a fresh worker
process that runs the workload's task list once, one task after another,
on inputs drawn from ``(seed, workload, pass)``, or from pass 0 for the
workloads in ``workloads.SHARED_INPUTS``; files it reads are written
before the first pass that reads them and are not timed.  BLAS runs on
one thread.
``--trace 1`` instead runs traced passes, first with one BLAS thread and
then with one per usable CPU as the multi-threaded reference, and reports
per-layer metrics.

The last line of standard output is the result: ``correct``, ``attempted``,
``failed`` and ``metrics``.  The line before it holds the full record:
environment, tail percentile and count, failures and input and output
digests.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402

ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
MIN_PASSES = 3
SETUP_REPEATS = 9
PASS_TIMEOUT_S = 150
TAIL_BEYOND = 10
# On a 2-CPU host a second BLAS thread roughly doubles CPU time for a wall
# gain of 10% or less, and a sibling thread held up by the host stalls the
# other one, so task times follow the host's load.  Timed passes use one.
BLAS_THREADS = 1


class BenchError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


def child_env(threads):
    env = dict(os.environ)
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = str(threads)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def time_import(threads):
    """Wall time of a fresh interpreter importing the package and its CLI."""
    argv = [sys.executable, "-c", "import heraldpurity, heraldpurity.cli"]
    start = time.perf_counter()
    done = subprocess.run(argv, env=child_env(threads), cwd=ROOT,
                          capture_output=True, timeout=60)
    elapsed = time.perf_counter() - start
    if done.returncode != 0:
        raise BenchError("importing heraldpurity failed: "
                         + done.stderr.decode(errors="replace")[-500:])
    return elapsed


def run_pass(workload, seed, index, threads, workdir, prepared, spans=None):
    """Prepare, run and collect one pass in a fresh worker process.

    ``prepared`` maps input digests to inputs whose files are written, so
    passes with the same inputs share them.
    """
    inputs = workloads.generate(workload, seed, index)
    input_digest = workloads.digest(inputs)
    if input_digest not in prepared:
        data_dir = tempfile.mkdtemp(prefix="inputs-", dir=workdir)
        prepared[input_digest] = workloads.prepare(workload, inputs, data_dir)
    pass_dir = os.path.join(workdir, f"pass-{index}")
    os.makedirs(pass_dir)
    spec = {"workload": workload, "src": SRC, "pass": index,
            "inputs": prepared[input_digest]}
    spec_path = os.path.join(pass_dir, "spec.json")
    result_path = os.path.join(pass_dir, "result.json")
    with open(spec_path, "w", encoding="utf-8") as handle:
        json.dump(spec, handle)
    argv = [sys.executable, os.path.join(HERE, "worker.py"), spec_path,
            result_path] + ([spans] if spans else [])
    done = subprocess.run(argv, env=child_env(threads), cwd=ROOT,
                          capture_output=True, timeout=PASS_TIMEOUT_S)
    if done.returncode != 0:
        raise BenchError(f"pass {index} worker exited {done.returncode}: "
                         + done.stderr.decode(errors="replace")[-2000:])
    with open(result_path, encoding="utf-8") as handle:
        result = json.load(handle)
    shutil.rmtree(pass_dir)
    result["input_sha256"] = input_digest
    return result


def run_passes(workload, seed, seconds, threads, workdir, spans=None,
               setup=None):
    """Run the pass count that fills ``seconds`` at the workload's nominal pace.

    The count depends only on ``seconds``, so every run of a workload has
    the same number of tasks and its tail is the same percentile.  When a
    ``setup`` list is given, ``SETUP_REPEATS`` import timings spread evenly
    between the passes are appended to it, after one untimed import that
    also writes bytecode caches.
    """
    count = max(MIN_PASSES,
                round(seconds / workloads.PASS_SECONDS[workload]))
    if setup is not None:
        time_import(threads)
    results, prepared = [], {}
    for index in range(count):
        if setup is not None:
            setup += [time_import(threads) for j in range(SETUP_REPEATS)
                      if j * count // SETUP_REPEATS == index]
        results.append(run_pass(workload, seed, index, threads, workdir,
                                prepared, spans))
    return results


def tail(latencies):
    """(value, percentile, count): the highest percentile with ten beyond.

    With ``n`` sorted latencies this is the sample at rank ``n - 10``, the
    ``100 * (n - 10) / n`` percentile.  With twenty or fewer samples that
    rank is not above the median, and the largest sample is taken instead.
    """
    ordered = sorted(latencies)
    rank = len(ordered) - TAIL_BEYOND if len(ordered) > 2 * TAIL_BEYOND \
        else len(ordered)
    return ordered[rank - 1], 100.0 * rank / len(ordered), len(ordered)


def counts(results):
    tasks = [task for result in results for task in result["tasks"]]
    return len(tasks), sum(not task["ok"] for task in tasks)


def end_to_end(results, setup_s):
    latencies = [task["latency_s"] for result in results
                 for task in result["tasks"]]
    tail_s, percentile, n = tail(latencies)
    metrics = {
        "setup_s": (setup_s, "s"),
        # Passes differ by design (inputs stratified across them), so the
        # mean over the run, not the median, is the steady time to solution.
        "wall_s": (statistics.fmean(r["wall_s"] for r in results), "s"),
        "task_p50_ms": (1e3 * statistics.median(latencies), "ms"),
        "task_tail_ms": (1e3 * tail_s, "ms"),
        "peak_rss_mb": (statistics.median(r["peak_rss_kb"] for r in results)
                        / 1024.0, "MB"),
    }
    return metrics, {"tail_percentile": percentile, "tail_tasks": n}


def _median_of(results, section, key):
    return statistics.median(r["trace"][section].get(key, 0.0) for r in results)


def _sum_of(results, section, key):
    return sum(r["trace"][section].get(key, 0.0) for r in results)


def _ratio(numerator, denominator):
    return numerator / denominator if denominator else 0.0


def per_layer(traced, reference):
    """Per-layer metrics: busy and self seconds per pass, counts, rates."""
    m = {}
    for layer in ("core", "analytic", "quadrature", "schmidt", "sweep", "cli"):
        m[f"{layer}.busy_s"] = (_median_of(traced, "busy", layer), "s")
        m[f"{layer}.self_s"] = (_median_of(traced, "self", layer), "s")
        m[f"{layer}.errors"] = (
            sum(r["trace"]["errors"].get(layer, 0) for r in traced), "count")
    m["analytic.calls"] = (_median_of(traced, "calls", "analytic"), "count")
    m["quadrature.nodes_s"] = (_median_of(traced, "busy", "numpy.leggauss"), "s")
    m["quadrature.node_sets"] = (
        _median_of(traced, "calls", "numpy.leggauss"), "count")
    m["core.discretize.busy_s"] = (
        _median_of(traced, "busy", "core.discretize"), "s")
    m["core.discretize.samples"] = (
        _median_of(traced, "work", "core.discretize.samples"), "count")
    m["schmidt.decompose.busy_s"] = (
        _median_of(traced, "busy", "schmidt.decompose"), "s")
    m["schmidt.decompose.calls"] = (
        _median_of(traced, "calls", "schmidt.decompose"), "count")
    m["schmidt.decompose.grid_n_max"] = (
        max(r["trace"]["work"].get("schmidt.decompose.grid_n", 0)
            for r in traced), "points")
    m["schmidt.decompose.kept_ratio"] = (_ratio(
        _sum_of(traced, "work", "schmidt.decompose.kept"),
        _sum_of(traced, "work", "schmidt.decompose.triplets")), "ratio")
    m["schmidt.decompose.gflop_computed"] = (
        _median_of(traced, "work", "schmidt.decompose.flop") / 1e9, "Gflop")
    m["schmidt.contract.busy_s"] = (
        _median_of(traced, "busy", "schmidt.contract"), "s")
    m["quadrature.hom_dip.us_per_delay"] = (1e6 * _ratio(
        _sum_of(traced, "busy", "quadrature.hom_dip"),
        _sum_of(traced, "work", "quadrature.hom_dip.delays")), "us")
    m["sweep.points"] = (statistics.median(
        sum(v for k, v in r["trace"]["work"].items()
            if k.startswith("sweep.") and k.endswith(".points"))
        for r in traced), "count")
    m["sweep.solver_iterations"] = (_median_of(
        traced, "work", "sweep.solve_filter_for_target.iterations"), "count")
    m["cli.main.busy_s"] = (_median_of(traced, "busy", "cli.main"), "s")
    m["cli.main.self_s"] = (_median_of(traced, "self", "cli.main"), "s")
    m["cli.bytes_written"] = (statistics.median(
        sum(o["bytes"] for outs in r["outputs"].values() for o in outs)
        for r in traced), "bytes")
    for prefix, results in (("process", traced),
                            ("reference_allcpus", reference)):
        m[f"{prefix}.wall_s"] = (
            statistics.median(r["wall_s"] for r in results), "s")
        m[f"{prefix}.cpu_s"] = (
            statistics.median(r["cpu_s"] for r in results), "s")
        m[f"{prefix}.cpu_per_wall"] = (_ratio(
            sum(r["cpu_s"] for r in results),
            sum(r["loop_s"] for r in results)), "ratio")
    m["trace.overhead_s"] = (statistics.median(
        r["trace"]["overhead_s"] for r in traced), "s")
    attempted, failed = counts(traced + reference)
    m["check.failed_share"] = (failed / attempted, "ratio")
    m["check.route_dev_max"] = (
        max(r["route_dev_max"] for r in traced + reference), "1")
    return m


def cpu_times():
    """Aggregate CPU jiffies (user, nice, system, idle, ..., steal) or None."""
    try:
        with open("/proc/stat", encoding="utf-8") as handle:
            return [int(v) for v in handle.readline().split()[1:9]]
    except (OSError, ValueError):
        return None


def steal_share(before, after):
    """Share of CPU time the hypervisor took from this machine meanwhile."""
    if before is None or after is None:
        return None
    delta = [b - a for a, b in zip(before, after)]
    return delta[7] / sum(delta) if sum(delta) else 0.0


def git_commit():
    """Commit of a git checkout, read from ``.git`` without running git."""
    try:
        with open(os.path.join(ROOT, ".git", "HEAD"), encoding="utf-8") as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        with open(os.path.join(ROOT, ".git", head[5:]), encoding="utf-8") as f:
            return f.read().strip()
    except OSError:
        return None


def environment(threads, results):
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_requested": threads,
        "blas_threads_in_effect": sorted({r["blas_threads"] for r in results
                                          if r["blas_threads"] is not None}),
        "git_commit": git_commit(),
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "heraldpurity", "__init__.py")):
        print(f"error: no package source at {SRC}", file=sys.stderr)
        return 2
    threads = BLAS_THREADS
    workdir = os.path.join(HERE, ".work", f"run-{os.getpid()}")
    os.makedirs(workdir)
    jiffies = cpu_times()
    try:
        if args.trace:
            spans = os.path.join(HERE, "out",
                                 f"spans-{args.workload}-{args.seed}.csv")
            os.makedirs(os.path.dirname(spans), exist_ok=True)
            with open(spans, "w", encoding="utf-8") as handle:
                handle.write("pass,blas_threads,span,parent,task,layer,name,"
                             "start,end\n")
            traced = run_passes(args.workload, args.seed, args.seconds / 2,
                                threads, workdir, spans)
            reference = run_passes(args.workload, args.seed, args.seconds / 2,
                                   len(os.sched_getaffinity(0)), workdir,
                                   spans)
            results = traced + reference
            metrics, extra = per_layer(traced, reference), {"spans": spans}
        else:
            setup = []
            results = run_passes(args.workload, args.seed, args.seconds,
                                 threads, workdir, setup=setup)
            metrics, extra = end_to_end(results, statistics.median(setup))
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted, failed = counts(results)
    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "environment": environment(threads, results),
        "cpu_steal_share": steal_share(jiffies, cpu_times()),
        "passes": len(results), "tasks": attempted, "failed": failed,
        "pass_wall_s": [r["wall_s"] for r in results],
        "failed_share": failed / attempted,
        "route_dev_max": max(r["route_dev_max"] for r in results),
        "input_sha256": [r["input_sha256"] for r in results],
        "output_sha256": [r["outputs"] for r in results if r["outputs"]],
        "failures": [f for r in results for f in r["failures"]][:20],
        **extra,
    }
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
