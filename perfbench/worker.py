"""Run one pass of a workload in a fresh interpreter and report it as JSON.

Usage: ``python3 worker.py SPEC_JSON RESULT_JSON [SPANS_CSV]``.  The spec
names the workload, the package's ``src`` directory and the pass inputs.
With a spans path the pass is traced and its spans are appended there.
"""

from __future__ import annotations

import contextlib
import ctypes
import hashlib
import json
import math
import os
import resource
import sys
import time
import traceback

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402


class Pass:
    """Closed-loop task recorder: times each task and applies the checks."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.tasks = []
        self.route_dev = 0.0
        self.outputs = {}
        self.failures = []

    def task(self, name, fn, *args, **kwargs):
        """Run one task; returns its result, or None if it raised."""
        if self.tracer is not None:
            self.tracer.task = len(self.tasks)
        entry = {"name": name, "ok": True}
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except Exception:
            result = None
            entry["ok"] = False
            self.failures.append(f"{name}: {traceback.format_exc(limit=3)}")
        entry["latency_s"] = time.perf_counter() - start
        self.tasks.append(entry)
        return result

    def check(self, deviation, tolerance, message, route=True):
        """Fail the last task when ``deviation`` exceeds ``tolerance``."""
        if route and math.isfinite(deviation):
            self.route_dev = max(self.route_dev, deviation)
        if not deviation <= tolerance:
            last = self.tasks[-1]
            if last["ok"]:
                last["ok"] = False
                self.failures.append(
                    f"{last['name']}: {message} ({deviation:.3e} > {tolerance:.0e})")

    @contextlib.contextmanager
    def untraced(self):
        """Keep calls a check makes into the package out of the trace."""
        if self.tracer is None:
            yield
            return
        self.tracer.paused = True
        try:
            yield
        finally:
            self.tracer.paused = False

    def output(self, kind, body):
        self.outputs.setdefault(kind, []).append(
            {"sha256": hashlib.sha256(body).hexdigest(), "bytes": len(body)})


def blas_threads():
    """Threads the loaded OpenBLAS reports, or None when it cannot be asked."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as handle:
            paths = {line.split()[-1] for line in handle if "openblas" in line}
    except OSError:
        return None
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def cpu_seconds():
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def main(argv):
    with open(argv[1], encoding="utf-8") as handle:
        spec = json.load(handle)
    sys.path.insert(0, spec["src"])
    import heraldpurity
    import heraldpurity.cli  # noqa: F401  (the runners call hp.cli)

    module_dir = os.path.dirname(os.path.abspath(heraldpurity.__file__))
    if os.path.dirname(module_dir) != os.path.abspath(spec["src"]):
        raise SystemExit(f"heraldpurity imported from {module_dir}, "
                         f"not from {spec['src']}")
    tracer = Tracer() if len(argv) > 3 else None
    if tracer is not None:
        tracer.install(heraldpurity)
    rec = Pass(tracer)
    runner = workloads.RUNNERS[spec["workload"]]
    cpu0, loop0 = cpu_seconds(), time.perf_counter()
    runner(heraldpurity, spec["inputs"], rec)
    loop, cpu = time.perf_counter() - loop0, cpu_seconds() - cpu0
    result = {
        "tasks": rec.tasks,
        "wall_s": sum(t["latency_s"] for t in rec.tasks),
        "loop_s": loop,
        "cpu_s": cpu,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "route_dev_max": rec.route_dev,
        "failures": rec.failures,
        "outputs": rec.outputs,
        "blas_threads": blas_threads(),
    }
    if tracer is not None:
        tracer.uninstall()
        result["trace"] = tracer.summary()
        with open(argv[3], "a", encoding="utf-8") as handle:
            for row in tracer.rows():
                handle.write(f"{spec['pass']},{result['blas_threads']},"
                             + ",".join(map(str, row)) + "\n")
    with open(argv[2], "w", encoding="utf-8") as handle:
        json.dump(result, handle)


if __name__ == "__main__":
    main(sys.argv)
