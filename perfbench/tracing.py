"""In-memory spans around the package's public functions.

``Tracer.install`` wraps every public function of the six heraldpurity
modules at every place the package (or the benchmark) looks it up, plus
numpy's ``leggauss`` that ``quadrature`` calls for node generation.  Nothing
in the package changes on disk; the wrappers live only in the traced
process.  Each call records a span ``(id, parent, task, layer, name, start,
end)``; ``summary`` derives per-layer busy and self time and the work counts
read from public return values.
"""

from __future__ import annotations

import time
from collections import defaultdict

LAYERS = ("core", "analytic", "quadrature", "schmidt", "sweep", "cli")
NODES = ("numpy", "leggauss")
CONTRACT = ("overlap_matrix", "schmidt_quantities", "two_filter_schmidt")


def _svd_flop(shape, is_complex):
    """Computed flops of a thin SVD with both singular-vector sets.

    Golub-Reinsch count for an m x n matrix with m >= n, returning
    Sigma, U1 and V: ``14*m*n**2 + 8*n**3`` (Golub & Van Loan, Matrix
    Computations, 3rd ed., Fig. 5.4.1).  A complex flop counts as four real
    ones.  This is computed from the shape, not measured.
    """
    m, n = max(shape), min(shape)
    return (14.0 * m * n * n + 8.0 * n**3) * (4.0 if is_complex else 1.0)


def _work(layer, name, args, kwargs, result):
    """Work counts read from a call's public arguments and return value."""
    if (layer, name) == ("schmidt", "decompose"):
        amps = args[0].amplitudes
        return {"grid_n": max(amps.shape), "triplets": min(amps.shape),
                "kept": result.n_modes,
                "flop": _svd_flop(amps.shape, amps.dtype.kind == "c")}
    if (layer, name) == ("core", "discretize"):
        return {"samples": result.amplitudes.size}
    if (layer, name) == ("quadrature", "hom_dip"):
        return {"delays": result.delays.size}
    if (layer, name) in (("sweep", "sweep_aspect_ratio"),
                         ("sweep", "sweep_orientation")):
        return {"points": result.purity.size}
    if (layer, name) == ("sweep", "tradeoff_curve"):
        return {"points": len(result)}
    if (layer, name) == ("sweep", "solve_filter_for_target"):
        return {"iterations": result.iterations}
    return None


class Tracer:
    """Span recorder whose wrappers replace the package's public functions."""

    def __init__(self):
        self.spans = []
        self.work = []
        self.errors = defaultdict(int)
        self.overhead_s = 0.0
        self.task = -1
        self.paused = False
        self._stack = []
        self._patched = []

    def _wrap(self, fn, layer, name):
        clock = time.perf_counter
        spans, stack, work = self.spans, self._stack, self.work

        def traced(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            t_in = clock()
            span_id = len(spans)
            parent = stack[-1] if stack else -1
            stack.append(span_id)
            spans.append(None)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                self.errors[layer] += 1
                raise
            finally:
                end = clock()
                stack.pop()
                spans[span_id] = (span_id, parent, self.task, layer, name,
                                  start, end)
                self.overhead_s += (start - t_in) + (clock() - end)
            t_out = clock()
            counts = _work(layer, name, args, kwargs, result)
            if counts is not None:
                work.append((layer, name, counts))
            self.overhead_s += clock() - t_out
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self, package):
        """Wrap public functions wherever package modules refer to them."""
        import numpy.polynomial.legendre as legendre

        modules = [getattr(package, layer) for layer in LAYERS]
        wrappers = {}
        for layer, module in zip(LAYERS, modules):
            for name in module.__all__:
                fn = getattr(module, name)
                if callable(fn) and not isinstance(fn, type):
                    wrappers[id(fn)] = self._wrap(fn, layer, name)
        for module in [package] + modules:
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers:
                    self._patch(module, attr, wrappers[id(value)])
        self._patch(legendre, "leggauss",
                    self._wrap(legendre.leggauss, *NODES))

    def _patch(self, owner, attr, value):
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        """Restore every replaced attribute."""
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def rows(self):
        """Spans as CSV-ready rows, in start order of their calls."""
        return [span for span in self.spans if span is not None]

    def summary(self):
        """Per-layer busy and self seconds and work counts for this pass.

        A layer's busy time is the summed duration of its spans that have
        no ancestor span of the same layer.  Its self time is the summed
        duration of all its spans minus the parts covered by their direct
        child spans.
        """
        spans = self.rows()
        by_id = {span[0]: span for span in spans}
        child_time = defaultdict(float)
        for span in spans:
            if span[1] >= 0:
                child_time[span[1]] += span[6] - span[5]
        busy = defaultdict(float)
        self_time = defaultdict(float)
        calls = defaultdict(int)
        for span in spans:
            span_id, parent, _, layer, name, start, end = span
            duration = end - start
            self_time[layer] += duration - child_time[span_id]
            self_time[f"{layer}.{name}"] += duration - child_time[span_id]
            calls[layer] += 1
            calls[f"{layer}.{name}"] += 1
            ancestor = parent
            nested = False
            while ancestor >= 0:
                if by_id[ancestor][3] == layer:
                    nested = True
                    break
                ancestor = by_id[ancestor][1]
            if not nested:
                busy[layer] += duration
                busy[f"{layer}.{name}"] += duration
                if layer == "schmidt" and name in CONTRACT:
                    busy["schmidt.contract"] += duration
        totals = defaultdict(float)
        for layer, name, counts in self.work:
            for key, value in counts.items():
                if key == "grid_n":
                    totals[f"{layer}.{name}.{key}"] = max(
                        totals[f"{layer}.{name}.{key}"], value)
                else:
                    totals[f"{layer}.{name}.{key}"] += value
        return {"busy": dict(busy), "self": dict(self_time),
                "calls": dict(calls), "work": dict(totals),
                "errors": dict(self.errors), "overhead_s": self.overhead_s}
