"""Timing spans around the functions of each annulab module.

The tracer replaces module attributes (and the methods of classes defined
in the module) in place with timing wrappers, so bare-name calls inside a
module are caught as well as calls from other modules.  `restore` puts the
originals back and checks that it did.  Spans (name, start, end, parent,
operation id) are kept in memory; the per-layer metrics below are computed
from them and the raw spans are written out when the benchmark ends.

A layer's self time is the time its spans cover minus the part of that
interval their child spans cover.  Work done inside numpy, scipy or mpmath
counts as self time of the annulab layer that called it.
"""

from __future__ import annotations

import functools
import inspect
import time
from collections import defaultdict

LAYERS = ("cli", "perturb", "auditors", "estimates", "geometry", "heatkernel",
          "radial", "bases", "spectral2d", "numerics", "specfun")

SPARSE = ("numerics.sparse_smallest_eigenpairs",)
TRIDIAG = ("numerics.tridiag_smallest_eigenpairs",)
KERNEL = ("heatkernel.kernel_eval", "heatkernel.kernel_matrix",
          "heatkernel.normalized_kernel_matrix", "heatkernel.normalized_kernel_value")
MPMATH = ("specfun._series_mpmath",)
WRITE = ("cli._write_csv", "cli._write_summary")

# metric -> span names; the value is the time covered by the outermost of them.
TIMES = {
    "numerics.sparse_s": SPARSE,
    "numerics.tridiag_s": TRIDIAG,
    "heatkernel.kernel_s": KERNEL,
    "heatkernel.spectrum_s": ("heatkernel.box_spectrum", "heatkernel.interval_spectrum"),
    "heatkernel.tail_s": ("heatkernel.Spectrum.tail_bound",),
    "specfun.mpmath_s": MPMATH,
    "cli.write_s": WRITE,
}
# metric -> span names; the value is the number of outermost such spans.
CALLS = {
    "numerics.sparse_calls": SPARSE,
    "numerics.tridiag_calls": TRIDIAG,
    "spectral2d.solves": ("spectral2d._assemble_and_solve",),
    "radial.solves": ("radial.solve_radial", "radial.solve_radial_weighted"),
    "geometry.ball_measure_calls": ("geometry.ball_measure", "geometry.AnnulusModel.ball_measure",
                                    "geometry.IntervalModel.ball_measure"),
    "specfun.mpmath_rescues": MPMATH,
}
# metric -> (span names, counter); the counter summed over the outermost spans.
COUNTERS = {
    "numerics.sparse_dim": (SPARSE, "dim"),
    "numerics.sparse_nnz": (SPARSE, "nnz"),
    "spectral2d.unknowns": (("spectral2d._assemble_and_solve",), "unknowns"),
    "heatkernel.mode_samples": (KERNEL, "mode_samples"),
    "cli.bytes_written": (WRITE, "bytes"),
}
SELF = tuple(f"{layer}.self_s" for layer in LAYERS)

# specfun.calls counts calls into specfun from outside it.
METRICS = (*TIMES, *CALLS, *COUNTERS, *SELF, "specfun.calls")
UNITS = {m: "s" if m.endswith("_s") else "bytes" if m == "cli.bytes_written" else "count"
         for m in METRICS}


def _mode_samples(spectrum, t, points, *args, **kwargs):
    return {"mode_samples": spectrum.count * len(points)}


# Counters read from a call's arguments once it has returned.
PROBES = {
    "numerics.sparse_smallest_eigenpairs": lambda op, *a, **k: {
        "dim": op.dimension, "nnz": 0 if op.matrix is None else op.matrix.nnz},
    "spectral2d._assemble_and_solve": lambda mask, *a, **k: {"unknowns": int(mask.sum())},
    "heatkernel.kernel_eval": lambda spectrum, t, x, y, *a, **k: {
        "mode_samples": 2 * spectrum.count},
    "heatkernel.normalized_kernel_value": lambda spectrum, t, x, y, *a, **k: {
        "mode_samples": 2 * spectrum.count},
    "heatkernel.kernel_matrix": _mode_samples,
    "heatkernel.normalized_kernel_matrix": _mode_samples,
    "cli._write_csv": lambda path, *a, **k: {"bytes": path.stat().st_size},
    "cli._write_summary": lambda path, *a, **k: {"bytes": path.stat().st_size},
}


class Tracer:
    """Span recorder; `install` patches the given modules, `restore` undoes it."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, op_id, counters]
        self.op_id = ""
        self._stack: list[int] = []
        self._patched: list[tuple] = []  # (owner, attribute, original)

    def span(self, name: str, fn, *args, **kwargs):
        """Run fn inside a span called `name` and return its result."""
        spans, stack = self.spans, self._stack
        idx = len(spans)
        rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op_id, None]
        spans.append(rec)
        stack.append(idx)
        rec[1] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            rec[2] = time.perf_counter()
            stack.pop()
        probe = PROBES.get(name)
        if probe is not None:
            rec[5] = probe(*args, **kwargs)
        return result

    def _wrap(self, name: str, fn):
        span = self.span

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return span(name, fn, *args, **kwargs)

        return traced

    def install(self, modules) -> None:
        for mod in modules:
            layer = mod.__name__.rsplit(".", 1)[-1]
            for attr, obj in list(vars(mod).items()):
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    self._patch(mod, attr, obj, f"{layer}.{attr}")
                elif inspect.isclass(obj):
                    for meth, fn in list(vars(obj).items()):
                        if inspect.isfunction(fn) and not meth.startswith("__"):
                            self._patch(obj, meth, fn, f"{layer}.{attr}.{meth}")

    def _patch(self, owner, attr, original, name) -> None:
        setattr(owner, attr, self._wrap(name, original))
        self._patched.append((owner, attr, original))

    def restore(self) -> int:
        """Put every original back; return how many attributes were restored."""
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        bad = [f"{getattr(o, '__name__', o)}.{a}" for o, a, orig in self._patched
               if vars(o).get(a) is not orig]
        count = len(self._patched)
        self._patched.clear()
        if bad:
            raise RuntimeError(f"tracer left patched attributes: {bad}")
        return count

    def metrics(self, op_ids: set[str]) -> dict[str, float]:
        """Per-layer metrics over the spans whose operation id is in op_ids."""
        spans = self.spans
        chosen = [i for i, s in enumerate(spans) if s[4] in op_ids]
        child = defaultdict(float)
        for i in chosen:
            parent = spans[i][3]
            if parent >= 0:
                child[parent] += spans[i][2] - spans[i][1]

        def outermost(names):
            names = set(names)
            for i in chosen:
                if spans[i][0] not in names:
                    continue
                p = spans[i][3]
                while p >= 0 and spans[p][0] not in names:
                    p = spans[p][3]
                if p < 0:
                    yield spans[i]

        out = {}
        for metric, names in TIMES.items():
            out[metric] = sum(s[2] - s[1] for s in outermost(names))
        for metric, names in CALLS.items():
            out[metric] = sum(1 for _ in outermost(names))
        for metric, (names, key) in COUNTERS.items():
            out[metric] = sum((s[5] or {}).get(key, 0) for s in outermost(names))
        self_time = defaultdict(float)
        out["specfun.calls"] = 0
        for i in chosen:
            name, start, end, parent = spans[i][:4]
            layer = name.split(".", 1)[0]
            self_time[layer] += end - start - child[i]
            if layer == "specfun" and (parent < 0 or not spans[parent][0].startswith("specfun.")):
                out["specfun.calls"] += 1
        for layer in LAYERS:
            out[f"{layer}.self_s"] = self_time[layer]
        return out

    def dump(self) -> list[dict]:
        return [{"name": s[0], "start": s[1], "end": s[2], "parent": s[3], "op": s[4],
                 **({"counters": s[5]} if s[5] else {})} for s in self.spans]
