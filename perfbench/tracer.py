"""Spans around calls into xft's public functions, recorded from outside the package.

The tracer replaces each listed function with a wrapper in its own module and
in every other xft module that bound it by name (``from .x import y``), so
internal calls such as ``transform`` -> ``dft_engine.dft_forward`` are seen
too.  No file of the package changes.  Spans stay in memory until written.
"""

import functools
import importlib
import itertools
import json
import math
import sys
import time
from collections import Counter, defaultdict

# layer (xft module) -> public functions timed in the traced run
LAYERS = {
    "dft_engine": ("as_complex_signal", "dft_forward", "dft_inverse"),
    "hermite": ("asymptotic_grid", "exact_hermite_zeros", "orthonormal_basis", "scaled_hermite_sequence"),
    "kernel_dense": ("make_params", "exact_kernel", "asymptotic_kernel", "apply_kernel"),
    "transform": ("xft_forward", "xft_inverse", "frft_forward", "frft_dense_check"),
    "signals": ("sample", "reference_transform", "resolve_convention"),
    "metrics": ("max_norm_error", "leakage_mean", "peak_frequency"),
    "cli": ("main", "load_signal"),
}

FUNCTIONS = tuple(f"{layer}.{fn}" for layer, fns in LAYERS.items() for fn in fns)

# The DFT span also records its length, for the 5 N log2 N computed-flop count.
_SIZED = "dft_engine.dft_forward"


_UNITS = {"calls": "count", "self_ms": "ms", "share": "ratio", "gflop_s_computed": "GFLOP/s",
          "overhead_ratio": "ratio"}


def metric_units():
    """Every per-layer metric the traced run reports, name -> unit, in a fixed order."""
    names = [f"{fn}.{stat}" for fn in FUNCTIONS for stat in ("calls", "self_ms", "share")]
    names += [f"{_SIZED}.gflop_s_computed", "trace.overhead_ratio"]
    return {name: _UNITS[name.rsplit(".", 1)[1]] for name in names}


class Tracer:
    """Records (id, parent, name, start_ns, end_ns, size, op) spans while recording is on."""

    def __init__(self):
        self.spans = []
        self.recording = False
        self.op = 0
        self._stack = [0]
        self._ids = itertools.count(1)

    def install(self):
        """Wrap every function of LAYERS wherever an xft module binds it."""
        wrappers = {}
        for layer, fns in LAYERS.items():
            module = importlib.import_module(f"xft.{layer}")
            for fn in fns:
                original = getattr(module, fn)
                wrappers[original] = self._wrap(f"{layer}.{fn}", original)
        for name, module in list(sys.modules.items()):
            if name != "xft" and not name.startswith("xft."):
                continue
            for attr, value in list(vars(module).items()):
                if callable(value) and value in wrappers:
                    setattr(module, attr, wrappers[value])

    def _wrap(self, name, fn):
        spans, stack, ids, clock = self.spans, self._stack, self._ids, time.perf_counter_ns
        sized = name == _SIZED

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            span_id = next(ids)
            parent = stack[-1]
            stack.append(span_id)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                size = len(args[0]) if sized and args and hasattr(args[0], "__len__") else 0
                spans.append((span_id, parent, name, start, end, size, self.op))

        return traced


def write_spans(path, spans):
    with open(path, "w", encoding="utf-8") as fh:
        for span in spans:
            fh.write(json.dumps(span) + "\n")


def read_spans(path):
    with open(path, encoding="utf-8") as fh:
        return [tuple(json.loads(line)) for line in fh if line.strip()]


def layer_metrics(spans, traced_wall_s):
    """calls, self_ms and share per function, plus the DFT's computed GFLOP/s.

    Self time is a span's duration minus its direct children's; spans nest
    strictly within one thread, so children never overlap.  Span ids are
    unique within one process; spans merged from several processes carry
    distinct op numbers, and parent links are resolved per op.
    """
    child_ns = defaultdict(int)
    for span_id, parent, _, start, end, _, op in spans:
        child_ns[(op, parent)] += end - start
    calls, self_ns = Counter(), Counter()
    flops = 0.0
    for span_id, _, name, start, end, size, op in spans:
        calls[name] += 1
        self_ns[name] += end - start - child_ns[(op, span_id)]
        if name == _SIZED and size > 1:
            flops += 5.0 * size * math.log2(size)
    out = {}
    for fn in FUNCTIONS:
        out[f"{fn}.calls"] = calls[fn]
        out[f"{fn}.self_ms"] = self_ns[fn] / 1e6
        out[f"{fn}.share"] = self_ns[fn] / 1e9 / traced_wall_s
    dft_s = self_ns[_SIZED] / 1e9
    out[f"{_SIZED}.gflop_s_computed"] = flops / dft_s / 1e9 if dft_s > 0 else 0.0
    return out
