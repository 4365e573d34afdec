"""Span tracer for the traced benchmark run.

Inside ``with Tracer():`` the module attributes through which each layer of
``binomci`` is called are replaced by wrappers that record a span per call:
name, start, end, parent span and the op it belongs to, plus the number of
array lanes passed in.  The name is patched where the caller looks it up
(``binomci.cli.interval``, ``binomci.methods.beta_quantile``, ...), so no
file of the library changes.  On exit every original is put back.

Spans stay in memory until the run ends.  Calls made inside the forked
workers of ``_coverage_over`` run in other processes and are not captured.
A target that no longer exists is reported as missing, not as an error.
"""
from __future__ import annotations

import contextlib
import functools
import importlib
import time
from collections import defaultdict

import numpy as np

# (module the caller looks the name up in, attribute, layer name, positions
# of the arguments whose broadcast size is counted as lanes)
_ENGINE_OPS = ("expected_width_exact", "min_coverage", "mean_coverage", "calibrate_alpha")
TARGETS = (
    [
        ("binomci.cli", "run", "cli.run", ()),
        ("binomci.cli", "interval", "methods.interval", ()),
        ("binomci.methods", "beta_quantile", "special.beta_quantile", ()),
        ("binomci.special", "reg_inc_beta", "special.reg_inc_beta", ()),
        ("binomci", "exact_n", "sample_size.exact_n", ()),
        ("binomci.sample_size", "exact_n", "sample_size.exact_n", ()),
    ]
    + [("binomci", f, f"exact_eval.{f}", ()) for f in _ENGINE_OPS]
    + [("binomci.exact_eval", f, f"exact_eval.{f}", ()) for f in _ENGINE_OPS]
    + [
        ("binomci.exact_eval", "expected_widths_batch", "exact_eval.expected_widths_batch", ()),
        ("binomci.exact_eval", "_coverage_over", "exact_eval._coverage_over", (0,)),
        ("binomci.exact_eval", "_bounds_arrays", "exact_eval._bounds_arrays", ()),
        ("binomci.exact_eval", "_bounds_for_x", "exact_eval._bounds_for_x", (1, 3)),
        ("binomci.exact_eval", "_beta_quantile_vec", "exact_eval._beta_quantile_vec", (0, 1, 2)),
        ("binomci.exact_eval", "_betainc_vec", "exact_eval._betainc_vec", (0, 1, 2)),
        ("binomci.exact_eval", "_betacf_vec", "exact_eval._betacf_vec", (0, 1, 2)),
    ]
)

# Per-layer metrics, as named in BENCHMARK.json: (layer, quantity, unit, better)
_CALLS_SELF = [("calls", "count", "lower"), ("self_s", "s", "lower")]
_LANES = [("calls", "count", "lower"), ("lanes", "count", "lower"), ("self_s", "s", "lower")]
LAYER_METRICS = (
    [("cli.run", *q) for q in _CALLS_SELF]
    + [("special.beta_quantile", *q) for q in _CALLS_SELF + [("rounds", "count", "lower")]]
    + [("special.reg_inc_beta", *q) for q in _CALLS_SELF]
    + [("methods.interval", *q) for q in _CALLS_SELF]
    + [("exact_eval._betacf_vec", *q) for q in _LANES]
    + [("exact_eval._betainc_vec", *q) for q in _LANES]
    + [("exact_eval._beta_quantile_vec", *q) for q in _LANES + [
        ("rounds", "count", "lower"), ("lane_rounds", "count", "lower")]]
    + [("exact_eval._bounds_for_x", *q) for q in _LANES]
    + [("exact_eval._bounds_arrays", *q) for q in _CALLS_SELF + [
        ("hits", "count", "higher"), ("misses", "count", "lower"), ("miss_bytes", "B", "lower")]]
    + [("exact_eval._coverage_over", *q) for q in _LANES]
    + [(f"exact_eval.{f}", *q) for f in ("expected_width_exact", "expected_widths_batch",
                                          "min_coverage", "mean_coverage", "calibrate_alpha")
       for q in _CALLS_SELF]
    + [("sample_size.exact_n", *q) for q in _CALLS_SELF + [("width_evals", "count", "lower")]]
)
# Metrics of the traced run itself.
TRACE_METRICS = [
    ("trace.overhead_pct", "%", "lower"),
    ("trace.ops", "count", "higher"),
    ("trace.spans", "count", "lower"),
]

# span record fields
OP, ID, PARENT, NAME, START, END, LANES, HITS, MISSES, BYTES = range(10)


def _lanes(args, positions) -> int:
    try:
        return int(np.broadcast(*(args[i] for i in positions)).size) if positions else 0
    except (IndexError, ValueError):
        return 0


class Tracer:
    """Installs span-recording wrappers on entry and removes them on exit."""

    def __init__(self):
        self.spans: list[list] = []
        self.missing: list[str] = []
        self._stack: list[list] = []
        self._op = -1
        self._patched: list[tuple] = []
        self._wrapped: set[str] = set()

    def __enter__(self):
        for module_name, attr, layer, positions in TARGETS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if original is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            if layer == "exact_eval._bounds_arrays" and not hasattr(original, "cache_info"):
                self.missing.append(f"{module_name}.{attr}.cache_info")
            self._patched.append((module, attr, original))
            self._wrapped.add(layer)
            setattr(module, attr, self._wrap(original, layer, positions))
        return self

    def __exit__(self, *exc):
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)
        return False

    def _open(self, name: str, lanes: int) -> list:
        rec = [self._op, len(self.spans), self._stack[-1][ID] if self._stack else -1,
               name, time.perf_counter(), 0.0, lanes, 0, 0, 0]
        self.spans.append(rec)
        self._stack.append(rec)
        return rec

    def _close(self, rec: list) -> None:
        rec[END] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn, layer: str, positions: tuple):
        cache_info = getattr(fn, "cache_info", None)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = self._open(layer, _lanes(args, positions))
            before = cache_info() if cache_info else None
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(rec)
            if before is not None:
                after = cache_info()
                rec[HITS] = after.hits - before.hits
                rec[MISSES] = after.misses - before.misses
                if rec[MISSES]:
                    rec[BYTES] = sum(getattr(a, "nbytes", 0) for a in result)
            elif layer == "exact_eval.expected_widths_batch":
                rec[LANES] = len(args[1])
            return result

        return wrapper

    @contextlib.contextmanager
    def op(self, index: int, kind: str):
        """Context for one op: its root span, and the id all its spans share."""
        self._op = index
        rec = self._open(f"op.{kind}", 0)
        try:
            yield
        finally:
            self._close(rec)
            self._op = -1

    # -----------------------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """Every per-layer metric of LAYER_METRICS, summed over all spans."""
        spans = self.spans
        child_time = defaultdict(float)
        children = defaultdict(list)
        for rec in spans:
            if rec[PARENT] >= 0:
                child_time[rec[PARENT]] += rec[END] - rec[START]
                children[rec[PARENT]].append(rec)
        m: dict[str, float] = defaultdict(float)
        for rec in spans:
            name = rec[NAME]
            if name.startswith("op."):
                continue
            m[f"{name}.calls"] += 1
            m[f"{name}.self_s"] += rec[END] - rec[START] - child_time[rec[ID]]
            m[f"{name}.lanes"] += rec[LANES]
            m[f"{name}.hits"] += rec[HITS]
            m[f"{name}.misses"] += rec[MISSES]
            m[f"{name}.miss_bytes"] += rec[BYTES]
            kids = children[rec[ID]]
            if name == "exact_eval._beta_quantile_vec":
                inner = [k for k in kids if k[NAME] == "exact_eval._betainc_vec"]
                m[f"{name}.rounds"] += len(inner)
                m[f"{name}.lane_rounds"] += sum(k[LANES] for k in inner)
            elif name == "special.beta_quantile":
                m[f"{name}.rounds"] += sum(k[NAME] == "special.reg_inc_beta" for k in kids)
            elif name == "sample_size.exact_n":
                m[f"{name}.width_evals"] += sum(
                    1 if k[NAME] == "exact_eval.expected_width_exact" else k[LANES]
                    for k in kids
                    if k[NAME] in ("exact_eval.expected_width_exact",
                                   "exact_eval.expected_widths_batch"))
        return {f"{layer}.{q}": float(m[f"{layer}.{q}"]) for layer, q, _, _ in LAYER_METRICS}

    def missing_layers(self) -> list[str]:
        """Layers of LAYER_METRICS that no target could wrap."""
        return sorted({layer for layer, _, _, _ in LAYER_METRICS} - self._wrapped)

    def dump(self) -> dict:
        fields = ["op", "id", "parent", "name", "start", "end", "lanes", "hits", "misses",
                  "bytes"]
        return {"fields": fields, "spans": self.spans, "missing": self.missing}
