"""Tracing from outside the library: spans around the public functions.

While a Tracer is installed, the public functions of each irscollab module
(and the linear-algebra methods of both field classes) are replaced, in every
module namespace that holds them, by wrappers that record a span per call.
A span's parent is the innermost wrapped call that encloses it, so each
span's self time is its duration minus the time its child spans cover.
Spans are folded into per-name statistics as they close, which keeps a long
run's memory flat; work counts and decode outcomes are taken at the same
boundaries.  Nothing under src/ is changed, and uninstalling restores the
original functions.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
from collections import Counter
from time import perf_counter

import numpy as np

# Span names are "<module>.<stage>"; the module is the layer.
FUNCTIONS = (
    ("polycode.encode", "polycode", "encode_tasks"),
    ("polycode.worker", "polycode", "worker_compute"),
    ("polycode.assemble", "polycode", "assemble_irs"),
    ("polycode.recover", "polycode", "recover_product"),
    ("grs.make", "grs", "make_grs"),
    ("errmodel.sample", "errmodel", "sample_error"),
    ("errmodel.inject", "errmodel", "inject"),
    ("decoder.cpda", "decoder", "cpda_decode"),
    ("decoder.mssr", "decoder", "mssr_decode"),
    ("decoder.syndromes", "decoder", "layer_syndromes"),
    ("decoder.synthesize", "decoder", "synthesize_recurrence"),
    ("decoder.root", "decoder", "is_t_valid"),
    ("decoder.values", "decoder", "recover_error_values"),
    ("harness.run_monte_carlo", "harness", "run_monte_carlo"),
)
METHODS = (
    ("field.matmul", "matmul"),
    ("field.solve", "solve_consistent"),
    ("field.rank", "rank"),
)
# Spans whose every duration is kept, for per-call percentiles.
SAMPLED = ("decoder.cpda", "decoder.mssr")


def _count_macs(counts, args, _result):
    a, b = np.shape(args[1]), np.shape(args[2])
    counts["field.matmul_macs"] += int(np.prod(a[:-1])) * a[-1] * int(np.prod(b[1:]))


def _count_rows(counts, args, _result):
    counts["field.solve_rows"] += np.shape(args[1])[0]


def _count_outcome(counts, _args, outcome):
    counts["decoder.attempts"] += 1
    if outcome.success:
        counts["decoder.success"] += 1
    else:
        counts[f"decoder.fail.{outcome.reason.value}"] += 1


_AFTER = {
    "field.matmul": _count_macs,
    "field.solve": _count_rows,
    "decoder.cpda": _count_outcome,
    "decoder.mssr": _count_outcome,
}


class SpanStats:
    """Calls, total and self seconds of one span name."""

    __slots__ = ("calls", "total", "self_time", "samples")

    def __init__(self, sampled: bool):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0
        self.samples = [] if sampled else None


class Tracer:
    """Span recorder; install() wraps the library, span() marks benchmark steps."""

    def __init__(self):
        self._stack = []
        self.stats: dict[str, SpanStats] = {}
        self.edges: Counter = Counter()  # (parent name, child name) -> seconds
        self.counts: Counter = Counter()

    def _stats(self, name: str) -> SpanStats:
        if name not in self.stats:
            self.stats[name] = SpanStats(name in SAMPLED)
        return self.stats[name]

    def _open(self, name: str):
        frame = [name, 0.0, perf_counter()]
        self._stack.append(frame)
        return frame

    def _close(self, frame) -> None:
        duration = perf_counter() - frame[2]
        self._stack.pop()
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[1] += duration
        stats = self._stats(frame[0])
        stats.calls += 1
        stats.total += duration
        stats.self_time += duration - frame[1]
        if stats.samples is not None:
            stats.samples.append(duration)
        self.edges[(parent[0] if parent else None, frame[0])] += duration

    @contextlib.contextmanager
    def span(self, name: str):
        frame = self._open(name)
        try:
            yield
        finally:
            self._close(frame)

    def _wrap(self, name: str, func):
        self._stats(name)
        after = _AFTER.get(name)

        @functools.wraps(func)
        def traced(*args, **kwargs):
            frame = self._open(name)
            try:
                result = func(*args, **kwargs)
            finally:
                self._close(frame)
            if after is not None:
                after(self.counts, args, result)
            return result

        return traced

    @contextlib.contextmanager
    def install(self, package):
        """Wrap the package's public functions for the duration of the block."""
        modules = [importlib.import_module(f"{package.__name__}.{name}")
                   for name in ("field", "grs", "polycode", "errmodel", "decoder", "harness")]
        undo = []
        for name, module, attr in FUNCTIONS:
            original = getattr(importlib.import_module(f"{package.__name__}.{module}"), attr)
            wrapped = self._wrap(name, original)
            for holder in [package, *modules]:
                if vars(holder).get(attr) is original:
                    undo.append((holder, attr, original))
                    setattr(holder, attr, wrapped)
        for cls in (package.PrimeField, package.RealField):
            for name, attr in METHODS:
                original = vars(cls)[attr]
                undo.append((cls, attr, original))
                setattr(cls, attr, self._wrap(name, original))
        try:
            yield self
        finally:
            for holder, attr, original in reversed(undo):
                setattr(holder, attr, original)

    def report(self) -> dict:
        """Everything recorded, in a form that serialises to JSON."""
        return {
            "spans": {name: {"calls": s.calls, "total_s": s.total, "self_s": s.self_time}
                      for name, s in sorted(self.stats.items())},
            "edges": [{"parent": parent, "child": child, "total_s": seconds}
                      for (parent, child), seconds in sorted(self.edges.items(), key=str)],
            "counts": dict(sorted(self.counts.items())),
        }


def _percentile_ms(samples, q: float) -> float:
    return float(np.percentile(samples, q)) * 1e3 if samples else 0.0


def layer_metrics(tracer: Tracer, rounds: int) -> dict:
    """Per-layer metrics, per round, as {name: (value, unit)}.

    Times and counts are divided by the number of rounds: every round repeats
    the same inputs, so the counts per round repeat exactly from run to run.
    Per-call percentiles of the two decoders are taken over the whole run.
    """
    stats, counts = tracer.stats, tracer.counts

    def seconds(*names):
        return sum(stats[n].total for n in names if n in stats) / rounds

    def self_seconds(*names):
        return sum(stats[n].self_time for n in names if n in stats) / rounds

    def per_round(value):
        return value / rounds

    def calls(name):
        return per_round(stats[name].calls if name in stats else 0)

    out = {
        "polycode.encode_s": (seconds("polycode.encode"), "s"),
        "polycode.worker_s": (seconds("polycode.worker"), "s"),
        "polycode.assemble_s": (seconds("polycode.assemble"), "s"),
        "polycode.recover_s": (seconds("polycode.recover"), "s"),
        "field.matmul_s": (seconds("field.matmul"), "s"),
        "field.matmul_calls": (calls("field.matmul"), "count"),
        "field.matmul_macs": (per_round(counts["field.matmul_macs"]), "count"),
        "field.solve_s": (seconds("field.solve"), "s"),
        "field.solve_calls": (calls("field.solve"), "count"),
        "field.solve_rows": (per_round(counts["field.solve_rows"]), "count"),
        "field.rank_s": (seconds("field.rank"), "s"),
        "field.rank_calls": (calls("field.rank"), "count"),
        "field.direct_product_s": (seconds("field.direct_product"), "s"),
        "grs.make_s": (seconds("grs.make"), "s"),
        "errmodel.sample_s": (seconds("errmodel.sample"), "s"),
        "errmodel.inject_s": (seconds("errmodel.inject"), "s"),
    }
    for dec in ("cpda", "mssr"):
        name = f"decoder.{dec}"
        samples = stats[name].samples if name in stats else []
        out[f"{name}_s"] = (seconds(name), "s")
        out[f"{name}_calls"] = (calls(name), "count")
        out[f"{name}_p50_ms"] = (_percentile_ms(samples, 50), "ms")
        out[f"{name}_p99_ms"] = (_percentile_ms(samples, 99), "ms")
    out.update({
        "decoder.syndromes_s": (seconds("decoder.syndromes"), "s"),
        "decoder.synthesize_s": (seconds("decoder.synthesize"), "s"),
        "decoder.root_s": (seconds("decoder.root"), "s"),
        "decoder.values_s": (seconds("decoder.values"), "s"),
        "decoder.self_s": (self_seconds("decoder.cpda", "decoder.mssr"), "s"),
    })
    for reason in ("no_consistent_t", "rank_deficient", "not_t_valid", "syndrome_residual"):
        out[f"decoder.fail.{reason}"] = (per_round(counts[f"decoder.fail.{reason}"]), "count")
    attempts = counts["decoder.attempts"]
    out["decoder.success_ratio"] = (counts["decoder.success"] / attempts if attempts else 0.0,
                                    "ratio")
    out["harness.self_s"] = (self_seconds("harness.run_monte_carlo"), "s")
    return out
