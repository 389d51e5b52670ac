"""In-memory spans recorded by the benchmark around calls into blockpotts.

A span has a name, a start, an end, a parent span and a run id.  The
benchmark opens one root span per pass of a workload, one operation span
per entry of the workload's operation list, and one layer span around each
call into a public function of a blockpotts module.  Layer span names
start with the module name (``glauber.run_chain``, ``cli.main.exact``), so
the first dotted component names the layer.

Spans stay in memory and are written out when the run ends.  Untraced
runs use ``NullTracer``, whose methods only call through.
"""

from __future__ import annotations

import json
import math
import statistics
import tracemalloc
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from dataclasses import asdict, dataclass
from time import perf_counter

TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
MIN_BEYOND_TAIL = 10


@dataclass(frozen=True)
class Span:
    span_id: int
    parent: int | None
    name: str
    start: float
    end: float
    run_id: str

    @property
    def duration(self):
        return self.end - self.start


class NullTracer:
    """Tracing off: spans cost one context-manager entry, counters nothing."""

    enabled = False

    def span(self, name):
        return nullcontext()

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def call_peak_alloc(self, name, gauge, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def count(self, name, value):
        pass


class Tracer(NullTracer):
    """Tracing on: every span and counter is kept until the run ends."""

    enabled = True

    def __init__(self, run_id=""):
        self.run_id = run_id
        self.spans = []
        self.counters = defaultdict(float)
        self.gauges = {}
        self._stack = []
        self._next_id = 0

    @contextmanager
    def span(self, name):
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(span_id)
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans.append(Span(span_id, parent, name, start, end, self.run_id))

    def call(self, name, fn, *args, **kwargs):
        with self.span(name):
            return fn(*args, **kwargs)

    def call_peak_alloc(self, name, gauge, fn, *args, **kwargs):
        """Like call, and keep the largest tracemalloc peak seen under gauge.

        tracemalloc runs outside the span so the span times the call, not
        the start and stop of tracing; its allocation hooks still slow the
        call a little, which shows in the tracing overhead.
        """
        tracemalloc.start()
        try:
            with self.span(name):
                result = fn(*args, **kwargs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        self.gauges[gauge] = max(self.gauges.get(gauge, 0.0), peak / 2**20)
        return result

    def count(self, name, value):
        self.counters[name] += value

    def write_jsonl(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(asdict(span)) + "\n")


def self_times(spans):
    """Map span_id to duration minus the part of it its child spans cover.

    Children may overlap each other; their clipped intervals are merged
    before subtracting, so covered time is never counted twice.
    """
    children = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append(span)
    out = {}
    for span in spans:
        intervals = sorted(
            (max(c.start, span.start), min(c.end, span.end)) for c in children[span.span_id]
        )
        covered = 0.0
        reach = span.start
        for lo, hi in intervals:
            covered += max(0.0, hi - max(lo, reach))
            reach = max(reach, hi)
        out[span.span_id] = span.duration - covered
    return out


def percentile(values, pct):
    """Linear-interpolation percentile of a non-empty sequence."""
    xs = sorted(values)
    pos = (len(xs) - 1) * pct / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail(values):
    """(pct, value) for the highest standard percentile with at least
    MIN_BEYOND_TAIL samples above it, or None when there are too few."""
    n = len(values)
    for pct in TAIL_PERCENTILES:
        if round(n * (100.0 - pct) / 100.0, 6) >= MIN_BEYOND_TAIL:
            return pct, percentile(values, pct)
    return None


@dataclass(frozen=True)
class SpanStats:
    name: str
    calls: int
    busy_s: float
    self_s: float
    p50_s: float
    tail: tuple | None


def span_stats(spans):
    """Per span name: calls, busy, self, median and tail latency."""
    selfs = self_times(spans)
    by_name = defaultdict(list)
    for span in spans:
        by_name[span.name].append(span)
    out = {}
    for name, group in by_name.items():
        durations = [s.duration for s in group]
        out[name] = SpanStats(
            name=name,
            calls=len(group),
            busy_s=sum(durations),
            self_s=sum(selfs[s.span_id] for s in group),
            p50_s=statistics.median(durations),
            tail=tail(durations),
        )
    return out


def layer_table(spans):
    """Text table: one row per layer span name, plus one total row per layer."""
    stats = span_stats(spans)
    layers = defaultdict(list)
    for name, st in stats.items():
        layers[name.split(".", 1)[0]].append(st)
    header = f"{'span':<60} {'calls':>7} {'busy_s':>10} {'self_s':>10} {'p50_s':>10}  tail"
    lines = [header, "-" * len(header)]
    for layer in sorted(layers):
        rows = sorted(layers[layer], key=lambda st: st.name)
        total_busy = sum(st.busy_s for st in rows)
        total_self = sum(st.self_s for st in rows)
        total_calls = sum(st.calls for st in rows)
        lines.append(f"{layer + ' (all)':<60} {total_calls:>7} {total_busy:>10.4f} "
                     f"{total_self:>10.4f} {'':>10}")
        for st in rows:
            if st.tail is None:
                tail_text = f"- ({st.calls} calls)"
            else:
                pct, value = st.tail
                tail_text = f"p{pct:g}={value:.6f} ({st.calls} calls)"
            lines.append(f"  {st.name:<58} {st.calls:>7} {st.busy_s:>10.4f} "
                         f"{st.self_s:>10.4f} {st.p50_s:>10.6f}  {tail_text}")
    return "\n".join(lines)
