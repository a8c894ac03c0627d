"""Span recorder for the traced run, and the arithmetic on its output.

A span is one call into a library layer, timed from the benchmark's own
files: name, start, end, the index of the enclosing span and the id of
the job it belongs to.  Spans are kept in memory and written out when
the run ends.  A span's self time is its duration minus the part of its
interval that its child spans cover.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field

# Percentiles tried for the latency tail, lowest first.
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
TAIL_BEYOND = 10


@dataclass
class Span:
    name: str
    start: float = 0.0
    end: float = 0.0
    parent: int | None = None
    job: int | None = None
    attrs: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return asdict(self)


class Recorder:
    """Records nested spans when enabled; otherwise hands out a throwaway
    span, so that the untraced run executes the same benchmark code."""

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.spans: list[Span] = []
        self.job: int | None = None
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, **attrs):
        if not self.enabled:
            yield Span(name, attrs=attrs)
            return
        sp = Span(name, parent=self._stack[-1] if self._stack else None,
                  job=self.job, attrs=attrs)
        self.spans.append(sp)
        self._stack.append(len(self.spans) - 1)
        sp.start = time.perf_counter()
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            self._stack.pop()


def union_length(intervals: list[tuple[float, float]]) -> float:
    """Total length covered by a set of possibly overlapping intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Duration of each span minus the union of its children's intervals
    (clipped to the parent's own interval)."""
    children: dict[int, list[tuple[float, float]]] = {}
    for sp in spans:
        if sp.parent is not None:
            children.setdefault(sp.parent, []).append((sp.start, sp.end))
    out = []
    for i, sp in enumerate(spans):
        inner = [(max(lo, sp.start), min(hi, sp.end))
                 for lo, hi in children.get(i, []) if min(hi, sp.end) > max(lo, sp.start)]
        out.append((sp.end - sp.start) - union_length(inner))
    return out


def percentile(samples: list[float], pct: float) -> float:
    """Linear-interpolation percentile (numpy's default definition)."""
    xs = sorted(samples)
    pos = (len(xs) - 1) * pct / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail(samples: list[float]) -> tuple[float, float]:
    """(percentile, value) for the highest ladder percentile that leaves
    at least ten samples beyond it; the median when none does."""
    n = len(samples)
    best = TAIL_LADDER[0]
    for pct in TAIL_LADDER:
        if n * (100.0 - pct) >= 100.0 * TAIL_BEYOND - 1e-6:
            best = pct
    return best, percentile(samples, best)
