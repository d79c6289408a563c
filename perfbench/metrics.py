"""Metric arithmetic for the benchmark: percentiles, rates and span times.

Everything here is pure and deterministic so that `test_metrics.py` can pin
it down without running the solvers.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass


def percentile(completed: list[float], failed: int, q: float, failed_value: float) -> float:
    """Harrell-Davis estimate of the q-th percentile of request times, with
    failures ranked slowest.

    The estimate is a weighted mean of all the ordered times, with weights
    from the Beta((n+1)q/100, (n+1)(1-q/100)) distribution over the ranks. It
    moves less from one sample of requests to the next than a single order
    statistic does. A failed request ranks above every completed one and
    counts as `failed_value` (the caller passes an upper bound on any request
    time). The weights are non-negative, so turning a failure into a success
    can never look like a slowdown.
    """
    total = len(completed) + failed
    if total == 0:
        raise ValueError("percentile of no requests")
    if not 0 < q < 100:
        raise ValueError(f"percentile rank must lie in (0, 100), got {q}")
    ordered = sorted(completed) + [failed_value] * failed
    a, b = (total + 1) * q / 100, (total + 1) * (1 - q / 100)
    cdf = [betainc(a, b, k / total) for k in range(total + 1)]
    return sum((cdf[k + 1] - cdf[k]) * x for k, x in enumerate(ordered))


def betainc(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta function I_x(a, b), by Lentz's continued
    fraction on the side of x where it converges fast."""
    if x <= 0:
        return 0.0
    if x >= 1:
        return 1.0
    front = math.exp(math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b) + a * math.log(x) + b * math.log1p(-x))
    if x < (a + 1) / (a + b + 2):
        return front * _beta_fraction(a, b, x) / a
    return 1 - front * _beta_fraction(b, a, 1 - x) / b


def _beta_fraction(a: float, b: float, x: float) -> float:
    tiny = 1e-300

    def clamp(v: float) -> float:
        return v if abs(v) > tiny else tiny

    c, d = 1.0, 1 / clamp(1 - (a + b) * x / (a + 1))
    h = d
    for m in range(1, 500):
        even = m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m))
        d, c = 1 / clamp(1 + even * d), clamp(1 + even / c)
        h *= d * c
        odd = -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1))
        d, c = 1 / clamp(1 + odd * d), clamp(1 + odd / c)
        h *= d * c
        if abs(d * c - 1) < 1e-15:
            break
    return h


def per_request(runs: list[tuple[int, str, float]], times: list[float]) -> tuple[list[float], list[float]]:
    """Median time of each distinct request, split into completed and failed.

    `runs` holds (request, status, raw time) per timed execution and `times`
    the time to count for each. A request that failed in any of its runs is
    a failed request.
    """
    by_request: dict[int, list[float]] = {}
    failed = set()
    for (request, status, _), t in zip(runs, times, strict=True):
        by_request.setdefault(request, []).append(t)
        if status != "ok":
            failed.add(request)
    completed = [statistics.median(ts) for r, ts in by_request.items() if r not in failed]
    return completed, [statistics.median(by_request[r]) for r in failed]


def samples_beyond(total: int, q: float) -> int:
    """How many of `total` ranked samples lie above the q-th percentile."""
    return total - math.ceil(q / 100 * total)


def rate(part: int, whole: int) -> float:
    """part / whole, with 0/0 read as 0 (nothing attempted, nothing lost)."""
    return part / whole if whole else 0.0


@dataclass(frozen=True)
class Span:
    """One call into a layer, as recorded by the tracer.

    `parent` is the id of the innermost enclosing span (None at the request
    root), `status` is "ok", "guard" (a GuardError left the call) or "error".
    `extra` holds per-call counts such as simplex columns or game rounds.
    """

    sid: int
    layer: str
    start: float
    end: float
    parent: int | None
    request: int
    status: str = "ok"
    extra: tuple[tuple[str, int], ...] = ()

    @property
    def duration(self) -> float:
        return self.end - self.start


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the part of its interval its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    by_id = {s.sid: s for s in spans}
    for s in spans:
        if s.parent is not None and s.parent in by_id:
            p = by_id[s.parent]
            children.setdefault(s.parent, []).append((max(s.start, p.start), min(s.end, p.end)))
    return {s.sid: s.duration - _union_length(children.get(s.sid, [])) for s in spans}


def outermost(spans: list[Span]) -> list[Span]:
    """Spans with no ancestor of their own layer, so nested calls of one
    layer are not counted twice in its busy time."""
    by_id = {s.sid: s for s in spans}
    out = []
    for s in spans:
        p = s.parent
        while p is not None and p in by_id and by_id[p].layer != s.layer:
            p = by_id[p].parent
        if p is None or p not in by_id:
            out.append(s)
    return out


@dataclass
class LayerStats:
    calls: int = 0
    busy_s: float = 0.0
    self_s: float = 0.0
    guard_trips: int = 0


def layer_stats(spans: list[Span]) -> dict[str, LayerStats]:
    """Calls, busy time, self time and guard trips per layer."""
    stats: dict[str, LayerStats] = {}
    selfs = self_times(spans)
    for s in spans:
        st = stats.setdefault(s.layer, LayerStats())
        st.calls += 1
        st.self_s += selfs[s.sid]
        if s.status == "guard":
            st.guard_trips += 1
    for s in outermost(spans):
        stats[s.layer].busy_s += s.duration
    return stats


def top_level_coverage(spans: list[Span], root_layer: str, request_wall: float) -> float:
    """Share of request wall time covered by the direct children of the
    `root_layer` spans: the layers below the entry point that do the work."""
    roots = {s.sid for s in spans if s.layer == root_layer}
    covered = sum(s.duration for s in spans if s.parent in roots)
    return rate(covered, request_wall)
