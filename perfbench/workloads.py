"""Seeded request pools for the three benchmark workloads.

Each workload turns `--seed` and a pool size into a list of requests. The
mix of shapes (n, m, value scale, entitlement kind, method or strategy) is
fixed for a given pool size and does not depend on the seed; the seed draws
the item values, the weighted entitlements, the agent asked about, and the
order in which requests run. Instances are written as JSON files in set-up,
and every request is a list of `fairshare` CLI argument vectors.

Two workloads also carry defect probes: a few fixed-shape requests that
show a known defect (a share reported as null, an APS refused by its guard).
They run only in the traced run, after the pool, and feed `null_share_rate`
and `fail_rate`; the timed pool holds no request that fails.
"""

from __future__ import annotations

import json
import random
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product
from pathlib import Path

# Fixed stream, independent of --seed: it picks which shape cells top up a
# pool, so every seed sees the same mix, and draws the null-share probe.
_FIXED_SEED = 20210307

NOTIONS = "proportional,tps,aps,pessimistic,mms,wmms"
BOUNDS = {
    "two-agent": "two-agent-aps",
    "greedy-efx": "equal-entitlements-gefx",
    "bidding": "arbitrary-entitlements",
}
# At least ten timed requests lie beyond p90.
MIN_REQUESTS = 100
# Requests in the shares-large guard probe.
GUARD_PROBES = 12
# "meta" about half the time, the other single strategies share the rest.
STRATEGY_SLOTS = ("meta", "tps", "meta", "rank", "meta", "maxval-tps", "meta", "aps35")


@dataclass
class Request:
    """One benchmark request: one CLI call, or allocate followed by verify."""

    index: int
    shape: tuple
    values: list[list[int]]
    entitlements: list[Fraction]
    calls: list[list[str]] = field(default_factory=list)
    instance_path: str = ""
    allocation_path: str = ""
    focal: int | None = None
    strategy: str | None = None
    method: str | None = None


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    # Requests per second of --seconds: the pool is sized so one pass over it
    # takes a little under --seconds at the baseline commit, on the host the
    # README's baseline was measured on (about 2x slower than hostspeed's
    # nominal speed).
    requests_per_second: float


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "allocate-verify",
            "the user pipeline; APS LPs and partition search dominate, and a traced m=11 probe "
            "with non-unit entitlements shows the pessimistic: null defect",
            7.0,
        ),
        Workload(
            "shares-large",
            "values up to 1000 make the O(m*v(M)) knapsack outweigh the simplex; traced "
            "probes with v(M) > 10^6 show the APS value-scale guard defect",
            3.5,
        ),
        Workload(
            "adversary-sweep",
            "worst-case adversary sweeps touch only the bidding layer, so LP, knapsack and "
            "partition changes must show no change here",
            9.0,
        ),
    )
}


def pool_size(workload: str, seconds: int) -> int:
    return max(MIN_REQUESTS, round(WORKLOADS[workload].requests_per_second * seconds))


def _entitlements(rng: random.Random, n: int, kind: str) -> list[Fraction]:
    if kind == "equal":
        return [Fraction(1, n)] * n
    # Random positive weights normalised to 1, redrawn until not all equal.
    while True:
        weights = [rng.randint(1, 5) for _ in range(n)]
        if len(set(weights)) > 1:
            total = sum(weights)
            return [Fraction(w, total) for w in weights]


def _values(rng: random.Random, n: int, m: int, low: int, high: int) -> list[list[int]]:
    return [[rng.randint(low, high) for _ in range(m)] for _ in range(n)]


def _cells(cells: list[tuple], count: int) -> list[tuple]:
    """`count` cells: whole copies of the product, topped up by a fixed draw."""
    whole, rest = divmod(count, len(cells))
    extra = random.Random(_FIXED_SEED).sample(cells, rest)
    return cells * whole + extra


def _method(n: int, kind: str) -> str:
    return "two-agent" if n == 2 else ("greedy-efx" if kind == "equal" else "bidding")


def _allocate_verify(rng: random.Random, size: int) -> list[Request]:
    cells = list(product((2, 3, 4), ("equal", "weighted"), (5, 6)))
    out = []
    for n, kind, m in _cells(cells, size):
        method = _method(n, kind)
        values, ents = _values(rng, n, m, 0, 6), _entitlements(rng, n, kind)
        out.append(Request(0, (n, m, "0-6", kind, method), values, ents, method=method))
    rng.shuffle(out)
    return out


def _null_share_probe(rng: random.Random) -> list[Request]:
    # The same for every seed: eleven items valued 1-6 and entitlements
    # (1/3, 2/3). For the non-unit 2/3 the pessimistic share search exceeds
    # its node guard, so allocate and verify report that share as null.
    values = _values(random.Random(_FIXED_SEED), 2, 11, 1, 6)
    thirds = [Fraction(1, 3), Fraction(2, 3)]
    return [Request(0, (2, 11, "1-6", "weighted", "two-agent"), values, thirds, method="two-agent")]


def _shares_large(rng: random.Random, size: int) -> list[Request]:
    cells = list(product((2, 3), ("equal", "weighted"), (6, 7)))
    out = []
    for n, kind, m in _cells(cells, size):
        req = Request(0, (n, m, "0-1000", kind, "shares"), _values(rng, n, m, 0, 1000), _entitlements(rng, n, kind))
        out.append(req)
    rng.shuffle(out)
    for req in out:
        req.focal = rng.randrange(len(req.values))
    return out


def _guard_probe(rng: random.Random) -> list[Request]:
    # A fixed slice at the 10^6 scale: m in [2,4] and every value at least
    # 600000, so v(M) > 10^6 and APS always exceeds the knapsack guard; none
    # lies just under it, where a request would run for minutes.
    out = []
    for k in range(GUARD_PROBES):
        n, m, kind = (2, 3)[k % 2], 2 + k % 3, ("equal", "weighted")[k // 2 % 2]
        req = Request(0, (n, m, "600000-10^6", kind, "shares"), _values(rng, n, m, 600_000, 10**6), _entitlements(rng, n, kind))
        req.focal = rng.randrange(n)
        out.append(req)
    return out


def _adversary_sweep(rng: random.Random, size: int) -> list[Request]:
    cells = list(product((2, 3, 4), ("equal", "weighted"), (4, 5, 6), STRATEGY_SLOTS))
    out = []
    for n, kind, m, strategy in _cells(cells, size):
        req = Request(0, (n, m, "0-6", kind, strategy), _values(rng, n, m, 0, 6), _entitlements(rng, n, kind))
        req.strategy = strategy
        out.append(req)
    rng.shuffle(out)
    for req in out:
        req.focal = rng.randrange(len(req.values))
    return out


GENERATORS = {
    "allocate-verify": _allocate_verify,
    "shares-large": _shares_large,
    "adversary-sweep": _adversary_sweep,
}

PROBES = {
    "allocate-verify": _null_share_probe,
    "shares-large": _guard_probe,
}


def generate(workload: str, seed: int, size: int) -> tuple[list[Request], list[Request]]:
    """The timed pool and the defect probes, numbered in that order."""
    rng = random.Random(f"{workload}:{seed}")
    requests = GENERATORS[workload](rng, size)
    probes = PROBES[workload](random.Random(f"{workload}:{seed}:probe")) if workload in PROBES else []
    for k, req in enumerate(requests + probes):
        req.index = k
    return requests, probes


def write(workload: str, requests: list[Request], directory: Path) -> None:
    """Write each instance file and fill in the CLI calls of each request."""
    directory.mkdir(parents=True, exist_ok=True)
    for req in requests:
        path = directory / f"inst{req.index:04d}.json"
        doc = {
            "agents": [
                {"entitlement": f"{b.numerator}/{b.denominator}", "values": row}
                for b, row in zip(req.entitlements, req.values)
            ]
        }
        path.write_text(json.dumps(doc), encoding="utf-8")
        req.instance_path = str(path)
        if workload == "allocate-verify":
            req.allocation_path = str(directory / f"alloc{req.index:04d}.json")
            req.calls = [
                ["allocate", req.instance_path, "--method", req.method],
                ["verify", req.instance_path, req.allocation_path, "--bounds", BOUNDS[req.method]],
            ]
        elif workload == "shares-large":
            req.calls = [["shares", req.instance_path, "--agent", str(req.focal), "--notions", NOTIONS]]
        else:
            req.calls = [
                [
                    "game",
                    req.instance_path,
                    "--focal",
                    str(req.focal),
                    "--adversary",
                    "worst",
                    "--strategies",
                    f"{req.focal}={req.strategy}",
                ]
            ]


def histogram(requests: list[Request]) -> list[dict]:
    """Shape histogram: n, m, value scale, entitlement kind, method/strategy."""
    counts = Counter(req.shape for req in requests)
    keys = ("n", "m", "values", "entitlements", "method")
    return [dict(zip(keys, shape), count=c) for shape, c in sorted(counts.items(), key=str)]
