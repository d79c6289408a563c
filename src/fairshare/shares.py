"""Share notions for a single agent with an arbitrary entitlement.

Every solver takes a `Valuation` and, where relevant, an entitlement
`0 < b <= 1`, independent of any other agent. Integer-valued shares (APS,
MMS, l-out-of-d, pessimistic) return ints; the scale-dependent ones
(proportional, TPS, WMMS) return exact rationals.

`aps_exact` returns the share value together with two independently
checkable certificates: a price vector proving the upper bound and a
weighted bundle collection proving the lower bound. Their JSON forms are
read back through the wire-format readers of `core`, as every input is.

The partition shares (MMS, l-out-of-d, pessimistic, WMMS) are one branch
and bound, `_partition_search`; each picks the integer bundle weights, how
many of the smallest weighted bundles count, and its guard name.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

from .core import (
    Allocation,
    GuardError,
    InputError,
    Rat,
    Valuation,
    _check_entitlements,
    _json_bundles,
    _json_field,
    _json_int,
    _json_rat,
    _json_rats,
    check_entitlement,
    guard_limit,
    rat_to_str,
)
from .lp import ColumnLP


class _NodeCounter:
    """Work guard for the enumerative solvers; raises once the limit is hit."""

    __slots__ = ("guard", "limit", "used")

    def __init__(self, guard: str) -> None:
        self.guard = guard
        self.limit = guard_limit()
        self.used = 0

    def tick(self) -> None:
        self.used += 1
        if self.used > self.limit:
            raise GuardError(self.guard, self.limit, self.used)


# ---------------------------------------------------------------------------
# Scale-dependent shares.


def proportional_share(valuation: Valuation, b: Rat) -> Rat:
    b = check_entitlement(b)
    return b * valuation.total


def tps(valuation: Valuation, b: Rat) -> Rat:
    """Truncated proportional share.

    Peels the highest-value item while it exceeds the proportional share of
    what is left, inflating the entitlement to b/(1-b) at each peel; once the
    entitlement reaches 1/2 the remainder is priced in one step.
    """
    b = check_entitlement(b)
    vals = sorted(valuation.item_values, reverse=True)
    while True:
        total = sum(vals)
        ps = b * total
        if not vals or vals[0] <= ps:
            return ps
        if b >= Rat(1, 2):
            # b = 1 cannot reach here: ps = total >= vals[0] returns above.
            return (b / (1 - b)) * (total - vals[0])
        vals.pop(0)
        b = b / (1 - b)


def _kth_largest(item_values: Sequence[int], k: int) -> int:
    """The k-th largest item value, 0 if absent."""
    ordered = sorted(item_values, reverse=True)
    return ordered[k - 1] if k <= len(ordered) else 0


def unit_demand_aps(item_values: Sequence[int], b: Rat) -> int:
    """APS under unit demand: the ceil(1/b)-th largest item value, 0 if absent."""
    return _kth_largest(item_values, math.ceil(1 / check_entitlement(b)))


def _rank_item_value(item_values: Sequence[int], b: Rat) -> int:
    """The floor(1/b)-th largest item value, 0 if absent: what the rank bidder
    secures, and the entitlement-rank term of the bidding-game guarantee."""
    return _kth_largest(item_values, math.floor(1 / Rat(b)))


# ---------------------------------------------------------------------------
# Knapsack primitives shared by the APS machinery and the certificate checks.


def _subset_states(values: Sequence[int], costs: Sequence[int], cap: int) -> dict[int, tuple[int, int, int]]:
    """0/1 DP over the positive-value items keeping reachable states only (Toth
    1980): states[k] = (cost, value, mask) of the cheapest subset of value k,
    or of value >= cap at k = cap, ties to the lower value. Costs are ints, in
    whatever unit the caller scaled the prices to. The state count is
    guarded; it is at most min(2^m, cap + 1) at any value scale."""
    limit = guard_limit()
    states = {0: (0, 0, 0)}
    for j, v in enumerate(values):
        if v <= 0:
            continue
        p = costs[j]
        bit = 1 << j
        for cost, worth, mask in list(states.values()):
            cost += p
            worth += v
            key = worth if worth < cap else cap
            old = states.get(key)
            if old is None and len(states) == limit:
                raise GuardError("knapsack-value", limit, limit + 1)
            if old is None or cost < old[0] or (cost == old[0] and worth < old[1]):
                states[key] = (cost, worth, mask | bit)
    return states


def _min_price_reaching(
    values: Sequence[int], costs: Sequence[int], target: int
) -> tuple[int, frozenset[int], int] | None:
    """Cheapest subset with value >= target, as (cost, subset, value), or
    None if no subset reaches it. Ties go to the lowest value."""
    if target <= 0:
        return 0, frozenset(), 0
    if target > sum(values):
        return None
    cost, worth, mask = _subset_states(values, costs, target)[target]
    return cost, frozenset(j for j in range(len(values)) if mask >> j & 1), worth


def _max_affordable_value(values: Sequence[int], prices: Sequence[Rat], budget: Rat) -> int:
    """Highest subset value purchasable within the budget."""
    scale = math.lcm(*(prices[j].denominator for j in range(len(values)) if values[j] > 0))
    costs = [p.numerator * (scale // p.denominator) if v > 0 else 0 for p, v in zip(prices, values)]
    afford = math.floor(budget * scale)
    states = _subset_states(values, costs, sum(values))
    return max((worth for cost, worth, _ in states.values() if cost <= afford), default=0)


# ---------------------------------------------------------------------------
# Partition-based shares: one branch and bound behind all four.


def _partition_search(
    values: Sequence[int], weights: Sequence[int], take: int, counter: _NodeCounter, best: int = 0
) -> int:
    """Largest sum of the `take` smallest weighted bundle values W_k * v(A_k)
    over assignments of the items to len(weights) bundles, or `best` if no
    assignment beats it.

    Positive items are placed in descending order (Korf 2009). Bundles with
    equal (W_k, v(A_k)) are interchangeable, so an item tries only one of
    them and a state is expanded once (memo on the sorted bundle states);
    the last item tries only a lowest bundle.
    An integer water-filling bound, the best objective if the remaining
    value could be split fractionally, prunes every state that cannot beat
    the incumbent; it is exact at the leaves. Callers pass unit weights
    whenever take > 1, which the bound and the all-bundles case assume.
    """
    items = sorted((x for x in values if x > 0), reverse=True)
    # Bundles beyond the item count stay empty: they are the smallest values.
    forced = max(len(weights) - len(items), 0)
    if take <= forced:
        return best
    weights, take = weights[forced:], take - forced
    if take == len(weights):
        return max(best, sum(items))
    k = len(weights)
    # A bundle's state is one int, W_k * v(A_k) * kinds + the index of W_k among
    # the distinct weights, so states sort, hash and compare as plain ints
    # (with unit weights it is v(A_k)). Raising W_k * v(A_k) by one costs
    # scale // W_k in units of 1/scale.
    distinct = sorted(set(weights))
    kinds = len(distinct)
    scale = math.lcm(*distinct)
    rates = [scale // w for w in distinct]
    steps = [w * kinds for w in weights]
    seen: set[tuple[int, tuple[int, ...]]] = set()

    def ceiling(asc: list[int], pool: int) -> int:
        # Fill the lowest bundles to a common level with the pool; only the
        # final objective is floored.
        pool *= scale
        level = asc[0] // kinds
        rate = rates[asc[0] % kinds]
        t = 1
        while t < k:
            u = asc[t] // kinds
            gap = (u - level) * rate
            if gap > pool:
                break
            pool -= gap
            level = u
            rate += rates[asc[t] % kinds]
            t += 1
        if take <= t:
            return take * (level * rate + pool) // rate
        return t * (level * rate + pool) // rate + sum(s // kinds for s in asc[t:take])

    def dfs(idx: int, state: list[int], pool: int) -> None:
        nonlocal best
        counter.tick()
        asc = sorted(state)
        bound = ceiling(asc, pool)
        if bound <= best:
            return
        if idx == len(items):
            best = bound
            return
        key = (idx, tuple(asc))
        if key in seen:
            return
        seen.add(key)
        x = items[idx]
        tried: set[int] = set()
        # The last item goes to one lowest bundle only: for take = 1 any other
        # leaves the minimum as it is, and with unit weights the gain
        # min(x, s_(take+1) - s_j) is largest at the smallest s_j.
        for i in range(k) if idx + 1 < len(items) else (state.index(asc[0]),):
            if state[i] in tried:
                continue
            tried.add(state[i])
            state[i] += steps[i] * x
            dfs(idx + 1, state, pool - x)
            state[i] -= steps[i] * x

    dfs(0, [distinct.index(w) for w in weights], sum(items))
    return best


def mms_exact(valuation: Valuation, n_parts: int) -> int:
    """Maximin share over partitions into n_parts bundles: the partition
    search with one unit-weight bundle per part, maximising the smallest.
    Node count is guarded by `mms-nodes`.
    """
    if n_parts < 1:
        raise InputError(f"n_parts: must be >= 1, got {n_parts}")
    return _partition_search(valuation.item_values, [1] * n_parts, 1, _NodeCounter("mms-nodes"))


def l_out_of_d_share_exact(valuation: Valuation, l: int, d: int) -> int:
    """Worst l bundles out of a best partition into d bundles: the partition
    search over d unit-weight bundles summing the l smallest. Zero-value
    items are dropped; forced-empty bundles count as zeros. Node count is
    guarded by `partition-nodes`.
    """
    if not (1 <= l <= d):
        raise InputError(f"l-out-of-d: need 1 <= l <= d, got l={l}, d={d}")
    return _partition_search(valuation.item_values, [1] * d, l, _NodeCounter("partition-nodes"))


def pessimistic_share_exact(valuation: Valuation, b: Rat) -> int:
    """Best l-out-of-d guarantee with l/d <= b.

    Unit-fraction entitlements reduce to MMS with 1/b parts. Otherwise d
    ranges over 1..m (larger denominators cannot help for integer values),
    and for each d only l = floor(b*d) matters since the objective is
    non-decreasing in l. Each d runs the partition search seeded with the
    best value so far, so it only explores what could beat it; one
    `partition-nodes` guard spans the whole sweep.
    """
    b = check_entitlement(b)
    if b.numerator == 1:
        return mms_exact(valuation, b.denominator)
    counter = _NodeCounter("partition-nodes")
    best = 0
    for d in range(1, valuation.m + 1):
        l = math.floor(b * d)
        if l >= 1:
            best = _partition_search(valuation.item_values, [1] * d, l, counter, best)
    return best


def wmms_exact(entitlements: Sequence[Rat], i: int, valuation: Valuation) -> Rat:
    """Weighted maximin share of agent i under the given entitlement profile.

    Maximizes, over full allocations judged with agent i's valuation, the
    minimum of (b_i/b_k) * v_i(A_k). Zero whenever fewer items carry positive
    value than there are agents, since some bundle then values to nothing.
    With b_k = p_k/q and L = lcm(p), that minimum is (p_i/L) times the
    minimum of (L/p_k) * v_i(A_k): the partition search with integer weights
    L/p_k. Node count is guarded by `assignment-nodes`.
    """
    ents = _check_entitlements(entitlements)
    if not (0 <= i < len(ents)):
        raise InputError(f"agent index {i} out of range")
    q = math.lcm(*(e.denominator for e in ents))
    p = [e.numerator * (q // e.denominator) for e in ents]
    top = math.lcm(*p)
    best = _partition_search(valuation.item_values, [top // pk for pk in p], 1, _NodeCounter("assignment-nodes"))
    return Rat(p[i], top) * best


# ---------------------------------------------------------------------------
# AnyPrice share with certificates.


@dataclass(frozen=True)
class PriceCertificate:
    """Upper-bound certificate: non-negative prices summing to at most 1 under
    which no bundle of value above `value_bound` is affordable at `budget`."""

    prices: tuple[Rat, ...]
    budget: Rat
    value_bound: int

    def to_json_dict(self) -> dict:
        return {
            "prices": [rat_to_str(p) for p in self.prices],
            "budget": rat_to_str(self.budget),
            "value_bound": self.value_bound,
        }

    @staticmethod
    def from_json_dict(doc: dict) -> "PriceCertificate":
        return PriceCertificate(
            _json_field(doc, "prices", _json_rats),
            _json_field(doc, "budget", _json_rat),
            _json_field(doc, "value_bound", _json_int),
        )


@dataclass(frozen=True)
class BundleWitness:
    """Lower-bound certificate: bundles with weights summing to 1, each of
    value at least `value_floor`, covering every item with weight at most b."""

    sets: tuple[tuple[int, ...], ...]
    weights: tuple[Rat, ...]
    value_floor: int

    def to_json_dict(self) -> dict:
        return {
            "sets": [list(s) for s in self.sets],
            "weights": [rat_to_str(w) for w in self.weights],
            "value_floor": self.value_floor,
        }

    @staticmethod
    def from_json_dict(doc: dict) -> "BundleWitness":
        return BundleWitness(
            tuple(tuple(sorted(s)) for s in _json_field(doc, "sets", _json_bundles)),
            _json_field(doc, "weights", _json_rats),
            _json_field(doc, "value_floor", _json_int),
        )


class ApsResult(NamedTuple):
    value: int
    certificate: PriceCertificate
    witness: BundleWitness


def check_price_certificate(cert: PriceCertificate, valuation: Valuation) -> bool:
    if len(cert.prices) != valuation.m:
        return False
    if any(p < 0 for p in cert.prices):
        return False
    if sum(cert.prices, Rat(0)) > 1:
        return False
    best = _max_affordable_value(valuation.item_values, cert.prices, cert.budget)
    return best <= cert.value_bound


def check_bundle_witness(wit: BundleWitness, valuation: Valuation, b: Rat) -> bool:
    b = check_entitlement(b)
    if not wit.sets or len(wit.sets) != len(wit.weights):
        return False
    if any(w <= 0 for w in wit.weights):
        return False
    if sum(wit.weights, Rat(0)) != 1:
        return False
    coverage = [Rat(0)] * valuation.m
    for s, w in zip(wit.sets, wit.weights):
        if len(set(s)) != len(s):
            return False
        if any(not (0 <= j < valuation.m) for j in s):
            return False
        if valuation.value(s) < wit.value_floor:
            return False
        for j in s:
            coverage[j] += w
    return all(c <= b for c in coverage)


class _ThresholdLP(NamedTuple):
    opt: Rat
    prices: tuple[Rat, ...]
    packing: list[tuple[frozenset[int], Rat]]


def _threshold_price_lp(values: Sequence[int], b: Rat, t: int, pool: dict[frozenset[int], int]) -> _ThresholdLP:
    """min sum(p) s.t. p(S) >= b for every S with v(S) >= t, p >= 0.

    Solved through its dual, the paper's max-definition scaled by b: pack
    bundles of value >= t with weights lam, each item covered at most once,
    maximizing b * sum(lam). One `ColumnLP` (unit costs, so the prices are
    b times its duals) is warm-started column by column: every pooled bundle
    worth at least t seeds it, then `_min_price_reaching` (the state DP
    capped at t, on the LP's integer duals) adds the cheapest bundle of
    value >= t, lowest value first among the cheapest, while one has duals
    summing below 1. Every bundle found joins `pool` with its value.

    Returns (opt, prices, packing); only the one the outcome needs is
    built, the other is empty. opt < 1 is exact, and its prices, padded to
    sum exactly 1, leave every bundle of value >= t unaffordable at b.
    opt >= 1 may stop early on a restricted column set: its packing, the
    bundles of positive weight, already proves APS >= t.
    """
    if t < 1:
        raise AssertionError(f"threshold LP is only queried at positive thresholds, got {t}")
    m = len(values)
    lp = ColumnLP([1] * m)
    cols: list[frozenset[int]] = []

    def add(bundle: frozenset[int]) -> None:
        cols.append(bundle)
        lp.add_column(1, [1 if j in bundle else 0 for j in range(m)])

    for bundle, worth in pool.items():
        if worth >= t:
            add(bundle)
    while True:
        lp.solve()
        if b.numerator * lp.scaled_value >= b.denominator * lp.det:
            break
        sep = _min_price_reaching(values, lp.scaled_duals(), t)
        if sep is None or sep[0] >= lp.det:
            break
        _, bundle, worth = sep
        pool[bundle] = worth
        add(bundle)
    opt = b * lp.value
    if opt >= 1:
        return _ThresholdLP(opt, (), [(s, w) for s, w in zip(cols, lp.primal()) if w > 0])
    pad = (1 - opt) / m
    return _ThresholdLP(opt, tuple(b * y + pad for y in lp.duals()), [])


def aps_exact(valuation: Valuation, b: Rat) -> ApsResult:
    """AnyPrice share with a matching price certificate and bundle witness.

    The share value is found by binary search on the integer threshold t,
    deciding "APS < t" through the exact threshold LP. The search is
    bracketed by cheap exact bounds, unit_demand_aps <= APS <= floor(tps),
    and jumps on what each LP proves: APS <= u, the best value affordable
    at b under its padded prices, and APS >= the least value in its packing.
    Each threshold gets one warm-started LP, and a cut pool that lives for
    this call only carries every bundle found at one threshold to each
    later threshold it is worth: a bundle of value v(S) is a valid column
    for every t <= v(S). A threshold LP stops as soon as its restricted
    packing reaches 1, which already proves APS >= t.

    The certificate comes from the LP that last lowered hi to aps + 1: its
    prices, padded to sum exactly 1, leave nothing above the share
    affordable. The witness is the packing of the LP that last raised lo to
    aps, normalised to weights summing to 1: every bundle is worth at least
    the share and each item is covered at most b. An end of the bracket no
    LP set is solved at aps + 1 or aps. Both are then re-checked with
    `check_price_certificate` and `check_bundle_witness`, which raise
    AssertionError (also under -O) instead of returning a wrong share. Both
    oracles run `_subset_states`: at most min(2^m, v(M) + 1) states at any
    value scale.
    """
    b = check_entitlement(b)
    m = valuation.m
    values = valuation.item_values
    total = valuation.total
    if m == 0 or total == 0:
        cert = PriceCertificate(tuple(Rat(1, m) for _ in range(m)) if m else (), b, 0)
        wit = BundleWitness(((),), (Rat(1),), 0)
        return ApsResult(0, cert, wit)

    pool: dict[frozenset[int], int] = {}
    upper = lower = None
    lo = unit_demand_aps(values, b)
    hi = math.floor(tps(valuation, b)) + 1
    while hi - lo > 1:
        mid = (lo + hi) // 2
        res = _threshold_price_lp(values, b, mid, pool)
        if res.opt < 1:
            hi, upper = min(mid, _max_affordable_value(values, res.prices, b) + 1), res
        else:
            lo, lower = max(mid, min(pool[s] for s, _ in res.packing)), res
    aps = lo

    if upper is None:
        upper = _threshold_price_lp(values, b, aps + 1, pool)
    if upper.opt >= 1:
        raise AssertionError(f"APS search: threshold {aps + 1} is reachable, so {aps} is not the share")
    cert = PriceCertificate(upper.prices, b, aps)
    if aps == 0:
        wit = BundleWitness(((),), (Rat(1),), 0)
    else:
        if lower is None:
            lower = _threshold_price_lp(values, b, aps, pool)
        if lower.opt < 1:
            raise AssertionError(f"APS search: threshold {aps} is unreachable, so {aps} is not the share")
        if len(lower.packing) > m:
            raise AssertionError(f"APS witness: {len(lower.packing)} bundles exceed {m} items")
        mass = sum((w for _, w in lower.packing), Rat(0))
        wit = BundleWitness(
            tuple(tuple(sorted(s)) for s, _ in lower.packing),
            tuple(w / mass for _, w in lower.packing),
            aps,
        )
    if not check_price_certificate(cert, valuation):
        raise AssertionError(f"APS certificate: a bundle worth more than {aps} is affordable")
    if not check_bundle_witness(wit, valuation, b):
        raise AssertionError(f"APS witness: the packing does not prove a share of {aps}")
    return ApsResult(aps, cert, wit)


def two_agent_aps_allocation(
    v1: Valuation, v2: Valuation, b1: Rat, b2: Rat, solved: Sequence[ApsResult] | None = None
) -> Allocation:
    """Split the items between two agents so each gets at least her APS.

    Scans agent 1's bundle witness: its coverage bound forces some support
    bundle whose complement is worth at least the proportional share, and
    hence the APS, to agent 2. `solved` is `(aps_exact(v1, b1),
    aps_exact(v2, b2))` when the caller has them already.
    """
    b1, b2 = _check_entitlements((b1, b2))
    if v1.m != v2.m:
        raise InputError("valuations: item counts differ")
    res1, res2 = solved if solved is not None else (aps_exact(v1, b1), aps_exact(v2, b2))
    aps2 = res2.value
    everything = set(range(v1.m))
    for s in res1.witness.sets:
        comp = tuple(sorted(everything - set(s)))
        if v2.value(comp) >= aps2:
            return Allocation((tuple(s), comp))
    raise AssertionError("no witness bundle left the other agent whole")
