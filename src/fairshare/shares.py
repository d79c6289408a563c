"""Share notions for a single agent with an arbitrary entitlement.

Every solver takes a `Valuation` and, where relevant, an entitlement
`0 < b <= 1`, independent of any other agent. Integer-valued shares (APS,
MMS, l-out-of-d, pessimistic) return ints; the scale-dependent ones
(proportional, TPS, WMMS) return exact rationals.

`aps_exact` returns the share value together with two independently
checkable certificates: a price vector proving the upper bound and a
weighted bundle collection proving the lower bound. Their JSON forms are
read back through the wire-format readers of `core`, as every input is, and
`checked_aps` turns such a pair back into the share without solving.

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


def _peel(valuation: Valuation, b: Rat) -> tuple[list[int], int, int]:
    """The items the truncated proportional share truncates, and what is left.

    Peels the highest-value item while it exceeds the proportional share of
    what is left, inflating the entitlement to b/(1-b) at each peel. The
    entitlement stays the integer pair p/q, so b/(1-b) is p/(q-p); once it
    reaches 1/2 the next peel takes it to 1 or above, where nothing more is
    peeled. Returns the peeled items, highest first, the total V_R of the
    rest and the final q, so that TPS = p * V_R / q. Every peel has
    top * q > p * total >= p * top, so q stays positive, and every peeled
    item is worth more than the TPS.
    """
    p, q = b.numerator, b.denominator
    values = valuation.item_values
    total = valuation.total
    peeled = []
    for j in valuation.ranked_items():
        if values[j] * q <= p * total:
            break
        peeled.append(j)
        total -= values[j]
        q -= p
    return peeled, total, q


def tps(valuation: Valuation, b: Rat) -> Rat:
    """Truncated proportional share: p * V_R / q for the peel `_peel` makes.
    `aps_exact` starts its descent from prices built on the same peel."""
    b = check_entitlement(b)
    _, rest, q = _peel(valuation, b)
    return Rat(b.numerator * rest, q)


def _kth_largest(item_values: Sequence[int], k: int) -> int:
    """The k-th largest item value, 0 if absent."""
    ordered = sorted(item_values, reverse=True)
    return ordered[k - 1] if k <= len(ordered) else 0


def unit_demand_aps(item_values: Sequence[int], b: Rat) -> int:
    """APS under unit demand: the ceil(1/b)-th largest item value, 0 if absent."""
    return _kth_largest(item_values, math.ceil(1 / check_entitlement(b)))


# ---------------------------------------------------------------------------
# Knapsack primitives shared by the APS machinery and the certificate checks.


def _subset_states(
    values: Sequence[int], costs: Sequence[int], cap: int, budget: int, limit: int
) -> dict[int, tuple[int, int, int]]:
    """0/1 DP over the positive-value items keeping reachable states only (Toth
    1980): states[k] = (cost, value, mask) of the cheapest subset of value k,
    or of value >= cap at k = cap, ties to the lower value, among the subsets
    that cost at most `budget`. Costs are non-negative ints, in whatever unit
    the caller scaled the prices to, so a state above the budget only gets
    dearer and is never kept (Beier & Voecking 2003); every state within it
    is the one the unbudgeted DP keeps. The state count is guarded by
    `knapsack-value` at `limit`, the `guard_limit()` its caller read once; it
    is at most min(2^m, cap + 1) at any value scale and never more than the
    unbudgeted DP's, so the guard trips no more often."""
    if budget < 0:
        return {}
    states = {0: (0, 0, 0)}
    for j, v in enumerate(values):
        p = costs[j]
        if v <= 0 or p > budget:
            continue
        bit = 1 << j
        for cost, worth, mask in list(states.values()):
            cost += p
            if cost > budget:
                continue
            worth += v
            key = worth if worth < cap else cap
            old = states.get(key)
            if old is None and len(states) == limit:
                raise GuardError("knapsack-value", limit, limit + 1)
            if old is None or cost < old[0] or (cost == old[0] and worth < old[1]):
                states[key] = (cost, worth, mask | bit)
    return states


def _min_price_reaching(
    values: Sequence[int], costs: Sequence[int], target: int, bound: int, limit: int
) -> tuple[int, frozenset[int], int] | None:
    """Cheapest subset with value >= target, as (cost, subset, value), or
    None if none reaches it at a cost below `bound`. Ties go to the lowest
    value."""
    if target <= 0:
        return (0, frozenset(), 0) if bound > 0 else None
    if target > sum(values):
        return None
    state = _subset_states(values, costs, target, bound - 1, limit).get(target)
    if state is None:
        return None
    cost, worth, mask = state
    return cost, frozenset(j for j in range(len(values)) if mask >> j & 1), worth


def _max_worth(values: Sequence[int], costs: Sequence[int], budget: int, limit: int) -> int:
    """Highest subset value at integer costs within an integer budget."""
    states = _subset_states(values, costs, sum(values), budget, limit)
    return max((worth for _, worth, _ in states.values()), default=0)


# ---------------------------------------------------------------------------
# Partition-based shares: one branch and bound behind all four.


class _CapReached(Exception):
    """A partition search found a leaf worth its cap, so nothing beats it."""


def _partition_search(
    values: Sequence[int],
    weights: Sequence[int],
    take: int,
    counter: _NodeCounter,
    best: int = 0,
    cap: int | None = None,
) -> int:
    """Largest sum of the `take` smallest weighted bundle values W_k * v(A_k)
    over assignments of the items to len(weights) bundles, or `best` if no
    assignment beats it.

    `cap` is an upper bound on the answer that the caller holds, an APS by
    the paper's share chain. The search ends at the first leaf worth the
    cap, which is then optimal, and a leaf worth more raises AssertionError,
    also under -O: it would contradict the chain, so the cap or the search
    is wrong.

    Positive items are placed in descending order, each trying the lowest
    bundle first, so the first leaf is the LPT split (Graham 1969; Korf
    2009). Bundles with equal (W_k, v(A_k)) are interchangeable, so an item
    tries only one of them and a node, the sorted bundle states, is expanded
    once (memo); the last item tries only a lowest bundle.
    An integer water-filling bound, the best objective if the remaining
    value could be split fractionally, prunes every state that cannot beat
    the incumbent; it is exact at the leaves and assumes unit weights when
    take > 1. A count caps it: r items left lift at most r bundles, so
    `take` of the lowest r + take bundles keep their state.
    """
    items = sorted((x for x in values if x > 0), reverse=True)
    k = len(weights)
    # A bundle's state is one int, W_k * v(A_k) * kinds + the index of W_k among
    # the distinct weights, so states sort, hash and compare as plain ints
    # (with unit weights it is v(A_k)). Raising W_k * v(A_k) by one costs
    # scale // W_k in units of 1/scale.
    distinct = sorted(set(weights))
    kinds = len(distinct)
    scale = math.lcm(*distinct)
    rates = [scale // w for w in distinct]
    steps = [w * kinds for w in distinct]
    seen: set[tuple[int, tuple[int, ...]]] = set()

    def ceiling(asc: tuple[int, ...], pool: int) -> int:
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

    def dfs(idx: int, asc: tuple[int, ...], pool: int) -> None:
        nonlocal best
        counter.tick()
        bound = ceiling(asc, pool)
        j = len(items) - idx + take - 1  # r + take - 1, with r items left
        if j < k:
            bound = min(bound, take * (asc[j] // kinds))
        if bound <= best:
            return
        if idx == len(items):
            best = bound
            if cap is not None and bound >= cap:
                if bound > cap:
                    raise AssertionError(f"partition search: a split worth {bound} exceeds its cap {cap}")
                raise _CapReached
            return
        if (idx, asc) in seen:
            return
        seen.add((idx, asc))
        x = items[idx]
        # The last item goes to one lowest bundle only: for take = 1 any other
        # leaves the minimum as it is, and with unit weights the gain
        # min(x, s_(take+1) - s_j) is largest at the smallest s_j.
        for t in range(k if idx + 1 < len(items) else 1):
            s = asc[t]
            if t == 0 or s != asc[t - 1]:
                child = list(asc)
                child[t] = s + steps[s % kinds] * x
                child.sort()
                dfs(idx + 1, tuple(child), pool - x)

    try:
        dfs(0, tuple(sorted(distinct.index(w) for w in weights)), sum(items))
    except _CapReached:
        pass
    return best


def mms_exact(valuation: Valuation, n_parts: int, aps: int | None = None) -> int:
    """Maximin share over partitions into n_parts bundles: the partition
    search with one unit-weight bundle per part, maximising the smallest.
    Node count is guarded by `mms-nodes`.

    `aps` is APS(valuation, 1/n_parts) when the caller has it. The paper's
    chain gives MMS <= APS at that entitlement, so it caps the search: a
    split worth the APS ends it, and one worth more raises AssertionError.
    """
    if n_parts < 1:
        raise InputError(f"n_parts: must be >= 1, got {n_parts}")
    return _partition_search(valuation.item_values, [1] * n_parts, 1, _NodeCounter("mms-nodes"), cap=aps)


def l_out_of_d_share_exact(valuation: Valuation, l: int, d: int) -> int:
    """Worst l bundles out of a best partition into d bundles: the partition
    search over d unit-weight bundles summing the l smallest. Zero-value
    items are dropped; forced-empty bundles count as zeros. Node count is
    guarded by `partition-nodes`.
    """
    if not (1 <= l <= d):
        raise InputError(f"l-out-of-d: need 1 <= l <= d, got l={l}, d={d}")
    return _partition_search(valuation.item_values, [1] * d, l, _NodeCounter("partition-nodes"))


def pessimistic_share_exact(valuation: Valuation, b: Rat, aps: int | None = None) -> int:
    """Best l-out-of-d guarantee with l/d <= b.

    l ranges over 1..floor(b*m) (more than m bundles only add empty ones),
    and two facts leave one search per l at most. For a fixed l, fewer
    bundles never hurt: merging the two largest bundles keeps the l smallest
    or raises them. So only the least d = ceil(l/b) counts. A pair with
    g = gcd(l, d) > 1 is dominated by (l/g)-out-of-(d/g): grouping the
    sorted bundles round-robin into d/g groups of g, any l/g groups hold l
    bundles, worth at least the l smallest. So only coprime pairs are
    searched; a unit fraction b = 1/q searches l = 1, d = q alone, its MMS.
    Each search is seeded with the best value so far, so it only explores
    what could beat it; one `partition-nodes` guard spans the whole sweep.

    `aps` is APS(valuation, b) when the caller has it. The paper's chain
    gives pessimistic <= APS, so it caps every search, and the sweep stops
    once a split reaches it; a split worth more raises AssertionError.
    """
    b = check_entitlement(b)
    counter = _NodeCounter("partition-nodes")
    best = 0
    for l in range(1, math.floor(b * valuation.m) + 1):
        d = math.ceil(l / b)
        if math.gcd(l, d) == 1:
            best = _partition_search(valuation.item_values, [1] * d, l, counter, best, aps)
            if best == aps:
                break
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
    def from_json_dict(doc: dict, at: str = "") -> "PriceCertificate":
        """The certificate `doc`, read at field path `at`."""
        return PriceCertificate(
            _json_field(doc, "prices", _json_rats, at),
            _json_field(doc, "budget", _json_rat, at),
            _json_field(doc, "value_bound", _json_int, at),
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
    def from_json_dict(doc: dict, at: str = "") -> "BundleWitness":
        """The witness `doc`, read at field path `at`."""
        return BundleWitness(
            tuple(tuple(sorted(s)) for s in _json_field(doc, "sets", _json_bundles, at)),
            _json_field(doc, "weights", _json_rats, at),
            _json_field(doc, "value_floor", _json_int, at),
        )


class ApsResult(NamedTuple):
    value: int
    certificate: PriceCertificate
    witness: BundleWitness

    def to_json_dict(self) -> dict:
        """The entry `shares` and `allocate` write and `checked_aps` reads."""
        return {
            "value": self.value,
            "certificate": self.certificate.to_json_dict(),
            "witness": self.witness.to_json_dict(),
        }


def check_price_certificate(cert: PriceCertificate, valuation: Valuation) -> bool:
    """One price per item, none negative, summing to at most 1, and no bundle
    within the budget worth more than `value_bound`. Every test runs on the
    prices as ints over their common denominator, at which the budget is its
    floor (an int cost is within a budget exactly when within its floor)."""
    if len(cert.prices) != valuation.m:
        return False
    scale = math.lcm(*(p.denominator for p in cert.prices))
    costs = [p.numerator * (scale // p.denominator) for p in cert.prices]
    if any(c < 0 for c in costs) or sum(costs) > scale:
        return False
    budget = cert.budget.numerator * scale // cert.budget.denominator
    return _max_worth(valuation.item_values, costs, budget, guard_limit()) <= cert.value_bound


def check_bundle_witness(wit: BundleWitness, valuation: Valuation, b: Rat) -> bool:
    b = check_entitlement(b)
    if len(wit.sets) != len(wit.weights):
        return False
    if any(w <= 0 for w in wit.weights):
        return False
    # The weights and b as ints over their common denominator.
    scale = math.lcm(b.denominator, *(w.denominator for w in wit.weights))
    units = [w.numerator * (scale // w.denominator) for w in wit.weights]
    if sum(units) != scale:
        return False
    coverage = [0] * valuation.m
    for s, w in zip(wit.sets, units):
        if len(set(s)) != len(s):
            return False
        if any(not (0 <= j < valuation.m) for j in s):
            return False
        if valuation.value(s) < wit.value_floor:
            return False
        for j in s:
            coverage[j] += w
    cap = b.numerator * (scale // b.denominator)
    return all(c <= cap for c in coverage)


def checked_aps(doc, valuation: Valuation, b: Rat, at: str = "aps") -> ApsResult:
    """The APS that the JSON entry `doc` at field path `at` proves for
    `valuation` at entitlement `b`, without the threshold descent.

    `doc` is `{"value", "certificate", "witness"}`, as `shares` and
    `allocate` write `aps_exact`'s result. The certificate, at budget b,
    proves APS <= its `value_bound` and the witness APS >= its `value_floor`
    (the two definitions of the share, a minimum over prices and a maximum
    over packings); when both check and both bounds are `value`, the APS is
    `value`. Any other entry raises InputError naming the field that fails.
    """
    value = _json_field(doc, "value", _json_int, at)
    cert = _json_field(doc, "certificate", PriceCertificate.from_json_dict, at)
    wit = _json_field(doc, "witness", BundleWitness.from_json_dict, at)
    if cert.budget != b:
        raise InputError(
            f"{at}.certificate.budget: {rat_to_str(cert.budget)} is not the entitlement {rat_to_str(b)}"
        )
    if not value == cert.value_bound == wit.value_floor:
        raise InputError(
            f"{at}.value: {value}, certificate.value_bound {cert.value_bound} "
            f"and witness.value_floor {wit.value_floor} differ"
        )
    if not check_price_certificate(cert, valuation):
        raise InputError(f"{at}.certificate: does not prove APS <= {value}")
    if not check_bundle_witness(wit, valuation, b):
        raise InputError(f"{at}.witness: does not prove APS >= {value}")
    return ApsResult(value, cert, wit)


def _threshold_price_lp(
    values: Sequence[int], b: Rat, t: int, lp: ColumnLP, cols: list[frozenset[int]], limit: int
) -> bool:
    """min sum(p) s.t. p(S) >= b for every S with v(S) >= t, p >= 0, and
    whether its optimum reaches 1.

    Solved through its dual, the paper's max-definition scaled by b: pack
    bundles of value >= t with weights lam, each item covered at most once,
    maximizing b * sum(lam). `lp` is that packing (unit costs, so the prices
    are b times its duals) over the bundles `cols`, each worth at least t. It
    resumes from its current basis, and `_min_price_reaching` (the state DP
    capped at t, on the LP's integer duals, keeping only the states that cost
    below det: a dearer column is rejected anyway) adds the cheapest bundle
    of value >= t, lowest value first among the cheapest, to both while one
    has duals summing below 1.

    The answer is read off `lp`. False is exact: opt = b * lp.value < 1, and
    the prices b * lp.duals(), padded to sum exactly 1, leave every bundle of
    value >= t unaffordable at b. True may stop early on a restricted column
    set: the bundles of `cols` with positive weight in lp.primal() already
    pack to 1 and prove APS >= t.
    """
    if t < 1:
        raise AssertionError(f"threshold LP is only queried at positive thresholds, got {t}")
    while True:
        lp.solve()
        if b.numerator * lp.scaled_value >= b.denominator * lp.det:
            return True
        sep = _min_price_reaching(values, lp.scaled_duals(), t, lp.det, limit)
        if sep is None:
            return False
        cols.append(sep[1])
        lp.add_column(1, [1 if j in sep[1] else 0 for j in range(len(values))])


def _tps_prices(valuation: Valuation, b: Rat) -> tuple[list[int], list[int], int]:
    """Prices built on the TPS peel under which nothing worth more than
    floor(TPS) is affordable at b: the peeled items, and the prices as
    integer costs over a scale that q divides, so the budget is the int
    p * scale / q.

    With k items peeled, V_R the total of the rest and T = floor(TPS), each
    peeled item costs the midpoint pi of (b, (1 - b * V_R / (T + 1)) / k),
    an interval that is open because TPS = b * V_R / (1 - k * b) < T + 1,
    and each other item j costs (1 - k * pi) * v_j / V_R. A peeled item then
    costs more than b, and a bundle of the rest is affordable exactly when
    its value is at most b * V_R / (1 - k * pi) < T + 1. With k = 0 the
    prices are v_j / V_R, affordable exactly up to the TPS itself. When V_R
    is 0 the peeled items share the mass evenly, or every item does when
    none is peeled, and only bundles worth 0 are affordable.
    """
    m = valuation.m
    values = valuation.item_values
    peeled, rest, q = _peel(valuation, b)
    k = len(peeled)
    if rest == 0:
        owners = peeled or range(m)
        prices = [Rat(0)] * m
        for j in owners:
            prices[j] = Rat(1, len(owners))
    else:
        pi = Rat(0)
        if k:
            floor_tps = b.numerator * rest // q
            pi = (b + (1 - b * rest / (floor_tps + 1)) / k) / 2
        rate = (1 - k * pi) / rest
        prices = [rate * x for x in values]
        for j in peeled:
            prices[j] = pi
    scale = math.lcm(b.denominator, *(x.denominator for x in prices))
    return peeled, [x.numerator * (scale // x.denominator) for x in prices], scale


def aps_exact(valuation: Valuation, b: Rat) -> ApsResult:
    """AnyPrice share with a matching price certificate and bundle witness.

    The share is found by a descent on the integer threshold t through the
    exact threshold LP, each LP's prices giving the next threshold (the
    parametric step of Dinkelbach 1967). It starts from the prices of
    `_tps_prices`, built on the TPS peel: the best value u affordable at b
    under them is at most floor(TPS), so APS <= u, and u is the first
    threshold. While the LP at t has opt < 1, its prices b * duals, padded
    to sum exactly 1, prove APS <= u, the best value affordable at b under
    them, and u < t; t drops to u. With b = p/q, the LP's integer duals and
    value give these prices as integer costs over the scale q * det * m, at
    which the budget is p * det * m, so each step runs the DP on ints and
    builds no Fraction. The descent stops at t = 0 or at the first t whose
    LP packing reaches 1, which proves APS >= t, so APS = t. An all-zero
    valuation, one with no items included, affords only 0 under the start
    prices and runs no LP.

    Thresholds only fall, so a bundle found at one is a valid column at
    every later one: the whole call warm-starts one `ColumnLP`. Its first
    columns are the peeled items alone, each worth more than the TPS. The
    certificate is the last prices that set a threshold, the start prices
    when the first LP reaches 1, built as Rats once the descent stops; they
    leave nothing above the share affordable. The witness is the LP's primal
    packing at the threshold that stopped the descent, read as integers
    (`scaled_primal`) and normalised to weights w / sum(w): every bundle is
    worth at least the share and each item is covered at most b. Both are
    re-checked with `check_price_certificate` and `check_bundle_witness`,
    which raise AssertionError (also under -O) instead of returning a wrong
    share. Every knapsack DP of the call runs `_subset_states` under one
    `guard_limit()` read, and keeps only the states within its budget: at
    most min(2^m, v(M) + 1) states at any value scale, and `knapsack-value`
    counts no more of them than an unbudgeted DP would.
    """
    b = check_entitlement(b)
    m = valuation.m
    values = valuation.item_values
    limit = guard_limit()
    p, q = b.numerator, b.denominator
    peeled, costs, scale = _tps_prices(valuation, b)
    t = _max_worth(values, costs, p * scale // q, limit)
    lp = ColumnLP([1] * m)
    cols = [frozenset((j,)) for j in peeled]
    for (j,) in cols:
        lp.add_column(1, [1 if i == j else 0 for i in range(m)])
    while t > 0 and not _threshold_price_lp(values, b, t, lp, cols, limit):
        pad = q * lp.det - p * lp.scaled_value
        costs = [p * m * y + pad for y in lp.scaled_duals()]
        scale = q * lp.det * m
        u = _max_worth(values, costs, p * lp.det * m, limit)
        if u >= t:
            raise AssertionError(f"APS search: {u} is affordable under prices that exclude every bundle worth {t}")
        t = u
    aps = t
    cert = PriceCertificate(tuple(Rat(c, scale) for c in costs), b, aps)
    if aps == 0:
        wit = BundleWitness(((),), (Rat(1),), 0)
    else:
        packing = [(s, w) for s, w in zip(cols, lp.scaled_primal()) if w > 0]
        if len(packing) > m:
            raise AssertionError(f"APS witness: {len(packing)} bundles exceed {m} items")
        mass = sum(w for _, w in packing)
        wit = BundleWitness(
            tuple(tuple(sorted(s)) for s, _ in packing),
            tuple(Rat(w, mass) for _, w in packing),
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
