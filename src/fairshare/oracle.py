"""Brute-force reference solvers for the test suite.

Everything here recomputes results from first principles, deliberately
sharing no algorithmic machinery with the production solvers: subsets and
partitions are enumerated outright, and the one linear program is solved by
a separate revised simplex that only reports the optimum. Hard size caps
keep the blowup in check; these functions are for cross-checking, not use.
"""

from __future__ import annotations

from itertools import accumulate, product
from typing import Sequence

from .bidding import AgentView, Strategy
from .core import GuardError, InputError, Rat, Valuation, rat_to_str

APS_BRUTE_MAX_ITEMS = 12
PARTITION_BRUTE_MAX_ITEMS = 10
PARTITION_BRUTE_MAX_AGENTS = 4
GAME_TREE_MAX_ITEMS = 6


def _check_budget(b: Rat) -> Rat:
    b = Rat(b)
    if not (0 < b <= 1):
        raise InputError(f"entitlement: must satisfy 0 < b <= 1, got {rat_to_str(b)}")
    return b


def _revised_simplex_value(c: list[Rat], cols: list[list[Rat]], rhs: list[Rat]) -> Rat:
    """Optimum of max c.x s.t. sum_j x_j * cols[j] <= rhs, x >= 0, rhs >= 0.

    Revised simplex with an explicit basis inverse and Bland's rule; slacks
    are indexed after the structural variables.
    """
    m = len(rhs)
    n = len(cols)

    def column(j: int) -> list[Rat]:
        if j < n:
            return cols[j]
        return [Rat(1) if i == j - n else Rat(0) for i in range(m)]

    def cost(j: int) -> Rat:
        return c[j] if j < n else Rat(0)

    binv = [[Rat(1) if i == k else Rat(0) for k in range(m)] for i in range(m)]
    basis = [n + i for i in range(m)]
    xb = [Rat(r) for r in rhs]
    while True:
        y = [sum(cost(basis[k]) * binv[k][i] for k in range(m)) for i in range(m)]
        enter = -1
        for j in range(n + m):
            if j in basis:
                continue
            reduced = cost(j) - sum(y[i] * column(j)[i] for i in range(m))
            if reduced > 0:
                enter = j
                break
        if enter < 0:
            return sum(cost(basis[k]) * xb[k] for k in range(m))
        col = column(enter)
        direction = [sum(binv[k][i] * col[i] for i in range(m)) for k in range(m)]
        leave = -1
        best: Rat | None = None
        for k in range(m):
            if direction[k] > 0:
                ratio = xb[k] / direction[k]
                if best is None or ratio < best or (ratio == best and basis[k] < basis[leave]):
                    best = ratio
                    leave = k
        if leave < 0:
            raise ValueError("unbounded oracle linear program")
        piv = direction[leave]
        binv[leave] = [x / piv for x in binv[leave]]
        xb[leave] = xb[leave] / piv
        for k in range(m):
            if k == leave:
                continue
            f = direction[k]
            if f != 0:
                binv[k] = [binv[k][i] - f * binv[leave][i] for i in range(m)]
                xb[k] = xb[k] - f * xb[leave]
        basis[leave] = enter


def aps_brute(valuation: Valuation, b: Rat) -> int:
    """AnyPrice share by direct subset enumeration.

    For each candidate threshold z the fractional feasibility program over
    all inclusion-minimal bundles of value at least z is solved exactly; the
    share is the largest z whose program reaches total weight 1.
    """
    b = _check_budget(b)
    m = valuation.m
    if m > APS_BRUTE_MAX_ITEMS:
        raise GuardError("aps-brute-items", APS_BRUTE_MAX_ITEMS, m)
    vals = valuation.item_values
    size = 1 << m
    value = [0] * size
    for mask in range(1, size):
        low = mask & (mask - 1)
        value[mask] = value[low] + vals[(mask ^ low).bit_length() - 1]

    def feasible(z: int) -> bool:
        masks = [
            mask
            for mask in range(size)
            if value[mask] >= z
            and all(value[mask ^ (1 << j)] < z for j in range(m) if mask >> j & 1)
        ]
        if not masks:
            return False
        cols = [[Rat(1) if mask >> i & 1 else Rat(0) for i in range(m)] for mask in masks]
        c = [Rat(1)] * len(masks)
        rhs = [Rat(b)] * m
        return _revised_simplex_value(c, cols, rhs) >= 1

    candidates = sorted({value[mask] for mask in range(size) if value[mask] > 0})
    lo, hi = -1, len(candidates)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if feasible(candidates[mid]):
            lo = mid
        else:
            hi = mid
    return candidates[lo] if lo >= 0 else 0


def _canonical_assignments(count: int, parts: int):
    """Restricted growth strings: item 0 sits in part 0, each later item in an
    already-open part or the next fresh one."""

    assign = [0] * count

    def rec(idx: int, used: int):
        if idx == count:
            yield assign
            return
        top = min(used + 1, parts)
        for p in range(top):
            assign[idx] = p
            yield from rec(idx + 1, max(used, p + 1))

    if count == 0:
        yield assign
    else:
        yield from rec(0, 0)


def _guard_partition_sizes(valuation: Valuation, parts: int) -> None:
    if valuation.m > PARTITION_BRUTE_MAX_ITEMS:
        raise GuardError("partition-brute-items", PARTITION_BRUTE_MAX_ITEMS, valuation.m)
    if parts > PARTITION_BRUTE_MAX_AGENTS:
        raise GuardError("partition-brute-agents", PARTITION_BRUTE_MAX_AGENTS, parts)


def mms_brute(valuation: Valuation, n_parts: int) -> int:
    """Maximin share by enumerating every partition."""
    if n_parts < 1:
        raise InputError(f"n_parts: must be >= 1, got {n_parts}")
    _guard_partition_sizes(valuation, n_parts)
    vals = list(valuation.item_values)
    best = 0
    for assign in _canonical_assignments(len(vals), n_parts):
        sums = [0] * n_parts
        for j, p in enumerate(assign):
            sums[p] += vals[j]
        low = min(sums)
        if low > best:
            best = low
    return best


def pessimistic_brute(valuation: Valuation, b: Rat) -> int:
    """Best l-out-of-d value over every pair with l/d <= b and d up to m.

    One pass over the set partitions serves every d >= k, the number of
    non-empty parts, padding with d - k empty ones. Values are non-negative,
    so the largest l with l/d <= b is best."""
    b = _check_budget(b)
    m = valuation.m
    if m > PARTITION_BRUTE_MAX_ITEMS:
        raise GuardError("partition-brute-items", PARTITION_BRUTE_MAX_ITEMS, m)
    vals = list(valuation.item_values)
    most = [b.numerator * d // b.denominator for d in range(m + 1)]
    best = 0
    for assign in _canonical_assignments(m, m):
        k = max(assign) + 1 if assign else 0
        sums = [0] * k
        for j, p in enumerate(assign):
            sums[p] += vals[j]
        prefix = list(accumulate(sorted(sums), initial=0))
        for d in range(max(k, 1), m + 1):
            nonempty = most[d] - (d - k)
            if nonempty > 0 and prefix[nonempty] > best:
                best = prefix[nonempty]
    return best


def wmms_brute(entitlements: Sequence[Rat], i: int, valuation: Valuation) -> Rat:
    """Weighted maximin share by enumerating every assignment of items."""
    ents = [_check_budget(e) for e in entitlements]
    if sum(ents, Rat(0)) != 1:
        raise InputError(f"entitlements: sum {rat_to_str(sum(ents, Rat(0)))} != 1")
    n = len(ents)
    if not (0 <= i < n):
        raise InputError(f"agent index {i} out of range")
    if valuation.m > PARTITION_BRUTE_MAX_ITEMS:
        raise GuardError("partition-brute-items", PARTITION_BRUTE_MAX_ITEMS, valuation.m)
    if n > PARTITION_BRUTE_MAX_AGENTS:
        raise GuardError("partition-brute-agents", PARTITION_BRUTE_MAX_AGENTS, n)
    vals = list(valuation.item_values)
    best = Rat(0)
    for assign in product(range(n), repeat=len(vals)):
        sums = [0] * n
        for j, k in enumerate(assign):
            sums[k] += vals[j]
        score = min(ents[i] / ents[k] * sums[k] for k in range(n))
        if score > best:
            best = score
    return best


def game_tree_oracle(valuation: Valuation, b: Rat, strategy: Strategy) -> int:
    """Exact worst-case bundle value of a strategy against a clairvoyant
    adversarial coalition holding budget 1-b.

    Full minimization over the coalition's moves: each round it either lets
    the agent win her bid, or outbids her at that exact price and removes a
    non-empty prefix of her top-valued remaining items, paying per item. The
    pattern-based adversary plays a subset of these moves, so this bound is
    at most any pattern simulation's value.
    """
    b = _check_budget(b)
    m = valuation.m
    if m > GAME_TREE_MAX_ITEMS:
        raise GuardError("game-tree-items", GAME_TREE_MAX_ITEMS, m)
    vals = valuation.item_values

    def agent_order(remaining: tuple[int, ...]) -> list[int]:
        return sorted(remaining, key=lambda j: (-vals[j], j))

    def rec(strat: Strategy, remaining: tuple[int, ...], budget_a: Rat, budget_adv: Rat, bundle: tuple[int, ...], depth: int) -> int:
        if not remaining:
            return valuation.value(bundle)
        view = AgentView(depth, remaining, budget_a, budget_a + budget_adv, bundle)
        probe = strat.clone()
        raw = probe.bid(view)
        bid = raw if isinstance(raw, (int, Rat)) and not isinstance(raw, bool) else Rat(0)
        bid = Rat(bid)
        if not (0 <= bid <= budget_a):
            bid = Rat(0)
        worst: int | None = None
        if bid > 0:
            chooser = probe.clone()
            wview = AgentView(depth, remaining, budget_a, budget_a + budget_adv, bundle, winning_bid=bid)
            taken = chooser.select(wview)
            ok = (
                isinstance(taken, (tuple, list))
                and taken
                and len(set(taken)) == len(taken)
                and set(taken) <= set(remaining)
                and bid * len(taken) <= budget_a
            )
            if not ok:
                taken = (agent_order(remaining)[0],)
            taken = tuple(taken)
            left = tuple(j for j in remaining if j not in set(taken))
            got = rec(chooser, left, budget_a - bid * len(taken), budget_adv, bundle + taken, depth + 1)
            worst = got
        order = agent_order(remaining)
        if bid == 0:
            max_take = len(order)
        else:
            max_take = 0
            while max_take < len(order) and bid * (max_take + 1) <= budget_adv:
                max_take += 1
        for size in range(1, max_take + 1):
            left = tuple(j for j in remaining if j not in set(order[:size]))
            got = rec(probe, left, budget_a, budget_adv - bid * size, bundle, depth + 1)
            if worst is None or got < worst:
                worst = got
        assert worst is not None, "adversary always has a move"
        return worst

    return rec(strategy, tuple(range(m)), Rat(b), 1 - Rat(b), (), 1)
