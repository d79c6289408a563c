"""Greedy envy-free-up-to-any-good allocation for equal entitlements.

Items of an ordered instance are placed one at a time on an agent nobody
envies, after rotating bundles along strict-envy cycles until none remain.
Tie-breaking among unenvied agents alternates: whenever the rule picks one
agent over another, the passed-over agent is preferred at their next tie.

On ordered instances the running allocation stays EFX throughout, and the
final bundle of every agent is worth at least min(3/4 of her AnyPrice share,
2n/(3n-1) of her truncated proportional share).
"""

from __future__ import annotations

from .core import Allocation, InputError, Instance, is_ordered, lift_allocation, ordered_version


def _envy_adjacency(bundles: list[list[int]], inst: Instance) -> list[list[int]]:
    n = inst.n
    own = [inst.agent_value(i, bundles[i]) for i in range(n)]
    adj: list[list[int]] = []
    for i in range(n):
        adj.append([j for j in range(n) if j != i and inst.agent_value(i, bundles[j]) > own[i]])
    return adj


def _find_cycle(adj: list[list[int]]) -> list[int] | None:
    """First strict-envy cycle found by DFS from the lowest agent index,
    exploring neighbors in ascending order; None if the graph is acyclic."""
    n = len(adj)
    color = [0] * n
    path: list[int] = []

    def dfs(u: int) -> list[int] | None:
        color[u] = 1
        path.append(u)
        for w in adj[u]:
            if color[w] == 1:
                return path[path.index(w):]
            if color[w] == 0:
                found = dfs(w)
                if found is not None:
                    return found
        color[u] = 2
        path.pop()
        return None

    for start in range(n):
        if color[start] == 0:
            found = dfs(start)
            if found is not None:
                return found
    return None


def _rotate(bundles: list[list[int]], cycle: list[int]) -> None:
    # cycle[k] envies cycle[k+1]; everyone receives the bundle they envy.
    saved = [bundles[a] for a in cycle]
    for idx, agent in enumerate(cycle):
        bundles[agent] = saved[(idx + 1) % len(cycle)]


def resolve_envy_cycles(alloc: Allocation, inst: Instance) -> Allocation:
    """Rotate bundles along strict-envy cycles until the envy graph is acyclic.

    Each rotation gives every agent on the cycle a bundle she strictly
    prefers, so the sum of own-bundle values strictly increases and the loop
    terminates.
    """
    bundles = [list(b) for b in alloc.bundles]
    _resolve(bundles, inst)
    return Allocation(tuple(tuple(b) for b in bundles))


def _resolve(bundles: list[list[int]], inst: Instance) -> tuple[list[list[int]], list[list[int]]]:
    """Rotate until the envy graph is acyclic; return the cycles and that graph."""
    rotations: list[list[int]] = []
    # Every rotation strictly increases the integer sum of own-bundle values,
    # which never exceeds the sum of the valuation totals.
    cap = sum(v.total for v in inst.valuations) + 1
    while True:
        adj = _envy_adjacency(bundles, inst)
        cycle = _find_cycle(adj)
        if cycle is None:
            return rotations, adj
        _rotate(bundles, cycle)
        rotations.append(cycle)
        if len(rotations) > cap:
            raise AssertionError("envy rotation failed to terminate")


def _pair(a: int, b: int) -> tuple[int, int]:
    return (a, b) if a < b else (b, a)


def _choose(eligible: list[int], prefer: dict[tuple[int, int], int]) -> int:
    """Pick the receiving agent among the unenvied ones.

    An agent is deferred when she beat some other present agent at their last
    tie; among the rest the lowest index wins, and the winner now owes a
    deferral to every other present agent.
    """
    elig = sorted(eligible)
    if len(elig) == 1:
        return elig[0]
    fresh = [a for a in elig if all(prefer.get(_pair(a, e)) != e for e in elig if e != a)]
    winner = fresh[0] if fresh else elig[0]
    for e in elig:
        if e != winner:
            prefer[_pair(winner, e)] = e
    return winner


def _assert_efx(bundles: list[list[int]], inst: Instance) -> None:
    # Bundles grow by item index, and ordered values are non-increasing, so
    # the last-added item is a least-valued one under every valuation.
    for i in range(inst.n):
        own = inst.agent_value(i, bundles[i])
        for j in range(inst.n):
            if i == j or not bundles[j]:
                continue
            reduced = inst.agent_value(i, bundles[j][:-1])
            if reduced > own:
                raise AssertionError(f"EFX invariant broken for pair ({i}, {j})")


def greedy_efx(inst: Instance) -> tuple[Allocation, list[dict]]:
    """Run the greedy placement on an ordered, equal-entitlement instance.

    Returns the allocation and a per-item trace: the receiving agent and the
    envy cycles rotated away immediately before each placement.
    """
    if not is_ordered(inst):
        raise InputError("greedy-efx: instance must be ordered (non-increasing values)")
    if not inst.equal_entitlements():
        raise InputError("greedy-efx: equal entitlements required")
    bundles: list[list[int]] = [[] for _ in range(inst.n)]
    prefer: dict[tuple[int, int], int] = {}
    trace: list[dict] = []
    for item in range(inst.m):
        rotations, adj = _resolve(bundles, inst)
        envied = {j for i in range(inst.n) for j in adj[i]}
        eligible = [i for i in range(inst.n) if i not in envied]
        if not eligible:
            raise AssertionError("acyclic envy graph must leave someone unenvied")
        winner = _choose(eligible, prefer)
        bundles[winner].append(item)
        trace.append({"item": item, "to": winner, "rotations": rotations})
        _assert_efx(bundles, inst)
    return Allocation(tuple(tuple(b) for b in bundles)), trace


def greedy_efx_full(inst: Instance) -> Allocation:
    """Order the instance, run the greedy placement, and lift the result back
    to the original items. Equal entitlements only."""
    ordered_alloc, _ = greedy_efx(ordered_version(inst))
    return lift_allocation(inst, ordered_alloc)
