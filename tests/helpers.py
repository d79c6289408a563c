"""Shared instance builders for the test suite.

Random builders take an explicit random.Random so every test seeds its own
stream and stays reproducible.
"""

from __future__ import annotations

import random
from collections.abc import Callable

from fairshare import (
    Instance,
    Rat,
    Valuation,
    enumerate_win_patterns,
    make_instance,
    worst_case_adversary,
)
from fairshare.bidding import _duel, _sweep


def adversary_sweep_min(valuation: Valuation, b: Rat, make_strategy: Callable) -> int | None:
    """Worst value over every concession pattern, fresh strategy per pattern.

    Transcripts always run to completion (an exhausted coalition is forced to
    concede), so every pattern contributes a real outcome.
    """
    worst: int | None = None
    for wins in enumerate_win_patterns(valuation.m):
        t = worst_case_adversary(valuation, b, make_strategy(), wins)
        got = valuation.value(t.allocation.bundles[0])
        if worst is None or got < worst:
            worst = got
    return worst


def sweep_transcripts(valuation: Valuation, b: Rat, strategy):
    """Yield `(wins, transcript)` once for every pattern of
    `enumerate_win_patterns(valuation.m)`, as one prefix-tree sweep plays
    them: `strategy` plays the no-concession line, and a pattern that
    concedes a round bid at 0, or one past its line's last round, shares the
    transcript of the line it folds into."""
    for patterns, game in _sweep(_duel(valuation, b), strategy, enumerate_win_patterns(valuation.m)):
        transcript = game.transcript()
        for wins in patterns:
            yield wins, transcript


def rand_valuation(rng: random.Random, m_max: int = 8, vmax: int = 10, m_min: int = 1) -> Valuation:
    m = rng.randint(m_min, m_max)
    return Valuation(tuple(rng.randint(0, vmax) for _ in range(m)))


def rand_entitlement(rng: random.Random, max_den: int = 6) -> Rat:
    den = rng.randint(1, max_den)
    return Rat(rng.randint(1, den), den)


def rand_entitlements(rng: random.Random, n: int) -> list[Rat]:
    # positive integer weights normalized to sum exactly 1
    weights = [rng.randint(1, 5) for _ in range(n)]
    total = sum(weights)
    return [Rat(w, total) for w in weights]


def rand_instance(rng: random.Random, n: int, m: int, vmax: int = 10, equal: bool = False) -> Instance:
    values = [[rng.randint(0, vmax) for _ in range(m)] for _ in range(n)]
    ents = [Rat(1, n)] * n if equal else rand_entitlements(rng, n)
    return make_instance(values, ents)


def base_valuation() -> Valuation:
    """Five items [2,1,1,1,0]; the running example with entitlement 2/5."""
    return Valuation((2, 1, 1, 1, 0))


def unit_items(m: int) -> Valuation:
    return Valuation((1,) * m)


def pair_sum_valuation() -> tuple[Valuation, list[tuple[int, int]], list[tuple[int, ...]]]:
    """15 items indexed by the 2-subsets of {1..6}, in lexicographic order.

    Returns the valuation, the pair labels, and the six disjoint-support
    "rows" (indices of the five items containing each ground element); every
    row sums to 97 and every item sits in exactly two rows.
    """
    pair_value = {
        (1, 2): 11,
        (1, 3): 7,
        (1, 4): 7,
        (1, 5): 7,
        (1, 6): 65,
        (2, 3): 23,
        (2, 4): 23,
        (2, 5): 23,
        (2, 6): 17,
        (3, 4): 31,
        (3, 5): 31,
        (3, 6): 5,
        (4, 5): 31,
        (4, 6): 5,
        (5, 6): 5,
    }
    pairs = sorted(pair_value)
    rows = [
        tuple(idx for idx, p in enumerate(pairs) if k in p)
        for k in range(1, 7)
    ]
    return Valuation(tuple(pair_value[p] for p in pairs)), pairs, rows


def five_unit_instance() -> Instance:
    """Three equal agents, five unit-value items."""
    return make_instance([[1] * 5] * 3, [Rat(1, 3)] * 3)


def two_agent_tiebreak_instance() -> Instance:
    """Two equal agents over items 28,24,20,16,16 (identical valuations)."""
    row = [28, 24, 20, 16, 16]
    return make_instance([row, row], [Rat(1, 2)] * 2)


GROUP_SIZES = (("L0", 1), ("L1", 4), ("L2", 16), ("S2", 32), ("S1", 8), ("S0", 2))
GROUP_VALUE_SPECIAL = {"L0": 8, "L1": 6, "L2": 4, "S2": 4, "S1": 2, "S0": 0}
GROUP_VALUE_OTHER = {"L0": 14, "L1": 12, "L2": 8, "S2": 4, "S1": 2, "S0": 1}


def group63_instance() -> Instance:
    """21 agents, 63 items in six value groups; agent 0 values them unlike
    the twenty identical others. Item layout: L0=0, L1=1..4, L2=5..20,
    S2=21..52, S1=53..60, S0=61..62."""
    row_special: list[int] = []
    row_other: list[int] = []
    for name, count in GROUP_SIZES:
        row_special += [GROUP_VALUE_SPECIAL[name]] * count
        row_other += [GROUP_VALUE_OTHER[name]] * count
    return make_instance([row_special] + [row_other] * 20, [Rat(1, 21)] * 21)


def group63_partition() -> list[tuple[int, ...]]:
    """A hand-built 21-part partition of the 63 items whose minimum bundle
    value for agent 0 is 10; a direct witness that her maximin share is at
    least 10 on the group instance."""
    bundles: list[tuple[int, ...]] = []
    l1 = list(range(1, 5))
    l2 = list(range(5, 21))
    s2 = list(range(21, 53))
    s1 = list(range(53, 61))
    s0 = [61, 62]
    bundles.append((l1[0], l1[1], s0[0]))
    bundles.append((l1[2], l1[3], s0[1]))
    for k in range(8):
        bundles.append((l2[2 * k], l2[2 * k + 1], s1[k]))
    for k in range(10):
        bundles.append((s2[3 * k], s2[3 * k + 1], s2[3 * k + 2]))
    bundles.append((s2[30], s2[31], 0))
    return bundles


def ce_fixture() -> tuple[Instance, tuple[tuple[int, ...], ...], tuple[Rat, ...]]:
    """Two agents with entitlements 2/5 and 3/5 over three unit items, a
    price vector (2/5, 3/10, 3/10), and the allocation ({0}, {1,2}) that the
    prices support as an equilibrium."""
    inst = make_instance([[1, 1, 1], [1, 1, 1]], [Rat(2, 5), Rat(3, 5)])
    alloc = ((0,), (1, 2))
    prices = (Rat(2, 5), Rat(3, 10), Rat(3, 10))
    return inst, alloc, prices
