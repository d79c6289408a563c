from __future__ import annotations

import random

import pytest

from fairshare import (
    GuardError,
    Rat,
    Valuation,
    aps_exact,
    enumerate_win_patterns,
    mms_exact,
    pessimistic_share_exact,
    strategy_aps35,
    strategy_bid_max_value,
    strategy_tps,
    tps,
    wmms_exact,
    worst_case_adversary,
)
from fairshare.oracle import (
    PARTITION_BRUTE_MAX_AGENTS,
    PARTITION_BRUTE_MAX_ITEMS,
    aps_brute,
    game_tree_oracle,
    mms_brute,
    pessimistic_brute,
    wmms_brute,
)

from helpers import base_valuation, rand_entitlements, rand_valuation, unit_items


def test_aps_brute_values():
    assert aps_brute(base_valuation(), Rat(2, 5)) == 2
    assert aps_brute(Valuation((1, 1)), Rat(1, 2)) == 1


def test_aps_brute_can_sit_below_tps():
    v = Valuation((2, 2, 1))
    assert aps_brute(v, Rat(2, 5)) == 1
    assert tps(v, Rat(2, 5)) == 2


def test_partition_brute_values():
    assert mms_brute(base_valuation(), 2) == 2
    assert pessimistic_brute(base_valuation(), Rat(2, 5)) == 1


def test_wmms_brute_starves_someone_when_items_run_short():
    ents = [Rat(1, 2), Rat(1, 4), Rat(1, 4)]
    v = unit_items(2)
    for i in range(3):
        assert wmms_brute(ents, i, v) == 0


def test_brute_force_caps():
    big = Valuation((1,) * 13)
    with pytest.raises(GuardError) as exc:
        aps_brute(big, Rat(1, 2))
    assert exc.value.guard == "aps-brute-items"
    with pytest.raises(GuardError) as exc:
        mms_brute(Valuation((1,) * 11), 2)
    assert exc.value.guard == "partition-brute-items"
    with pytest.raises(GuardError) as exc:
        mms_brute(Valuation((1, 1)), 5)
    assert exc.value.guard == "partition-brute-agents"
    with pytest.raises(GuardError) as exc:
        game_tree_oracle(Valuation((1,) * 7), Rat(1, 2), strategy_tps(Valuation((1,) * 7), Rat(1, 2)))
    assert exc.value.guard == "game-tree-items"


def test_game_tree_full_entitlement_takes_everything():
    v = base_valuation()
    assert game_tree_oracle(v, Rat(1), strategy_tps(v, Rat(1))) == v.total


def test_game_tree_three_step_strategy_on_base_example():
    v = base_valuation()
    assert game_tree_oracle(v, Rat(2, 5), strategy_aps35(v, Rat(2, 5), 2)) >= 2


def test_game_tree_max_value_bidder_on_three_units():
    v = unit_items(3)
    assert game_tree_oracle(v, Rat(1, 3), strategy_bid_max_value(v, Rat(1, 3))) >= 1


def test_game_tree_never_beats_pattern_adversary():
    """The unrestricted tree adversary is at least as strong as the
    two-concession pattern family, so its value is never larger."""
    rng = random.Random(53)
    for _ in range(15):
        v = rand_valuation(rng, m_max=5, vmax=6)
        den = rng.randint(2, 4)
        b = Rat(rng.randint(1, den - 1), den)
        strat = strategy_tps(v, b)
        tree_value = game_tree_oracle(v, b, strat.clone())
        pattern_value = min(
            (
                v.value(t.allocation.bundles[0])
                for t in (
                    worst_case_adversary(v, b, strat.clone(), wins)
                    for wins in enumerate_win_patterns(v.m)
                )
                if not t.infeasible
            ),
            default=v.total,
        )
        assert tree_value <= pattern_value


def test_oracles_match_exact_solvers_on_small_randoms():
    rng = random.Random(59)
    for _ in range(15):
        v = rand_valuation(rng, m_max=6, vmax=8)
        den = rng.randint(1, 4)
        b = Rat(rng.randint(1, den), den)
        assert aps_brute(v, b) == aps_exact(v, b).value
        parts = rng.randint(1, 3)
        assert mms_brute(v, parts) == mms_exact(v, parts)
        assert pessimistic_brute(v, b) == pessimistic_share_exact(v, b)
    for _ in range(10):
        n = rng.randint(2, 3)
        m = rng.randint(n, 6)
        v = Valuation(tuple(rng.randint(0, 6) for _ in range(m)))
        weights = [rng.randint(1, 3) for _ in range(n)]
        total = sum(weights)
        ents = [Rat(w, total) for w in weights]
        i = rng.randrange(n)
        assert wmms_brute(ents, i, v) == wmms_exact(ents, i, v)
    # Wider draws after the ones above, which stay unchanged: MMS up to the
    # brute-force item cap, values to 1000, b with denominators to 7, and
    # WMMS with up to four agents. The APS oracle walks every subset for each
    # b, so it stops at eight items; the pessimistic draws go on below.
    for _ in range(16):
        v = rand_valuation(rng, m_max=PARTITION_BRUTE_MAX_ITEMS, vmax=rng.choice((8, 1000)), m_min=4)
        parts = rng.randint(2, PARTITION_BRUTE_MAX_AGENTS)
        assert mms_brute(v, parts) == mms_exact(v, parts)
        if v.m <= 8:
            den = rng.randint(2, 7)
            b = Rat(rng.randint(1, den - 1), den)
            assert aps_brute(v, b) == aps_exact(v, b).value
            assert pessimistic_brute(v, b) == pessimistic_share_exact(v, b)
    for _ in range(12):
        n = rng.randint(2, PARTITION_BRUTE_MAX_AGENTS)
        v = rand_valuation(rng, m_max=7, vmax=rng.choice((8, 1000)), m_min=n)
        ents = rand_entitlements(rng, n)
        i = rng.randrange(n)
        assert wmms_brute(ents, i, v) == wmms_exact(ents, i, v)
    # The pessimistic oracle walks the partitions once for every d, so it
    # reaches the brute-force item cap.
    for _ in range(4):
        v = rand_valuation(rng, m_max=PARTITION_BRUTE_MAX_ITEMS, vmax=rng.choice((8, 1000)), m_min=9)
        den = rng.randint(2, 7)
        b = Rat(rng.randint(1, den - 1), den)
        assert pessimistic_brute(v, b) == pessimistic_share_exact(v, b)
