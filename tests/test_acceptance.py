"""Acceptance gate: one test per shipped guarantee, exact arithmetic only.

Each test prints one PASSED/FAILED line under `pytest -v`; together they pin
the package's headline behaviors, from single-instance share values through
the randomized strategy and allocation guarantees.
"""

from __future__ import annotations

import itertools
import random

import pytest

from fairshare import (
    Allocation,
    BundleWitness,
    Rat,
    STRATEGIES,
    Valuation,
    aps_exact,
    best_good_z,
    check_bundle_witness,
    check_ce,
    check_price_certificate,
    greedy_efx,
    greedy_efx_full,
    make_instance,
    meta_guarantees,
    meta_strategy,
    mms_exact,
    pessimistic_share_exact,
    proportional_share,
    tps,
    two_agent_aps_allocation,
    wmms_exact,
)
import fairshare.bidding as bidding_module
import fairshare.shares as shares_module
from fairshare.oracle import aps_brute, game_tree_oracle, mms_brute, pessimistic_brute, wmms_brute

from helpers import (
    adversary_sweep_min,
    base_valuation,
    ce_fixture,
    five_unit_instance,
    group63_instance,
    group63_partition,
    pair_sum_valuation,
    rand_valuation,
    two_agent_tiebreak_instance,
)


def test_criterion_01_base_example_share_values():
    v = base_valuation()
    b = Rat(2, 5)
    assert proportional_share(v, b) == 2
    assert tps(v, b) == 2
    res = aps_exact(v, b)
    assert res.value == 2
    assert check_price_certificate(res.certificate, v)
    assert check_bundle_witness(res.witness, v, b)
    assert pessimistic_share_exact(v, b) == 1


def test_criterion_02_pair_instance_share_gap(pair_aps):
    v, _, rows = pair_sum_valuation()
    assert pair_aps.value == 97
    assert check_price_certificate(pair_aps.certificate, v)
    assert check_bundle_witness(pair_aps.witness, v, Rat(1, 3))
    row_witness = BundleWitness(tuple(rows), (Rat(1, 6),) * 6, 97)
    assert check_bundle_witness(row_witness, v, Rat(1, 3))
    mms3 = mms_exact(v, 3)
    assert mms3 == 96
    assert mms3 < 97


def test_criterion_03_half_entitlement_share_equals_two_part_split():
    rng = random.Random(101)
    for _ in range(100):
        v = rand_valuation(rng, m_max=10, vmax=10)
        assert aps_exact(v, Rat(1, 2)).value == mms_exact(v, 2)


def test_criterion_04_share_chain_with_strictness_fixtures(pair_aps):
    rng = random.Random(103)
    for _ in range(200):
        v = rand_valuation(rng, m_max=8, vmax=8)
        den = rng.randint(1, 6)
        b = Rat(rng.randint(1, den), den)
        p = proportional_share(v, b)
        t = tps(v, b)
        a = aps_exact(v, b).value
        pe = pessimistic_share_exact(v, b)
        assert p >= t >= a >= pe
        assert 2 * pe >= a
    # first link strict: one item at half entitlement
    single = Valuation((9,))
    assert proportional_share(single, Rat(1, 2)) > tps(single, Rat(1, 2))
    # middle link strict: truncation hides nothing but the split still hurts
    twos = Valuation((2, 2, 1))
    assert tps(twos, Rat(2, 5)) == 2
    assert aps_exact(twos, Rat(2, 5)).value == 1
    # last link strict: the pair instance
    v, _, _ = pair_sum_valuation()
    assert pair_aps.value == 97
    assert pessimistic_share_exact(v, Rat(1, 3)) == 96


def test_criterion_05_solvers_match_brute_force_oracles():
    rng = random.Random(107)
    for k in range(100):
        v = rand_valuation(rng, m_max=8, vmax=8)
        den = rng.randint(1, 5)
        b = Rat(rng.randint(1, den), den)
        assert aps_brute(v, b) == aps_exact(v, b).value
        parts = rng.randint(1, 4)
        assert mms_brute(v, parts) == mms_exact(v, parts)
        assert pessimistic_brute(v, b) == pessimistic_share_exact(v, b)
        # weighted split: the oracle walks every assignment, so cap m by n
        n = 2 + k % 3
        m_cap = {2: 8, 3: 7, 4: 6}[n]
        m = rng.randint(n, m_cap)
        wv = Valuation(tuple(rng.randint(0, 6) for _ in range(m)))
        weights = [rng.randint(1, 4) for _ in range(n)]
        total = sum(weights)
        ents = [Rat(w, total) for w in weights]
        i = rng.randrange(n)
        assert wmms_brute(ents, i, wv) == wmms_exact(ents, i, wv)


def test_criterion_06_meta_strategy_meets_guarantee_bound():
    rng = random.Random(109)
    for _ in range(100):
        n = rng.randint(2, 4)
        m = rng.randint(2, 8)
        weights = [rng.randint(1, 4) for _ in range(n)]
        total = sum(weights)
        ents = [Rat(w, total) for w in weights]
        values = [tuple(rng.randint(0, 8) for _ in range(m)) for _ in range(n)]
        for i in range(n):
            v = Valuation(values[i])
            b = ents[i]
            aps = aps_exact(v, b).value
            ordered = sorted(v.item_values, reverse=True)
            r = int(1 / b)
            rank = ordered[r - 1] if r <= len(ordered) else 0
            bound = max(Rat(3, 5) * aps, tps(v, b) / (2 - b), Rat(rank))
            strat = meta_strategy(v, b)
            worst = adversary_sweep_min(v, b, strat.clone)
            if worst is not None:
                assert worst >= bound
            if m <= 6:
                assert game_tree_oracle(v, b, strat.clone()) >= bound


def test_criterion_07_truncated_share_three_fifths_tightness():
    inst = five_unit_instance()
    v = inst.valuations[0]
    b = Rat(1, 3)
    t = tps(v, b)
    assert t == Rat(5, 3)
    threshold = Rat(3, 5) * t
    assert threshold == 1
    best_min = 0
    for owners in itertools.product(range(3), repeat=5):
        counts = [owners.count(i) for i in range(3)]
        worst = min(counts)
        assert worst <= threshold
        best_min = max(best_min, worst)
    assert best_min == threshold
    worst = adversary_sweep_min(v, b, lambda: STRATEGIES["tps"](v, b, None))
    assert worst == 1
    assert worst == t / (2 - b)


def test_criterion_08_greedy_allocation_guarantee_bound():
    rng = random.Random(113)
    for _ in range(100):
        n = rng.randint(3, 5)
        m = rng.randint(n, 12)
        values = [[rng.randint(0, 6) for _ in range(m)] for _ in range(n)]
        inst = make_instance(values, [Rat(1, n)] * n)
        alloc = greedy_efx_full(inst)
        for i in range(n):
            v = inst.valuations[i]
            b = Rat(1, n)
            bound = min(Rat(3, 4) * aps_exact(v, b).value, Rat(2 * n, 3 * n - 1) * tps(v, b))
            assert inst.agent_value(i, alloc.bundles[i]) >= bound


def test_criterion_09_two_agent_tiebreak_fixture():
    inst = two_agent_tiebreak_instance()
    alloc, _ = greedy_efx(inst)
    assert alloc.bundles == ((0, 3), (1, 2, 4))
    values = [inst.agent_value(i, alloc.bundles[i]) for i in range(2)]
    assert min(values) == 44
    mms2 = mms_exact(inst.valuations[0], 2)
    assert mms2 == 52
    assert Rat(min(values), mms2) == Rat(11, 13) == Rat(3, 4) + Rat(5, 4) * Rat(1, 13)


def test_criterion_10_group_fixture_ratio_bound():
    inst = group63_instance()
    alloc, _ = greedy_efx(inst)
    assert alloc.bundles[0] == (0, 61, 62)
    v0 = inst.valuations[0]
    got = v0.value(alloc.bundles[0])
    assert got == 8
    partition = group63_partition()
    flat = sorted(j for bundle in partition for j in bundle)
    assert flat == list(range(63))
    assert len(partition) == 21
    mms_floor = min(v0.value(bundle) for bundle in partition)
    assert mms_floor == 10
    assert Rat(got, mms_floor) <= Rat(4, 5)


def test_criterion_11_two_agent_share_allocations():
    rng = random.Random(127)
    for _ in range(100):
        m = rng.randint(1, 8)
        v1 = Valuation(tuple(rng.randint(0, 10) for _ in range(m)))
        v2 = Valuation(tuple(rng.randint(0, 10) for _ in range(m)))
        den = rng.randint(2, 6)
        b1 = Rat(rng.randint(1, den - 1), den)
        b2 = 1 - b1
        alloc = two_agent_aps_allocation(v1, v2, b1, b2)
        assert alloc.allocated() == set(range(m))
        assert v1.value(alloc.bundles[0]) >= aps_exact(v1, b1).value
        assert v2.value(alloc.bundles[1]) >= aps_exact(v2, b2).value


def test_criterion_12_price_equilibrium_fixture():
    inst, bundles, prices = ce_fixture()
    alloc = Allocation(bundles)
    assert check_ce(inst, alloc, prices)
    for i in range(2):
        aps = aps_exact(inst.valuations[i], inst.entitlements[i]).value
        assert inst.agent_value(i, alloc.bundles[i]) >= aps
    # the light agent's equilibrium bundle sits strictly below her truncated share
    assert inst.agent_value(0, alloc.bundles[0]) < tps(inst.valuations[0], Rat(2, 5))


def test_criterion_13_simulation_target_reaches_share_without_share_solver(monkeypatch):
    rng = random.Random(131)
    for _ in range(40):
        v = rand_valuation(rng, m_max=7, vmax=8)
        den = rng.randint(2, 5)
        b = Rat(rng.randint(1, den), den)
        assert best_good_z(v, b) >= aps_exact(v, b).value
    # the chooser works purely from simulations: no share solver is imported
    assert not hasattr(bidding_module, "aps_exact")
    assert not hasattr(bidding_module, "aps_brute")

    def boom(*args, **kwargs):
        raise AssertionError("share solver invoked by the strategy chooser")

    monkeypatch.setattr(shares_module, "aps_exact", boom)
    for _ in range(10):
        v = rand_valuation(rng, m_max=6, vmax=8)
        den = rng.randint(2, 4)
        b = Rat(rng.randint(1, den), den)
        meta_strategy(v, b)
        meta_guarantees(v, b)


def test_criterion_14_witness_support_bound(pair_aps):
    v, _, _ = pair_sum_valuation()
    assert len(pair_aps.witness.sets) <= v.m
    rng = random.Random(137)
    for _ in range(40):
        w = rand_valuation(rng, m_max=7, vmax=8)
        den = rng.randint(1, 5)
        b = Rat(rng.randint(1, den), den)
        res = aps_exact(w, b)
        assert len(res.witness.sets) <= w.m
        assert check_bundle_witness(res.witness, w, b)
