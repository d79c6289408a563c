from __future__ import annotations

import hashlib
import json
import math
import os
import random
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

import fairshare
from fairshare import (
    Allocation,
    BundleWitness,
    GuardError,
    InputError,
    PriceCertificate,
    Rat,
    STRATEGIES,
    Valuation,
    aps_exact,
    check_bundle_witness,
    check_price_certificate,
    guard_limit,
    l_out_of_d_share_exact,
    mms_exact,
    pessimistic_share_exact,
    proportional_share,
    tps,
    two_agent_aps_allocation,
    unit_demand_aps,
    wmms_exact,
    worst_case_adversary,
)
from fairshare import shares
from fairshare.lp import ColumnLP
from fairshare.oracle import aps_brute
from fairshare.shares import _min_price_reaching

from helpers import base_valuation, pair_sum_valuation, rand_entitlement, rand_entitlements, rand_valuation, unit_items


def test_proportional_share_values():
    assert proportional_share(base_valuation(), Rat(2, 5)) == 2
    assert proportional_share(Valuation((0, 0)), Rat(1, 2)) == 0
    assert proportional_share(Valuation((7,)), Rat(1, 3)) == Rat(7, 3)


def test_tps_values():
    assert tps(base_valuation(), Rat(2, 5)) == 2
    assert tps(Valuation((7,)), Rat(1, 2)) == 0
    assert tps(unit_items(5), Rat(1, 3)) == Rat(5, 3)


def test_tps_caps_single_huge_item():
    # the top item is worth more than the share, so it is truncated away
    assert tps(Valuation((10, 1, 1)), Rat(1, 3)) == 1


def _tps_reference(values, b):
    """TPS as the paper states it, in plain Fractions: peel the top item while
    it exceeds the proportional share of what is left, at b/(1-b)."""
    b = Fraction(b)
    vals = sorted(values, reverse=True)
    while vals and vals[0] > b * sum(vals):
        if b >= Fraction(1, 2):
            return b / (1 - b) * (sum(vals) - vals[0])
        vals.pop(0)
        b = b / (1 - b)
    return b * sum(vals)


def test_tps_matches_fraction_reference():
    rng = random.Random(23)
    for k in range(300):
        v = rand_valuation(rng, m_min=0, m_max=9, vmax=(6, 1000, 10**9)[k % 3])
        b = rand_entitlement(rng, max_den=9)
        got = tps(v, b)
        assert type(got) is Rat and got == _tps_reference(v.item_values, b), (v, b)


def test_mms_values():
    assert mms_exact(base_valuation(), 2) == 2
    assert mms_exact(Valuation((1,)), 2) == 0


def test_l_out_of_d_values():
    v = base_valuation()
    assert l_out_of_d_share_exact(v, 1, 3) == 1
    assert l_out_of_d_share_exact(v, 2, 5) == 1
    assert l_out_of_d_share_exact(v, 3, 3) == v.total
    assert l_out_of_d_share_exact(Valuation((4, 2)), 2, 2) == 6


def test_pessimistic_values():
    assert pessimistic_share_exact(base_valuation(), Rat(2, 5)) == 1
    assert pessimistic_share_exact(Valuation((1, 1)), Rat(1, 2)) == 1
    assert pessimistic_share_exact(Valuation((5,)), Rat(1, 3)) == 0


def test_pessimistic_share_at_a_unit_fraction_trips_its_own_guard(monkeypatch):
    # b = 1/q searches 1-out-of-q, its MMS, as the first pair of the sweep,
    # so it counts against `partition-nodes` like every other b.
    monkeypatch.setenv("FAIRSHARE_GUARD_LIMIT", "10")
    with pytest.raises(GuardError) as exc:
        pessimistic_share_exact(Valuation(tuple(range(1, 13))), Rat(1, 3))
    assert exc.value.guard == "partition-nodes"


def test_partition_search_counts_the_items_left(monkeypatch):
    """r items left raise at most r bundles, so the lowest r + 1 keep one as
    it is. 8x16 agents 6 and 7 (b = 1/16, one 1-out-of-16 search over 16
    positive items) get their smallest item at the first leaf, and the count
    cuts every later state; the water-filling bound alone spent 53,204 and
    over 10^6 nodes on them."""
    monkeypatch.setenv("FAIRSHARE_GUARD_LIMIT", "1000")
    rng = random.Random(2)
    rows = [tuple(rng.randint(0, 1000) for _ in range(16)) for _ in range(8)]
    assert [pessimistic_share_exact(Valuation(rows[i]), Rat(1, 16)) for i in (6, 7)] == [285, 170]
    assert [min(rows[i]) for i in (6, 7)] == [285, 170]


def test_partition_search_count_covers_every_take(monkeypatch):
    """11 positive items in 15 bundles: `take` of the lowest 11 + take stay
    empty, so 4-out-of-15 is 0 at the root, for take = 4 as for take = 1."""
    monkeypatch.setenv("FAIRSHARE_GUARD_LIMIT", "10")
    v = Valuation((571, 812, 675, 335, 0, 928, 680, 761, 0, 292, 45, 872, 254))
    assert l_out_of_d_share_exact(v, 4, 15) == 0


def test_wmms_values():
    # one item short of the agent count forces an empty bundle somewhere
    ents = [Rat(99, 100)] + [Rat(1, 10000)] * 100
    v = unit_items(100)
    assert wmms_exact(ents, 0, v) == 0
    assert wmms_exact([Rat(1)], 0, base_valuation()) == 5
    assert wmms_exact([Rat(1, 2), Rat(1, 2)], 0, Valuation((1, 1))) == 1


def test_wmms_validates_entitlements():
    with pytest.raises(InputError):
        wmms_exact([Rat(1, 2), Rat(1, 3)], 0, Valuation((1, 1)))


def test_unit_demand_values():
    assert unit_demand_aps((1,) * 4, Rat(1, 4)) == 1
    assert unit_demand_aps((5, 4, 3, 2), Rat(1, 3)) == 3
    assert unit_demand_aps((5,), Rat(1, 2)) == 0


def test_aps_base_example():
    res = aps_exact(base_valuation(), Rat(2, 5))
    assert res.value == 2
    assert check_price_certificate(res.certificate, base_valuation())
    assert res.certificate.value_bound == 2
    assert check_bundle_witness(res.witness, base_valuation(), Rat(2, 5))
    assert res.witness.value_floor == 2


def test_aps_hand_certificates_for_base_example():
    v = base_valuation()
    # price every item at a fifth of its value
    cert = PriceCertificate(tuple(Rat(x, 5) for x in v.item_values), Rat(2, 5), 2)
    assert check_price_certificate(cert, v)
    wit = BundleWitness(
        ((0,), (1, 2), (1, 3), (2, 3)),
        (Rat(2, 5), Rat(1, 5), Rat(1, 5), Rat(1, 5)),
        2,
    )
    assert check_bundle_witness(wit, v, Rat(2, 5))


def test_aps_unit_items():
    assert aps_exact(unit_items(4), Rat(1, 4)).value == 1


def test_aps_two_halves_equals_mms():
    v = Valuation((1, 1))
    assert aps_exact(v, Rat(1, 2)).value == 1 == mms_exact(v, 2)


def test_aps_zero_instances():
    res = aps_exact(Valuation((0, 0, 0)), Rat(1, 2))
    assert res.value == 0
    assert check_price_certificate(res.certificate, Valuation((0, 0, 0)))
    assert check_bundle_witness(res.witness, Valuation((0, 0, 0)), Rat(1, 2))


def test_aps_on_no_items():
    # Nothing to price or pack: the start prices are empty, nothing is worth
    # more than 0, and the descent stops before any LP.
    empty = Valuation(())
    for b in (Rat(1), Rat(2, 5), Rat(1, 7)):
        res = aps_exact(empty, b)
        assert res.value == 0
        assert check_price_certificate(res.certificate, empty)
        assert check_bundle_witness(res.witness, empty, b)


def test_price_certificate_checker():
    v = base_valuation()
    zero = PriceCertificate((Rat(0),) * 5, Rat(2, 5), 2)
    assert not check_price_certificate(zero, v)
    uniform = PriceCertificate((Rat(1, 5),) * 5, Rat(2, 5), 3)
    assert check_price_certificate(uniform, v)
    # negative prices and oversubscribed price mass are rejected
    assert not check_price_certificate(PriceCertificate((Rat(-1, 5),) * 5, Rat(2, 5), 0), v)
    assert not check_price_certificate(PriceCertificate((Rat(1, 2),) * 5, Rat(2, 5), 5), v)


def _best_affordable_in_fractions(v, prices, budget) -> int | None:
    """The price-certificate check in exact Fraction arithmetic over every
    subset: None unless the prices match the items, are non-negative and sum
    to at most 1, else the best value of a subset whose price sum is within
    the budget. Nothing is affordable at a negative budget, which counts as a
    best value of 0. A certificate checks exactly when this is not None and
    at most its bound."""
    if len(prices) != v.m or any(p < 0 for p in prices) or sum(prices, Fraction(0)) > 1:
        return None
    best = 0
    for mask in range(1 << v.m):
        items = [j for j in range(v.m) if mask >> j & 1]
        if sum((Fraction(prices[j]) for j in items), Fraction(0)) <= budget:
            best = max(best, v.value(items))
    return best


def test_price_certificate_checker_edge_rows():
    """`check_price_certificate` against the Fraction check above, at bounds
    on both sides of the best affordable value, on hand rows at the edges of
    its arithmetic and on seeded draws with negative, oversubscribed and
    huge-denominator prices and negative budgets."""
    v = base_valuation()
    fifth = Rat(1, 5)
    rows = [
        (v, (Rat(-1, 5), fifth, fifth, Rat(2, 5), fifth), Rat(2, 5)),
        (v, (fifth,) * 5, Rat(2, 5)),
        (v, (fifth + Rat(1, 10**30),) + (fifth,) * 4, Rat(2, 5)),
        (v, (fifth,) * 4 + (Rat(1, 3**90),), Rat(2, 5)),
        (v, (fifth,) * 4 + (Rat(-1, 3**90),), Rat(2, 5)),
        (v, (0, 0, 0, 1, 0), Rat(2, 5)),
        (v, (1, 0, 0, 0, 0), 1),
        (v, (Rat(1, 3),) * 3 + (0, 0), Rat(2, 5)),
        (v, (Rat(1, 3),) * 3 + (0, 0), Rat(1, 3) + Rat(1, 10**20)),
        (v, (fifth,) * 5, Rat(0)),
        (v, (fifth, 0, 0, fifth, fifth), Rat(0)),
        (v, (fifth,) * 5, Rat(-1, 5)),
        (v, (0,) * 5, Rat(-1, 7)),
        (Valuation(()), (), Rat(2, 5)),
        (Valuation(()), (), Rat(-1, 2)),
        (v, (fifth,) * 4, Rat(2, 5)),
        (v, (fifth,) * 6, Rat(2, 5)),
        (Valuation(()), (Rat(0),), Rat(2, 5)),
    ]
    rng = random.Random(29)
    for _ in range(300):
        m = rng.randint(0, 7)
        values = Valuation(tuple(rng.choice((0, rng.randint(1, 5), rng.randint(1, 1000))) for _ in range(m)))
        den = rng.choice((1, 2, 3, 7, 10**12, 3**40))
        low = -1 if rng.random() < 0.1 else 0
        prices = tuple(Rat(rng.randint(low, den), den * rng.randint(1, m + 1)) for _ in range(m))
        budget = Rat(rng.randint(-2, 12), rng.randint(1, 12))
        rows.append((values, prices, budget))
    verdicts = {True: 0, False: 0}
    for v, prices, budget in rows:
        best = _best_affordable_in_fractions(v, prices, budget)
        edges = {-1, v.total + 1} if best is None else {best - 1, best}
        for bound in sorted(edges | {-1, rng.randint(0, v.total + 1)}):
            expected = best is not None and best <= bound
            assert check_price_certificate(PriceCertificate(prices, budget, bound), v) is expected, (v, prices, budget)
            verdicts[expected] += 1
    assert verdicts == {True: 301, False: 726}


def test_bundle_witness_checker():
    v = base_valuation()
    whole = BundleWitness(((0, 1, 2, 3, 4),), (Rat(1),), 5)
    assert not check_bundle_witness(whole, v, Rat(2, 5))
    assert check_bundle_witness(whole, v, Rat(1))
    short = BundleWitness(((0,),), (Rat(1, 2),), 2)
    assert not check_bundle_witness(short, v, Rat(2, 5))


@pytest.mark.parametrize(
    "breaks",
    [
        pytest.param(lambda c, w: (replace(c, prices=c.prices[:-1]), w), id="fewer-prices"),
        pytest.param(lambda c, w: (replace(c, prices=c.prices + (Rat(0),)), w), id="more-prices"),
        pytest.param(lambda c, w: (c, replace(w, sets=(), weights=())), id="no-sets"),
        pytest.param(lambda c, w: (c, replace(w, sets=w.sets + w.sets[:1])), id="more-sets-than-weights"),
        pytest.param(
            lambda c, w: (c, replace(w, sets=w.sets + w.sets[:1], weights=w.weights + (Rat(0),))), id="zero-weight"
        ),
        pytest.param(
            lambda c, w: (c, replace(w, sets=w.sets + w.sets[:1] * 2, weights=w.weights + (Rat(-1, 5), Rat(1, 5)))),
            id="negative-weight",
        ),
        pytest.param(lambda c, w: (c, replace(w, sets=w.sets[:-1] + (w.sets[-1] + (4, 4),))), id="repeated-item"),
        pytest.param(lambda c, w: (c, replace(w, sets=w.sets[:-1] + (w.sets[-1] + (5,),))), id="item-m"),
        pytest.param(lambda c, w: (c, replace(w, sets=w.sets[:-1] + (w.sets[-1] + (-1,),))), id="item-minus-one"),
        pytest.param(lambda c, w: (c, replace(w, value_floor=w.value_floor + 1)), id="set-below-floor"),
    ],
)
def test_certificate_checkers_reject_each_broken_condition(breaks):
    """Each row breaks one condition of the valid certificate and witness of
    the running example, and each checker must return False, not raise. The
    rows keep the other conditions where they can (an empty witness also has
    weights summing to 0): every extra set is worth the floor, weights still
    sum to 1, and item 4 (worth 0, uncovered) stays covered at most b = 2/5
    by the last set, of weight 1/5. Without the range check, item -1 would
    count as item 4 and pass."""
    v, b = base_valuation(), Rat(2, 5)
    res = aps_exact(v, b)
    assert check_price_certificate(res.certificate, v) and check_bundle_witness(res.witness, v, b)
    assert res.witness.weights[-1] == Rat(1, 5) and all(4 not in s for s in res.witness.sets)
    cert, wit = breaks(res.certificate, res.witness)
    assert check_price_certificate(cert, v) is (cert == res.certificate)
    assert check_bundle_witness(wit, v, b) is (wit == res.witness)


def test_pair_instance_shares(pair_aps):
    v, pairs, rows = pair_sum_valuation()
    assert v.total == 291
    assert all(sum(v.item_values[j] for j in row) == 97 for row in rows)
    assert pair_aps.value == 97
    assert check_price_certificate(pair_aps.certificate, v)
    assert check_bundle_witness(pair_aps.witness, v, Rat(1, 3))
    row_witness = BundleWitness(tuple(rows), (Rat(1, 6),) * 6, 97)
    assert check_bundle_witness(row_witness, v, Rat(1, 3))
    assert tps(v, Rat(1, 3)) == 97


def test_witness_support_stays_small():
    rng = random.Random(31)
    for _ in range(30):
        v = rand_valuation(rng, m_max=7, vmax=8)
        den = rng.randint(1, 5)
        b = Rat(rng.randint(1, den), den)
        res = aps_exact(v, b)
        assert len(res.witness.sets) <= v.m or v.m == 0
        assert check_price_certificate(res.certificate, v)
        assert check_bundle_witness(res.witness, v, b)


def test_aps_matches_brute_force_at_both_bracket_ends():
    """The share lies in unit_demand_aps <= APS <= floor(tps). The descent
    starts from prices that afford nothing above floor(tps), which are the
    certificate when its first LP reaches 1. The share must match brute
    force, with checked certificates, also when it sits on either end of
    that range."""
    rng = random.Random(53)
    cases = [
        (Valuation((4, 3, 2, 1)), Rat(1)),
        (Valuation((0, 7, 0)), Rat(1, 2)),
        (Valuation((7,)), Rat(1)),
        (Valuation((0, 0, 0)), Rat(1, 3)),
    ]
    cases += [(rand_valuation(rng, m_max=7, vmax=8), rand_entitlement(rng, max_den=5)) for _ in range(40)]
    # Value scales up to 10^9 widen that range; aps_brute does not depend on
    # the scale.
    cases.append((Valuation((10**7, 1)), Rat(1, 2)))
    cases += [(rand_valuation(rng, m_max=7, vmax=10**9), rand_entitlement(rng, max_den=5)) for _ in range(15)]
    at_low_only = at_high_only = 0
    for v, b in cases:
        res = aps_exact(v, b)
        assert res.value == aps_brute(v, b)
        assert check_price_certificate(res.certificate, v)
        assert check_bundle_witness(res.witness, v, b)
        assert res.certificate.value_bound == res.witness.value_floor == res.value
        low, high = unit_demand_aps(v.item_values, b), math.floor(tps(v, b))
        at_low_only += low == res.value < high
        at_high_only += low < res.value == high
    assert at_low_only and at_high_only


def test_tps_start_prices_certify_floor_tps():
    """The descent's start prices, built on the TPS peel: non-negative,
    summing to 1, and nothing worth more than floor(TPS) affordable at b
    under them. The draws cover an all-zero row, b = 1, a single positive
    item and peels that end with the entitlement at 1/2 or above, where the
    last peel lifts it to 1 or more; aps_exact, which starts from these
    prices, must still match brute force."""
    rng = random.Random(30)
    cases = [
        (Valuation((0, 0, 0)), Rat(1, 3)),
        (Valuation((0, 0)), Rat(1)),
        (Valuation((4, 3, 2, 1)), Rat(1)),
        (Valuation((0, 7, 0)), Rat(1, 2)),
        (Valuation((7,)), Rat(2, 3)),
        (Valuation((10, 1, 1)), Rat(1, 2)),
        (Valuation((9, 5, 1)), Rat(2, 5)),
        (Valuation((900, 40, 30, 2)), Rat(3, 5)),
    ]
    for k in range(300):
        v = rand_valuation(rng, m_max=9, vmax=6 if k % 2 else 1000)
        cases.append((v, rand_entitlement(rng, max_den=11)))
    high_peels = 0
    for v, b in cases:
        peeled, costs, scale = shares._tps_prices(v, b)
        prices = tuple(Rat(c, scale) for c in costs)
        assert all(x >= 0 for x in prices) and sum(prices) == 1
        assert check_price_certificate(PriceCertificate(prices, b, math.floor(tps(v, b))), v)
        _, _, q = shares._peel(v, b)
        high_peels += bool(peeled) and q <= b.numerator
        if v.m <= 7:
            assert aps_exact(v, b).value == aps_brute(v, b)
    assert high_peels == 42


def test_aps_values_digest_is_pinned():
    """APS values on 200 seeded draws (m <= 8, values 0-6 and 0-1000, b with
    denominators 1-7), pinned as one SHA-256 digest: a rewrite of the search
    must return the same share on every draw."""
    rng = random.Random(19)
    shares_seen = []
    for k in range(200):
        v = rand_valuation(rng, m_max=8, vmax=6 if k % 2 else 1000)
        b = rand_entitlement(rng, max_den=7)
        shares_seen.append(f"{v.item_values}@{b}:{aps_exact(v, b).value}")
    digest = hashlib.sha256("\n".join(shares_seen).encode()).hexdigest()
    assert digest == "4ff3d611e0257119462f8fcc43d134377e2261c71c8f12c6f01e459bf63e7b67"


def test_aps_certificates_digest_is_pinned():
    """Value, price certificate and bundle witness of every solve, pinned as
    one SHA-256 digest: the 200 draws of the values digest, then 200 draws
    shaped like the shares-large benchmark (m 6-7, values 0-1000, b = 1/n
    or a weight 1-5 over n = 2-3 weights). The values never move, but a
    change to the descent's start, its columns or its pivots may move a
    certificate or a witness, which shows here as a changed digest. Such a
    move is re-pinned on purpose, with the moved certificates and witnesses
    counted; the TPS start moved 204 certificates and 253 witnesses of the
    400 and no value."""
    rng = random.Random(19)
    draws = []
    for k in range(200):
        v = rand_valuation(rng, m_max=8, vmax=6 if k % 2 else 1000)
        draws.append((v, rand_entitlement(rng, max_den=7)))
    rng = random.Random(1003)
    for k in range(200):
        v = rand_valuation(rng, m_min=6, m_max=7, vmax=1000)
        n = rng.randint(2, 3)
        draws.append((v, Rat(1, n) if k % 2 else rng.choice(rand_entitlements(rng, n))))
    lines = []
    for v, b in draws:
        res = aps_exact(v, b)
        doc = {"value": res.value, "certificate": res.certificate.to_json_dict(), "witness": res.witness.to_json_dict()}
        lines.append(f"{v.item_values}@{b}:{json.dumps(doc, sort_keys=True)}")
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "bfa302a585df61a02a6a253cb40f9b28f56b4e5a2d24e9405771881c55eec0bf"


def test_partition_values_digest_is_pinned():
    """MMS (k = 1-4), l-out-of-d, pessimistic (b with denominators 1-9) and
    WMMS on 300 seeded draws (m <= 9, values 0-3, 0-6 and 0-1000), pinned as
    one SHA-256 digest: a change to the partition search must return the same
    share on every draw."""
    rng = random.Random(1969)
    shares_seen = []
    for k in range(300):
        v = rand_valuation(rng, m_max=9, vmax=(3, 6, 1000)[k % 3])
        d = rng.randint(1, 5)
        l = rng.randint(1, d)
        b = rand_entitlement(rng, max_den=9)
        ents = rand_entitlements(rng, rng.randint(1, 4))
        i = rng.randrange(len(ents))
        mms = [mms_exact(v, n) for n in range(1, 5)]
        shares_seen.append(
            f"{v.item_values}:{mms}:{l}/{d}={l_out_of_d_share_exact(v, l, d)}:"
            f"{b}={pessimistic_share_exact(v, b)}:{ents}[{i}]={wmms_exact(ents, i, v)}"
        )
    digest = hashlib.sha256("\n".join(shares_seen).encode()).hexdigest()
    assert digest == "6c19086265f20fe8ce84e105919921ad64041c08e2e956507601e4e040e74cf1"


def _aps_work(v, b):
    """Threshold LPs, simplex pivots and knapsack states of one aps_exact
    call, its certificate checks included, counted by wrapping the LP entry
    points and the DP; a pivot is a write to the basis, and `states` sums the
    states each DP run keeps."""
    counts = {"lps": 0, "pivots": 0, "states": 0}
    threshold_lp, solve, subset_states = shares._threshold_price_lp, ColumnLP.solve, shares._subset_states

    class CountingBasis(list):
        def __setitem__(self, i, var):
            counts["pivots"] += 1
            super().__setitem__(i, var)

    def counted_lp(*args):
        counts["lps"] += 1
        return threshold_lp(*args)

    def counted_solve(lp):
        lp.basis = CountingBasis(lp.basis)
        solve(lp)

    def counted_states(*args):
        states = subset_states(*args)
        counts["states"] += len(states)
        return states

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(shares, "_threshold_price_lp", counted_lp)
        mp.setattr(ColumnLP, "solve", counted_solve)
        mp.setattr(shares, "_subset_states", counted_states)
        aps_exact(v, b)
    return counts


def test_aps_work_counts_are_pinned():
    """The APS work is deterministic, so a change to the descent, the column
    search, the pivot rule or the DP's pruning shows up here as a changed
    count. Without the budget the DP kept 44 and 3,866 states; the descent
    from floor(TPS) + 1 ran 2 LPs on both, with 8 and 91 pivots and 37 and
    3,466 states. From the TPS start prices, one LP reaches 1 on both."""
    assert _aps_work(base_valuation(), Rat(2, 5)) == {"lps": 1, "pivots": 4, "states": 18}
    assert _aps_work(pair_sum_valuation()[0], Rat(1, 3)) == {"lps": 1, "pivots": 56, "states": 1944}


def _partition_nodes(share, *args) -> int:
    """Search nodes of one partition-share call, read off a recording
    `_NodeCounter`."""
    counters = []

    class RecordingCounter(shares._NodeCounter):
        def __init__(self, guard):
            super().__init__(guard)
            counters.append(self)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(shares, "_NodeCounter", RecordingCounter)
        share(*args)
    return sum(c.used for c in counters)


def test_partition_work_counts_are_pinned():
    """The partition search is deterministic, so a change to its child order,
    memo or bound shows up here as a changed node count."""
    v = Valuation((3, 4, 5, 6, 7, 8, 3, 4, 5, 6))
    assert _partition_nodes(pessimistic_share_exact, v, Rat(2, 5)) == 81
    assert _partition_nodes(pessimistic_share_exact, v, Rat(3, 5)) == 52
    assert _partition_nodes(mms_exact, base_valuation(), 2) == 7
    assert _partition_nodes(mms_exact, base_valuation(), 3) == 8


def test_aps_certificate_checks_survive_optimize_flag():
    """aps_exact re-checks its certificate and witness with real raises: a
    checker that rejects them must stop it in a `python -O` interpreter."""
    script = (
        "from fairshare import Rat, aps_exact, shares\n"
        "from helpers import base_valuation\n"
        "for name in ('check_price_certificate', 'check_bundle_witness'):\n"
        "    real = getattr(shares, name)\n"
        "    setattr(shares, name, lambda *args: False)\n"
        "    try:\n"
        "        aps_exact(base_valuation(), Rat(2, 5))\n"
        "    except AssertionError:\n"
        "        print('raised')\n"
        "    setattr(shares, name, real)\n"
    )
    paths = [str(Path(fairshare.__file__).parents[1]), str(Path(__file__).parent)]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(paths)}
    proc = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["raised", "raised"]


def test_partition_cap_check_survives_optimize_flag():
    """A cap below the share contradicts the chain pessimistic <= APS and
    MMS(k) <= APS(1/k): the partition search must raise at a split worth
    more, also in a `python -O` interpreter. With the share itself as the
    cap, the search ends at the first split worth it."""
    script = (
        "from fairshare import Rat, Valuation, mms_exact, pessimistic_share_exact\n"
        "v = Valuation((3, 4, 5, 6, 7, 8, 3, 4, 5, 6))\n"
        "print(pessimistic_share_exact(v, Rat(2, 5), 20), mms_exact(v, 3, 17))\n"
        "for call in (lambda: pessimistic_share_exact(v, Rat(2, 5), 0),\n"
        "             lambda: pessimistic_share_exact(v, Rat(2, 5), 19),\n"
        "             lambda: mms_exact(v, 3, 15)):\n"
        "    try:\n"
        "        print(call())\n"
        "    except AssertionError as exc:\n"
        "        print('raised' if 'exceeds its cap' in str(exc) else exc)\n"
    )
    paths = [str(Path(fairshare.__file__).parents[1]), str(Path(__file__).parent)]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(paths)}
    proc = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["20", "17", "raised", "raised", "raised"]


def _affords_at_most(values, prices, budget, bound) -> bool:
    """Whether `check_price_certificate` finds nothing worth more than `bound`
    affordable at `budget` under the non-negative `prices`. The prices and
    the budget are first divided by the price mass when it exceeds 1, which
    leaves every bundle's affordability as it was. The checker's best
    affordable value is x exactly when this holds at x and fails at x - 1."""
    mass = max(sum(prices, Rat(0)), Rat(1))
    cert = PriceCertificate(tuple(Rat(p) / mass for p in prices), Rat(budget) / mass, bound)
    return check_price_certificate(cert, Valuation(tuple(values)))


def test_subset_state_oracles_match_enumeration():
    """The separation oracle and the certificate checker's affordability DP
    against plain subset enumeration, with values up to 10^9 and zero values
    and zero prices mixed in: the separation bundle is the cheapest of value
    >= t and, among the cheapest, of the lowest value."""
    rng = random.Random(67)
    for _ in range(150):
        m = rng.randint(1, 10)
        values = [rng.choice((0, rng.randint(1, 10), rng.randint(1, 10**9))) for _ in range(m)]
        prices = [rng.choice((Rat(0), Rat(rng.randint(0, 9), rng.randint(1, 9)))) for _ in range(m)]
        subsets = [((), Rat(0), 0)]
        for j in range(m):
            subsets += [(s + (j,), p + prices[j], v + values[j]) for s, p, v in subsets]
        total = sum(values)
        for t in (0, total, total + 1, rng.randint(1, max(total, 1)), rng.choice(subsets)[2]):
            got = _min_price_reaching(values, prices, t, sum(prices) + 1, guard_limit())
            reaching = [(p, v) for _, p, v in subsets if v >= t]
            if not reaching:
                assert got is None
                continue
            price, bundle, worth = got
            assert (price, worth) == min(reaching)
            assert sum(prices[j] for j in bundle) == price
            assert sum(values[j] for j in bundle) == worth
        budget = Rat(rng.randint(0, 20), rng.randint(1, 9))
        best = max(v for _, p, v in subsets if p <= budget)
        assert _affords_at_most(values, prices, budget, best) and not _affords_at_most(values, prices, budget, best - 1)


def test_budgeted_oracles_match_enumeration_on_ties():
    """The separation oracle and the certificate checker both prune the DP at
    their budget. On small values and costs,
    where many subsets tie, with zero-value items, zero prices, budget 0 and
    budgets at or above the total cost: a bundle that costs exactly the
    budget is affordable, and the separation bundle below a bound is the
    unbounded one when that costs less than the bound, None when it costs
    exactly the bound."""
    rng = random.Random(2003)
    for _ in range(300):
        m = rng.randint(1, 8)
        values = [rng.randint(0, 3) for _ in range(m)]
        costs = [rng.randint(0, 3) for _ in range(m)]
        den = rng.randint(1, 3)
        prices = [Rat(c, den) for c in costs]
        subsets = [((), 0, 0)]
        for j in range(m):
            subsets += [(s + (j,), c + costs[j], v + values[j]) for s, c, v in subsets]
        total_cost = sum(costs)
        exact = rng.choice(subsets)
        for spend in (0, exact[1], rng.randint(0, total_cost), total_cost, total_cost + 1):
            best = max(v for _, c, v in subsets if c <= spend)
            budget = Rat(spend, den)
            assert _affords_at_most(values, prices, budget, best)
            assert not _affords_at_most(values, prices, budget, best - 1)
            if spend == exact[1]:
                assert not _affords_at_most(values, prices, budget, exact[2] - 1)
        total = sum(values)
        for t in (0, 1, total, total + 1, rng.randint(1, max(total, 1)), exact[2]):
            reaching = [(c, v) for _, c, v in subsets if v >= t]
            unbounded = _min_price_reaching(values, costs, t, total_cost + 1, guard_limit())
            if not reaching:
                assert unbounded is None
                continue
            cost, bundle, worth = unbounded
            assert (cost, worth) == min(reaching)
            assert sum(costs[j] for j in bundle) == cost and sum(values[j] for j in bundle) == worth
            for bound in (0, cost, cost + 1, rng.randint(0, total_cost + 1), total_cost + 1):
                expected = unbounded if cost < bound else None
                assert _min_price_reaching(values, costs, t, bound, guard_limit()) == expected


@pytest.mark.parametrize(
    "cls, doc, field",
    [
        (PriceCertificate, {"budget": "1/2", "value_bound": 1}, "prices"),
        (PriceCertificate, {"prices": 5, "budget": "1/2", "value_bound": 1}, "prices"),
        (PriceCertificate, {"prices": ["1/2"], "budget": "1/2", "value_bound": "x"}, "value_bound"),
        (PriceCertificate, {"prices": ["1/2"], "value_bound": 1}, "budget"),
        (BundleWitness, {"sets": [[0]], "weights": ["1"]}, "value_floor"),
        (BundleWitness, {"sets": [["a"]], "weights": ["1"], "value_floor": 1}, "sets[0][0]"),
        (BundleWitness, {"sets": [3], "weights": ["1"], "value_floor": 1}, "sets[0]"),
        (BundleWitness, {"sets": [[0]], "weights": 1, "value_floor": 1}, "weights"),
        (BundleWitness, [], "sets"),
        (PriceCertificate, {"prices": [0.5, "1/2"], "budget": "1/2", "value_bound": 1}, "prices[0]"),
        (PriceCertificate, {"prices": ["1/2"], "budget": True, "value_bound": 1}, "budget"),
        (BundleWitness, {"sets": [[0]], "weights": [1.0], "value_floor": 1}, "weights[0]"),
        (BundleWitness, {"sets": [[0]], "weights": [False], "value_floor": 1}, "weights[0]"),
        (PriceCertificate, {"prices": [1, "0"], "budget": 1, "value_bound": 2}, PriceCertificate((Rat(1), Rat(0)), Rat(1), 2)),
        (BundleWitness, {"sets": [[1, 0]], "weights": [1], "value_floor": 2}, BundleWitness(((0, 1),), (Rat(1),), 2)),
    ],
)
def test_certificate_documents_reject_malformed_fields(cls, doc, field):
    # `field` is the path a refusal names, or, for a document that parses,
    # its value: rationals may be JSON integers.
    if not isinstance(field, str):
        assert cls.from_json_dict(doc) == field
        return
    with pytest.raises(InputError) as exc:
        cls.from_json_dict(doc)
    message = str(exc.value)
    assert message == f"{field}: missing" or message.startswith(f"{field}: expected ")


def test_certificate_json_round_trip():
    res = aps_exact(base_valuation(), Rat(2, 5))
    cert = PriceCertificate.from_json_dict(res.certificate.to_json_dict())
    wit = BundleWitness.from_json_dict(res.witness.to_json_dict())
    assert cert == res.certificate
    assert wit == res.witness


def test_checked_aps_reads_back_the_solved_share():
    # The JSON form of every seeded aps_exact result checks, read at its
    # field path, as the same result; a zero-item row and b = 1 included.
    rng = random.Random(43)
    draws = [(Valuation(()), Rat(1, 3)), (base_valuation(), Rat(1))]
    draws += [(rand_valuation(rng, m_max=7, m_min=0), rand_entitlement(rng)) for _ in range(40)]
    for v, b in draws:
        res = aps_exact(v, b)
        doc = {"value": res.value, "certificate": res.certificate.to_json_dict(), "witness": res.witness.to_json_dict()}
        assert shares.checked_aps(doc, v, b, "aps[0]") == res
    with pytest.raises(InputError, match=r"^aps\[2\]\.certificate\.prices: missing$"):
        shares.checked_aps({"value": 0, "certificate": {}, "witness": {}}, base_valuation(), Rat(1, 2), "aps[2]")


def test_share_chain_random():
    rng = random.Random(41)
    for _ in range(40):
        v = rand_valuation(rng, m_max=7, vmax=8)
        den = rng.randint(1, 5)
        b = Rat(rng.randint(1, den), den)
        p = proportional_share(v, b)
        t = tps(v, b)
        a = aps_exact(v, b).value
        pe = pessimistic_share_exact(v, b)
        assert p >= t >= a >= pe
        assert 2 * pe >= a


def test_aps_at_one_half_matches_two_part_mms_random():
    rng = random.Random(43)
    for _ in range(25):
        v = rand_valuation(rng, m_max=8, vmax=8)
        assert aps_exact(v, Rat(1, 2)).value == mms_exact(v, 2)


def test_two_agent_split_symmetric():
    v = Valuation((1, 1))
    alloc = two_agent_aps_allocation(v, v, Rat(1, 2), Rat(1, 2))
    assert alloc.allocated() == set(range(2))
    assert all(len(b) == 1 for b in alloc.bundles)


def test_two_agent_split_base_example():
    v = base_valuation()
    assert aps_exact(v, Rat(3, 5)).value == 3
    alloc = two_agent_aps_allocation(v, v, Rat(2, 5), Rat(3, 5))
    assert alloc.allocated() == set(range(5))
    assert v.value(alloc.bundles[0]) >= 2
    assert v.value(alloc.bundles[1]) >= 3


def test_two_agent_split_single_item():
    v = Valuation((9,))
    alloc = two_agent_aps_allocation(v, v, Rat(1, 2), Rat(1, 2))
    assert alloc.allocated() == set(range(1))


def test_two_agent_split_rejects_bad_entitlements():
    v = Valuation((1, 1))
    with pytest.raises(InputError):
        two_agent_aps_allocation(v, v, Rat(1, 2), Rat(1, 3))


def test_two_agent_split_rejects_mismatched_item_counts():
    with pytest.raises(InputError, match="^valuations: item counts differ$"):
        two_agent_aps_allocation(Valuation((1, 1)), Valuation((1, 1, 1)), Rat(1, 2), Rat(1, 2))


def test_guard_trips_on_tiny_limit(monkeypatch):
    monkeypatch.setenv("FAIRSHARE_GUARD_LIMIT", "10")
    big = Valuation(tuple(range(1, 13)))
    with pytest.raises(GuardError) as exc:
        mms_exact(big, 3)
    assert exc.value.guard == "mms-nodes"
    assert "size guard 'mms-nodes'" in str(exc.value)
    with pytest.raises(GuardError) as exc:
        aps_exact(big, Rat(1, 3))
    assert exc.value.guard == "knapsack-value"
    with pytest.raises(GuardError) as exc:
        pessimistic_share_exact(big, Rat(2, 5))
    assert exc.value.guard == "partition-nodes"
    with pytest.raises(GuardError) as exc:
        wmms_exact([Rat(1, 3)] * 3, 0, big)
    assert exc.value.guard == "assignment-nodes"


def test_knapsack_guard_counts_states_not_value_scale(monkeypatch):
    """The separation guard bounds DP states, at most min(2^m, v(M) + 1): four
    items near 10^9 solve under a limit of 1000, while twelve distinct powers
    of two reach every value below 4096 and trip it."""
    monkeypatch.setenv("FAIRSHARE_GUARD_LIMIT", "1000")
    v = Valuation((999_999_937, 999_999_929, 999_999_893, 999_999_883))
    for b in (Rat(1, 2), Rat(2, 5)):
        res = aps_exact(v, b)
        assert res.value == aps_brute(v, b)
        assert check_price_certificate(res.certificate, v)
        assert check_bundle_witness(res.witness, v, b)
    with pytest.raises(GuardError) as exc:
        aps_exact(Valuation(tuple(1 << k for k in range(12))), Rat(1, 2))
    assert exc.value.guard == "knapsack-value"


def test_share_functions_validate_entitlement():
    v = base_valuation()
    # Out-of-range rationals, and inexact types: a float (0.4 would enter the
    # exact arithmetic as 3602879701896397/9007199254740992), a bool, a string.
    for bad in (Rat(0), Rat(-1, 2), Rat(7, 5), 0.4, 0.5, True, "1/2"):
        with pytest.raises(InputError):
            proportional_share(v, bad)
        with pytest.raises(InputError):
            tps(v, bad)
        with pytest.raises(InputError):
            aps_exact(v, bad)
        with pytest.raises(InputError):
            pessimistic_share_exact(v, bad)
        with pytest.raises(InputError):
            worst_case_adversary(v, bad, STRATEGIES["tps"](v, Rat(2, 5), None), (1,))
    # Plain ints are exact and still accepted.
    assert proportional_share(v, 1) == v.total
