from __future__ import annotations

import math
import os
import random
import subprocess
import sys
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
from fairshare.shares import _max_affordable_value, _min_price_reaching

from helpers import base_valuation, pair_sum_valuation, rand_entitlement, rand_valuation, unit_items


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


def test_price_certificate_checker():
    v = base_valuation()
    zero = PriceCertificate((Rat(0),) * 5, Rat(2, 5), 2)
    assert not check_price_certificate(zero, v)
    uniform = PriceCertificate((Rat(1, 5),) * 5, Rat(2, 5), 3)
    assert check_price_certificate(uniform, v)
    # negative prices and oversubscribed price mass are rejected
    assert not check_price_certificate(PriceCertificate((Rat(-1, 5),) * 5, Rat(2, 5), 0), v)
    assert not check_price_certificate(PriceCertificate((Rat(1, 2),) * 5, Rat(2, 5), 5), v)


def test_bundle_witness_checker():
    v = base_valuation()
    whole = BundleWitness(((0, 1, 2, 3, 4),), (Rat(1),), 5)
    assert not check_bundle_witness(whole, v, Rat(2, 5))
    assert check_bundle_witness(whole, v, Rat(1))
    short = BundleWitness(((0,),), (Rat(1, 2),), 2)
    assert not check_bundle_witness(short, v, Rat(2, 5))


def test_pair_instance_shares(pair_aps):
    v, pairs, rows = pair_sum_valuation()
    assert v.total == 291
    assert all(sum(v.of(j) for j in row) == 97 for row in rows)
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
    """The search is bracketed by unit_demand_aps <= APS <= floor(tps), and
    the certificate and witness come from the LPs that set the final bracket.
    The share must still match brute force, with checked certificates, when
    it sits on either end of the bracket, where no LP of the search set that
    end and it is solved after the search."""
    rng = random.Random(53)
    cases = [
        (Valuation((4, 3, 2, 1)), Rat(1)),
        (Valuation((0, 7, 0)), Rat(1, 2)),
        (Valuation((7,)), Rat(1)),
        (Valuation((0, 0, 0)), Rat(1, 3)),
    ]
    cases += [(rand_valuation(rng, m_max=7, vmax=8), rand_entitlement(rng, max_den=5)) for _ in range(40)]
    # Value scales the search bracket spans by up to 10^9; aps_brute does not
    # depend on the scale.
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


def _aps_work(v, b):
    """Threshold LPs and simplex pivots of one aps_exact call, counted by
    wrapping the LP entry points; a pivot is a write to the basis."""
    counts = {"lps": 0, "pivots": 0}
    threshold_lp, solve = shares._threshold_price_lp, ColumnLP.solve

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

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(shares, "_threshold_price_lp", counted_lp)
        mp.setattr(ColumnLP, "solve", counted_solve)
        aps_exact(v, b)
    return counts


def test_aps_work_counts_are_pinned():
    """The APS work is deterministic, so a change to the search, the cut pool
    or the pivot rule shows up here as a changed count."""
    assert _aps_work(base_valuation(), Rat(2, 5)) == {"lps": 2, "pivots": 8}
    assert _aps_work(pair_sum_valuation()[0], Rat(1, 3)) == {"lps": 8, "pivots": 243}


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


def test_subset_state_oracles_match_enumeration():
    """Both oracles against plain subset enumeration, with values up to 10^9
    and zero values and zero prices mixed in: the separation bundle is the
    cheapest of value >= t and, among the cheapest, of the lowest value."""
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
            got = _min_price_reaching(values, prices, t)
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
        assert _max_affordable_value(values, prices, budget) == best


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
    ],
)
def test_certificate_documents_reject_malformed_fields(cls, doc, field):
    with pytest.raises(InputError) as exc:
        cls.from_json_dict(doc)
    assert str(exc.value).startswith(f"{field}:")


def test_certificate_json_round_trip():
    res = aps_exact(base_valuation(), Rat(2, 5))
    cert = PriceCertificate.from_json_dict(res.certificate.to_json_dict())
    wit = BundleWitness.from_json_dict(res.witness.to_json_dict())
    assert cert == res.certificate
    assert wit == res.witness


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
    assert alloc.is_full(2)
    assert all(len(b) == 1 for b in alloc.bundles)


def test_two_agent_split_base_example():
    v = base_valuation()
    assert aps_exact(v, Rat(3, 5)).value == 3
    alloc = two_agent_aps_allocation(v, v, Rat(2, 5), Rat(3, 5))
    assert alloc.is_full(5)
    assert v.value(alloc.bundles[0]) >= 2
    assert v.value(alloc.bundles[1]) >= 3


def test_two_agent_split_single_item():
    v = Valuation((9,))
    alloc = two_agent_aps_allocation(v, v, Rat(1, 2), Rat(1, 2))
    assert alloc.is_full(1)


def test_two_agent_split_rejects_bad_entitlements():
    v = Valuation((1, 1))
    with pytest.raises(InputError):
        two_agent_aps_allocation(v, v, Rat(1, 2), Rat(1, 3))


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
