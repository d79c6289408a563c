from __future__ import annotations

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import fairshare
from fairshare import (
    Allocation,
    InputError,
    Rat,
    Valuation,
    check_allocation,
    check_ce,
    check_share_chain,
    greedy_efx_full,
    make_instance,
    meta_strategy,
    run_game,
    tps,
    two_agent_aps_allocation,
    verify,
)
from fairshare.verify import BOUND_SETS

from helpers import base_valuation, ce_fixture, rand_instance


def test_bound_set_names():
    assert set(BOUND_SETS) == {"arbitrary-entitlements", "equal-entitlements-gefx", "two-agent-aps"}
    inst = make_instance([[1, 1]], [Rat(1)])
    with pytest.raises(InputError):
        check_allocation(inst, Allocation(((0, 1),)), "no-such-bounds")


def test_bidding_output_passes_arbitrary_bounds():
    rng = random.Random(83)
    for _ in range(8):
        n = rng.randint(1, 3)
        m = rng.randint(n, 6)
        inst = rand_instance(rng, n, m, vmax=6)
        strategies = [meta_strategy(inst.valuations[i], inst.entitlements[i]) for i in range(n)]
        t = run_game(inst, strategies)
        report = check_allocation(inst, t.allocation, "arbitrary-entitlements")
        assert report.all_passed


def test_greedy_output_passes_gefx_bounds():
    rng = random.Random(89)
    for _ in range(8):
        n = rng.randint(2, 4)
        m = rng.randint(n, 8)
        inst = rand_instance(rng, n, m, vmax=6, equal=True)
        alloc = greedy_efx_full(inst)
        report = check_allocation(inst, alloc, "equal-entitlements-gefx")
        assert report.all_passed


def test_two_agent_bounds():
    v = base_valuation()
    inst = make_instance([list(v.item_values)] * 2, [Rat(2, 5), Rat(3, 5)])
    alloc = two_agent_aps_allocation(v, v, Rat(2, 5), Rat(3, 5))
    report = check_allocation(inst, alloc, "two-agent-aps")
    assert report.all_passed
    three = make_instance([[1]] * 3, [Rat(1, 3)] * 3)
    with pytest.raises(InputError):
        check_allocation(three, Allocation(((0,), (), ())), "two-agent-aps")


def test_worthless_valuation_passes_vacuously():
    inst = make_instance([[0, 0], [1, 1]], [Rat(1, 2), Rat(1, 2)])
    report = check_allocation(inst, Allocation(((), (0, 1))), "arbitrary-entitlements")
    agent0 = report.agents[0]
    assert agent0.vacuous
    assert agent0.passed
    assert agent0.threshold == 0


def test_report_json_shape():
    inst = make_instance([[2, 1]], [Rat(1)])
    report = check_allocation(inst, Allocation(((0, 1),)), "arbitrary-entitlements")
    doc = report.to_json_dict()
    assert doc["bounds"] == "arbitrary-entitlements"
    assert doc["all_passed"] is True
    row = doc["agents"][0]
    assert row["value"] == 3
    assert isinstance(row["threshold"], str)
    assert len(row["threshold_decimal"].split(".")[1]) == 6
    assert row["shares"]["rank"] == 2


def test_failing_allocation_is_reported():
    inst = make_instance([[5, 5], [5, 5]], [Rat(1, 2), Rat(1, 2)])
    report = check_allocation(inst, Allocation(((0, 1), ())), "arbitrary-entitlements")
    assert not report.all_passed
    assert report.agents[0].passed
    assert not report.agents[1].passed
    assert report.agents[1].fraction == 0


def test_pessimistic_share_excluded_when_guarded(monkeypatch):
    monkeypatch.setenv("FAIRSHARE_GUARD_LIMIT", "100")
    values = [3, 4, 5, 6, 7, 8, 3, 4, 5, 6]
    inst = make_instance([values, values], [Rat(2, 5), Rat(3, 5)])
    alloc = Allocation((tuple(range(5)), tuple(range(5, 10))))
    report = check_allocation(inst, alloc, "arbitrary-entitlements")
    assert report.agents[0].shares["pessimistic"] is None
    assert report.agents[0].shares["aps"] is not None


def test_pessimistic_share_solves_under_the_default_guard():
    """Non-unit entitlements on 11-12 items once exhausted the 10^6-node
    partition guard, so `check_allocation` reported the share as null."""
    rng = random.Random(20210307)
    probe = [Valuation(tuple(rng.randint(1, 6) for _ in range(11))) for _ in range(2)]
    for v in probe:
        assert check_share_chain(v, Rat(2, 3))["pessimistic"] > 0
    rng = random.Random(0)
    values = [[rng.randint(0, 6) for _ in range(12)] for _ in range(4)]
    for b in (Rat(2, 5), Rat(2, 7)):
        assert check_share_chain(Valuation(tuple(values[0])), b)["pessimistic"] > 0
    inst = make_instance(values, [Rat(2, 5), Rat(1, 10), Rat(1, 4), Rat(1, 4)])
    alloc = Allocation(tuple(tuple(range(i, 12, 4)) for i in range(4)))
    report = check_allocation(inst, alloc, "arbitrary-entitlements")
    assert all(a.shares["pessimistic"] is not None for a in report.agents)


def test_ce_fixture_verifies():
    inst, bundles, prices = ce_fixture()
    alloc = Allocation(bundles)
    assert check_ce(inst, alloc, prices)
    # the light agent clears her share but stays below her truncated share
    assert inst.agent_value(0, alloc.bundles[0]) == 1
    assert tps(inst.valuations[0], Rat(2, 5)) == Rat(6, 5)


def test_ce_rejects_zero_prices():
    inst, bundles, _ = ce_fixture()
    assert not check_ce(inst, Allocation(bundles), (Rat(0), Rat(0), Rat(0)))


def test_ce_single_agent():
    inst = make_instance([[3, 1]], [Rat(1)])
    assert check_ce(inst, Allocation(((0, 1),)), (Rat(1, 2), Rat(1, 2)))


def test_ce_rejects_unaffordable_bundle():
    inst, bundles, _ = ce_fixture()
    # agent 0 cannot afford her assigned item at this price
    assert not check_ce(inst, Allocation(bundles), (Rat(1, 2), Rat(1, 4), Rat(1, 4)))


def test_ce_validates_prices():
    inst, bundles, _ = ce_fixture()
    with pytest.raises(InputError):
        check_ce(inst, Allocation(bundles), (Rat(1, 2), Rat(1, 4)))
    with pytest.raises(InputError):
        check_ce(inst, Allocation(bundles), (Rat(-1, 2), Rat(3, 4), Rat(3, 4)))


def test_share_chain_base_example():
    out = check_share_chain(base_valuation(), Rat(2, 5))
    assert (out["proportional"], out["tps"], out["aps"], out["pessimistic"]) == (2, 2, 2, 1)
    assert out["strict"] == {
        "proportional_tps": False,
        "tps_aps": False,
        "aps_pessimistic": True,
        "pessimistic_half_aps": False,
    }


def test_share_chain_single_item():
    out = check_share_chain(Valuation((9,)), Rat(1, 2))
    assert out["proportional"] == Rat(9, 2)
    assert out["tps"] == 0
    assert out["aps"] == 0
    assert out["pessimistic"] == 0
    assert out["strict"]["proportional_tps"]
    assert not out["strict"]["tps_aps"]


def _overstated_aps(real):
    def aps(v, b):
        res = real(v, b)
        return res._replace(value=res.value + 1)
    return aps


def test_share_invariants_raise_on_overstated_aps(monkeypatch):
    monkeypatch.setattr(verify, "aps_exact", _overstated_aps(verify.aps_exact))
    inst, bundles, prices = ce_fixture()
    with pytest.raises(AssertionError, match="below the AnyPrice share"):
        check_ce(inst, Allocation(bundles), prices)
    with pytest.raises(AssertionError, match="tps 2 < aps 3"):
        check_share_chain(base_valuation(), Rat(2, 5))


def test_share_invariants_survive_optimize_flag():
    """The same two checks in a `python -O` interpreter, which strips
    `assert` statements: both must still raise."""
    script = (
        "from fairshare import Allocation, Rat, check_ce, check_share_chain, verify\n"
        "from helpers import base_valuation, ce_fixture\n"
        "from test_verify import _overstated_aps\n"
        "verify.aps_exact = _overstated_aps(verify.aps_exact)\n"
        "inst, bundles, prices = ce_fixture()\n"
        "for call in (lambda: check_ce(inst, Allocation(bundles), prices),\n"
        "             lambda: check_share_chain(base_valuation(), Rat(2, 5))):\n"
        "    try:\n"
        "        call()\n"
        "    except AssertionError:\n"
        "        print('raised')\n"
    )
    paths = [str(Path(fairshare.__file__).parents[1]), str(Path(__file__).parent)]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(paths)}
    proc = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["raised", "raised"]
