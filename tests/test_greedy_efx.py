from __future__ import annotations

import random

import pytest

from fairshare import (
    Allocation,
    InputError,
    Rat,
    greedy_efx,
    greedy_efx_full,
    make_instance,
    mms_exact,
    ordered_version,
    resolve_envy_cycles,
    tps,
)
from fairshare.shares import aps_exact

from helpers import five_unit_instance, rand_instance, two_agent_tiebreak_instance


def is_efx(inst, alloc) -> bool:
    for i in range(inst.n):
        vi = inst.valuations[i]
        mine = vi.value(alloc.bundles[i])
        for j in range(inst.n):
            if i == j or not alloc.bundles[j]:
                continue
            other = vi.value(alloc.bundles[j])
            cheapest = min(vi.item_values[g] for g in alloc.bundles[j])
            if mine < other - cheapest:
                return False
    return True


def test_no_envy_is_identity():
    inst = make_instance([[3, 1], [3, 1]], [Rat(1, 2)] * 2)
    alloc = Allocation(((0,), (1,)))
    fixed = resolve_envy_cycles(alloc, inst)
    assert fixed == alloc or inst.valuations[0].value(fixed.bundles[0]) >= 3
    # agent 0 already holds the item she prefers, nothing moves
    assert fixed == alloc


def test_two_agent_swap():
    inst = make_instance([[0, 1], [1, 0]], [Rat(1, 2)] * 2)
    alloc = Allocation(((0,), (1,)))
    fixed = resolve_envy_cycles(alloc, inst)
    assert fixed == Allocation(((1,), (0,)))


def test_three_agent_rotation():
    inst = make_instance([[1, 2, 0], [0, 1, 2], [2, 0, 1]], [Rat(1, 3)] * 3)
    alloc = Allocation(((0,), (1,), (2,)))
    fixed = resolve_envy_cycles(alloc, inst)
    assert fixed == Allocation(((1,), (2,), (0,)))
    # a second pass finds nothing left to rotate
    assert resolve_envy_cycles(fixed, inst) == fixed


def test_single_agent_takes_all():
    inst = make_instance([[5, 3, 1]], [Rat(1)])
    alloc, trace = greedy_efx(inst)
    assert alloc.bundles == ((0, 1, 2),)
    assert [e["item"] for e in trace] == [0, 1, 2]
    assert all(e["to"] == 0 for e in trace)


def test_requires_ordered_instance():
    inst = make_instance([[1, 2], [2, 1]], [Rat(1, 2)] * 2)
    with pytest.raises(InputError):
        greedy_efx(inst)


def test_requires_equal_entitlements():
    inst = make_instance([[2, 1], [2, 1]], [Rat(1, 3), Rat(2, 3)])
    with pytest.raises(InputError):
        greedy_efx(inst)


def test_two_agent_alternation_trace():
    inst = two_agent_tiebreak_instance()
    alloc, trace = greedy_efx(inst)
    assert alloc.bundles == ((0, 3), (1, 2, 4))
    values = [inst.agent_value(i, alloc.bundles[i]) for i in range(2)]
    assert values == [44, 60]
    assert min(values) == 44
    assert [e["item"] for e in trace] == [0, 1, 2, 3, 4]


def test_output_is_efx_on_randoms():
    rng = random.Random(71)
    for _ in range(40):
        n = rng.randint(2, 4)
        m = rng.randint(1, 9)
        inst = rand_instance(rng, n, m, vmax=7, equal=True)
        red = ordered_version(inst)
        alloc, trace = greedy_efx(red)
        assert alloc.allocated() == set(range(m))
        assert is_efx(red, alloc)
        assert len(trace) == m


def test_full_pipeline_meets_guarantee_on_randoms():
    rng = random.Random(73)
    for _ in range(10):
        n = 3
        m = rng.randint(n, 8)
        inst = rand_instance(rng, n, m, vmax=6, equal=True)
        alloc = greedy_efx_full(inst)
        assert alloc.allocated() == set(range(m))
        for i in range(n):
            v = inst.valuations[i]
            b = inst.entitlements[i]
            bound = min(Rat(3, 4) * aps_exact(v, b).value, Rat(2 * n, 3 * n - 1) * tps(v, b))
            assert inst.agent_value(i, alloc.bundles[i]) >= bound


def test_five_unit_instance_bound_analysis():
    inst = five_unit_instance()
    alloc = greedy_efx_full(inst)
    values = sorted(inst.agent_value(i, alloc.bundles[i]) for i in range(3))
    assert values[0] == 1
    v, b = inst.valuations[0], inst.entitlements[0]
    aps = aps_exact(v, b).value
    t = tps(v, b)
    assert aps == 1
    assert t == Rat(5, 3)
    # the share-fraction bound binds, not the truncated-proportional one
    assert min(Rat(3, 4) * aps, Rat(6, 8) * t) == Rat(3, 4)
    assert values[0] >= Rat(3, 4)


def test_full_pipeline_ratio_fixture():
    inst = two_agent_tiebreak_instance()
    alloc = greedy_efx_full(inst)
    values = [inst.agent_value(i, alloc.bundles[i]) for i in range(2)]
    assert min(values) == 44
    assert mms_exact(inst.valuations[0], 2) == 52
    for i in range(2):
        aps = aps_exact(inst.valuations[i], Rat(1, 2)).value
        assert values[i] >= Rat(3, 4) * aps


def test_rotations_recorded_in_trace():
    rng = random.Random(79)
    seen_rotation = False
    for _ in range(60):
        n = rng.randint(2, 3)
        m = rng.randint(2, 8)
        inst = rand_instance(rng, n, m, vmax=5, equal=True)
        red = ordered_version(inst)
        _, trace = greedy_efx(red)
        assert [entry["item"] for entry in trace] == list(range(m))
        for entry in trace:
            assert 0 <= entry["to"] < n
            for cycle in entry["rotations"]:
                assert len(cycle) >= 2
                assert all(0 <= a < n for a in cycle)
            seen_rotation = seen_rotation or bool(entry["rotations"])
    assert seen_rotation
