from __future__ import annotations

import json
import random

import pytest

from fairshare import (
    Allocation,
    GuardError,
    InputError,
    Rat,
    Valuation,
    is_ordered,
    lift_allocation,
    make_instance,
    ordered_version,
    parse_instance,
    rat_from_str,
    rat_to_str,
    serialize_instance,
)
from fairshare.core import _json_text, check_entitlement

from helpers import rand_instance


def test_rat_string_round_trip():
    assert rat_to_str(Rat(2, 5)) == "2/5"
    assert rat_to_str(Rat(3)) == "3"
    assert rat_to_str(Rat(0)) == "0"
    assert rat_from_str("2/5") == Rat(2, 5)
    assert rat_from_str("7") == Rat(7)
    assert rat_from_str("-1/2") == Rat(-1, 2)


def test_rat_from_str_rejects_garbage():
    for bad in ("", "1/0", "a/b", "1.5", "2 / 5"):
        with pytest.raises(InputError):
            rat_from_str(bad, "entitlement")
    try:
        rat_from_str("x", "agents[0].entitlement")
    except InputError as exc:
        assert str(exc).startswith("agents[0].entitlement")


def test_valuation_basics():
    v = Valuation((2, 1, 1, 1, 0))
    assert v.m == 5
    assert v.total == 5
    assert v.item_values[0] == 2
    assert v.value([0, 4]) == 2
    assert v.ranked_items() == [0, 1, 2, 3, 4]


def test_valuation_rejects_bad_values():
    with pytest.raises(InputError):
        Valuation((1, -1))
    with pytest.raises(InputError):
        Valuation((1, True))
    with pytest.raises(InputError):
        Valuation((1, 2.0))


def test_check_entitlement_bounds():
    assert check_entitlement(Rat(1)) == Rat(1)
    assert check_entitlement(Rat(1, 3)) == Rat(1, 3)
    for bad in (Rat(0), Rat(-1, 2), Rat(3, 2)):
        with pytest.raises(InputError):
            check_entitlement(bad)


def test_parse_minimal_instance():
    text = json.dumps(
        {
            "agents": [
                {"entitlement": "1/2", "values": [1, 1]},
                {"entitlement": "1/2", "values": [1, 1]},
            ]
        }
    )
    inst = parse_instance(text)
    assert inst.n == 2
    assert inst.m == 2
    assert inst.entitlements == (Rat(1, 2), Rat(1, 2))


def test_entitlement_sum_error_message():
    with pytest.raises(InputError) as exc:
        make_instance([[1], [1], [1]], [Rat(2, 5)] * 3)
    assert "entitlements: sum 6/5 != 1" in str(exc.value)


def test_parse_base_example_first_agent():
    text = json.dumps(
        {
            "agents": [
                {"entitlement": "2/5", "values": [2, 1, 1, 1, 0]},
                {"entitlement": "3/5", "values": [2, 1, 1, 1, 0]},
            ]
        }
    )
    inst = parse_instance(text)
    assert inst.valuations[0] == Valuation((2, 1, 1, 1, 0))
    assert inst.entitlements[0] == Rat(2, 5)


def test_parse_rejects_ragged_rows():
    with pytest.raises(InputError) as exc:
        make_instance([[1, 2], [1]], [Rat(1, 2), Rat(1, 2)])
    assert "agents[1].values" in str(exc.value)


def test_parse_field_paths_in_errors():
    bad = json.dumps({"agents": [{"entitlement": "1/1", "values": [1, "x"]}]})
    with pytest.raises(InputError) as exc:
        parse_instance(bad)
    assert "agents[0].values[1]" in str(exc.value)


def test_serialize_parse_round_trip():
    rng = random.Random(7)
    for _ in range(20):
        inst = rand_instance(rng, rng.randint(1, 4), rng.randint(1, 6))
        back = parse_instance(serialize_instance(inst))
        assert back == inst


# Agent names that the JSON writer must escape: quote, backslash, control
# characters, non-ASCII text, a character outside the BMP and a lone surrogate.
AWKWARD_NAMES = ('say "hi"', "back\\slash", "\x00\x01\x1f\x7f\t\n\r", "caf\u00e9 \u2028", "\U0001f600", "\ud800")


def test_json_text_matches_json_dumps_on_edge_documents():
    docs = [
        [],
        {},
        [[]],
        [{}],
        {"a": [], "b": {}},
        [[], {}, [[], [{}]], {"x": [[]]}],
        10**309,
        -(10**309),
        [0, -1, True, False, None],
        {"names": list(AWKWARD_NAMES), "nested": {"deep": [{"x": [None, True, False, 10**309]}]}},
        {name: [name] for name in AWKWARD_NAMES},
        (1, (2, (3,)), ()),
        {"": ""},
        "plain",
    ]
    for doc in docs:
        assert _json_text(doc) == json.dumps(doc, indent=2), doc
    n = len(AWKWARD_NAMES)
    inst = make_instance([[1, 2]] * n, [Rat(1, n)] * n, list(AWKWARD_NAMES))
    text = serialize_instance(inst)
    assert text == json.dumps(json.loads(text), indent=2)
    assert parse_instance(text) == inst


def test_json_text_refuses_what_json_dumps_would_change():
    # Floats (no output rational is one), non-str keys and other types.
    for doc in (0.5, [1, 2.0], {"a": float("nan")}, {1: 2}, {None: 1}, {1, 2}, Rat(1, 2), b"x"):
        with pytest.raises(TypeError):
            _json_text(doc)


def test_allocation_sorts_and_validates():
    alloc = Allocation(((2, 0), (1,)))
    assert alloc.bundles == ((0, 2), (1,))
    assert alloc.allocated() == {0, 1, 2}
    alloc.require_full(3)
    with pytest.raises(InputError):
        alloc.require_full(4)
    with pytest.raises(InputError, match="unknown item index -1"):
        Allocation(((-1, 0), (1,))).require_full(2)


def test_allocation_rejects_duplicates():
    with pytest.raises(InputError) as exc:
        Allocation(((0, 1), (1,)))
    assert "allocated twice" in str(exc.value)


def test_guard_error_message_shape():
    err = GuardError("mms-nodes", 100, 250)
    assert str(err) == "size guard 'mms-nodes': 250 exceeds limit 100"
    assert err.guard == "mms-nodes"


def test_ordered_version_single_agent():
    inst = make_instance([[1, 3, 2]], [Rat(1)])
    red = ordered_version(inst)
    assert red.valuations[0].item_values == (3, 2, 1)
    # rank r of agent i is item ranked_items()[r] of her original row
    assert tuple(tuple(v.ranked_items()) for v in inst.valuations) == ((1, 2, 0),)
    assert is_ordered(red)


def test_ordered_version_identity_on_sorted_input():
    inst = make_instance([[5, 4, 3]], [Rat(1)])
    red = ordered_version(inst)
    assert tuple(tuple(v.ranked_items()) for v in inst.valuations) == ((0, 1, 2),)
    assert red.valuations == inst.valuations


def test_ordered_version_independent_rows():
    inst = make_instance([[1, 3, 2], [2, 2, 1]], [Rat(1, 2), Rat(1, 2)])
    red = ordered_version(inst)
    rows = [v.item_values for v in red.valuations]
    assert rows == [(3, 2, 1), (2, 2, 1)]
    # each ordered row is a permutation of the original multiset
    for i, v in enumerate(inst.valuations):
        assert sorted(rows[i]) == sorted(v.item_values)
        assert sorted(v.ranked_items()) == list(range(3))


def test_lift_identity_reduction():
    inst = make_instance([[5, 4, 3], [5, 4, 3]], [Rat(1, 2), Rat(1, 2)])
    red = ordered_version(inst)
    alloc = Allocation(((0, 2), (1,)))
    assert lift_allocation(inst, alloc) == alloc


def test_lift_single_rank_pick():
    inst = make_instance([[1, 3, 2], [1, 3, 2]], [Rat(1, 2), Rat(1, 2)])
    red = ordered_version(inst)
    ordered_alloc = Allocation(((0,), (1, 2)))
    lifted = lift_allocation(inst, ordered_alloc)
    # rank1 holder picks the original top item, worth 3
    assert inst.valuations[0].value(lifted.bundles[0]) == 3


def test_lift_follows_the_choosing_sequence():
    # At rank r the holder of ordered item r takes her highest-value
    # remaining original item, ties to the lowest index.
    rng = random.Random(13)
    for _ in range(60):
        n = rng.randint(1, 3)
        m = rng.randint(0, 7)
        inst = rand_instance(rng, n, m, vmax=4)
        owners = [rng.randrange(n) for _ in range(m)]
        ordered_alloc = Allocation(tuple(tuple(j for j in range(m) if owners[j] == i) for i in range(n)))
        remaining = set(range(m))
        expected: list[list[int]] = [[] for _ in range(n)]
        for i in owners:
            vals = inst.valuations[i].item_values
            pick = min(remaining, key=lambda j: (-vals[j], j))
            remaining.remove(pick)
            expected[i].append(pick)
        assert lift_allocation(inst, ordered_alloc) == Allocation(tuple(map(tuple, expected)))


def test_lift_never_loses_value():
    rng = random.Random(11)
    for _ in range(60):
        n = rng.randint(1, 3)
        m = rng.randint(1, 6)
        inst = rand_instance(rng, n, m)
        red = ordered_version(inst)
        owners = [rng.randrange(n) for _ in range(m)]
        bundles: list[list[int]] = [[] for _ in range(n)]
        for j, i in enumerate(owners):
            bundles[i].append(j)
        ordered_alloc = Allocation(tuple(tuple(b) for b in bundles))
        lifted = lift_allocation(inst, ordered_alloc)
        for i in range(n):
            got = inst.valuations[i].value(lifted.bundles[i])
            promised = red.valuations[i].value(ordered_alloc.bundles[i])
            assert got >= promised
