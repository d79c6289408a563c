from __future__ import annotations

import json
import os
import random
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import fairshare.bidding
import fairshare.cli
import fairshare.shares
import fairshare.verify
from fairshare.bidding import GameTranscript, RoundRecord, Strategy, _Game, enumerate_win_patterns, worst_case_adversary
from fairshare.cli import STRATEGIES, main
from fairshare.core import InputError, guard_limit, parse_instance

BASE_EXAMPLE = {
    "agents": [
        {"entitlement": "2/5", "values": [2, 1, 1, 1, 0]},
        {"entitlement": "3/5", "values": [2, 1, 1, 1, 0]},
    ]
}

FIVE_UNITS = {
    "agents": [{"entitlement": "1/3", "values": [1, 1, 1, 1, 1]} for _ in range(3)]
}


def write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def run_cli(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    doc = json.loads(out.out) if out.out.strip() else None
    return code, doc, out.err


def test_shares_base_example(tmp_path, capsys):
    path = write(tmp_path, "inst.json", BASE_EXAMPLE)
    code, doc, _ = run_cli(capsys, ["shares", path, "--agent", "0"])
    assert code == 0
    shares = doc["agents"][0]["shares"]
    assert shares["proportional"] == "2"
    assert shares["tps"] == "2"
    assert shares["aps"]["value"] == 2
    assert shares["aps"]["certificate"]["budget"] == "2/5"
    assert shares["pessimistic"] == 1


def test_shares_extra_notions(tmp_path, capsys):
    path = write(tmp_path, "inst.json", BASE_EXAMPLE)
    code, doc, _ = run_cli(
        capsys, ["shares", path, "--agent", "0", "--notions", "mms,wmms,unit-demand"]
    )
    assert code == 0
    shares = doc["agents"][0]["shares"]
    assert shares["mms"] == 2
    assert shares["unit-demand"] == 1
    assert "/" in shares["wmms"] or shares["wmms"].isdigit()


def test_shares_solve_each_aps_once(tmp_path, capsys, monkeypatch):
    """One APS solve per agent serves `aps` and caps the pessimistic and, at
    b = 1/n, the MMS search; without `aps` among the notions, no APS runs.
    The values are those of the uncapped searches."""
    calls = []
    real = fairshare.cli.aps_exact

    def counted(v, b):
        calls.append(b)
        return real(v, b)

    monkeypatch.setattr(fairshare.cli, "aps_exact", counted)
    for doc in (BASE_EXAMPLE, FIVE_UNITS):
        path = write(tmp_path, "inst.json", doc)
        inst = parse_instance(json.dumps(doc))
        calls.clear()
        code, out, _ = run_cli(capsys, ["shares", path, "--notions", "aps,pessimistic,mms"])
        assert code == 0 and len(calls) == inst.n
        assert [a["shares"]["pessimistic"] for a in out["agents"]] == [
            fairshare.shares.pessimistic_share_exact(v, b) for v, b in zip(inst.valuations, inst.entitlements)
        ]
        assert [a["shares"]["mms"] for a in out["agents"]] == [
            fairshare.shares.mms_exact(v, inst.n) for v in inst.valuations
        ]
        calls.clear()
        code, _, _ = run_cli(capsys, ["shares", path, "--notions", "pessimistic"])
        assert code == 0 and calls == []


def test_shares_unknown_notion_is_input_error(tmp_path, capsys, monkeypatch):
    path = write(tmp_path, "inst.json", BASE_EXAMPLE)
    code, _, err = run_cli(capsys, ["shares", path, "--notions", "nonsense"])
    assert code == 2
    assert "notions" in err
    # every name is checked before any share is computed
    calls = []
    monkeypatch.setattr(fairshare.cli, "aps_exact", lambda *args: calls.append(args))
    code, doc, err = run_cli(capsys, ["shares", path, "--notions", "aps,bogus"])
    assert (code, doc, len(calls)) == (2, None, 0)
    assert "unknown notion 'bogus'" in err


@pytest.mark.parametrize("name", [5, ["x"], True])
def test_shares_non_string_agent_name_is_input_error(tmp_path, capsys, name):
    doc = {"agents": [dict(agent, name=name) for agent in BASE_EXAMPLE["agents"]]}
    code, out, err = run_cli(capsys, ["shares", write(tmp_path, "inst.json", doc)])
    assert (code, out) == (2, None)
    assert "agents[0].name: expected a string" in err


def test_shares_malformed_file(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json", encoding="utf-8")
    code, _, err = run_cli(capsys, ["shares", str(path)])
    assert code == 2
    assert err.startswith("error:")
    code, _, _ = run_cli(capsys, ["shares", str(tmp_path / "missing.json")])
    assert code == 2


def test_undecodable_and_overlong_inputs_are_input_errors(tmp_path, capsys):
    # Python refuses integer strings with more digits than its limit, both as
    # JSON numbers and inside "p/q" strings.
    long = "1" * (sys.get_int_max_str_digits() + 1)
    inst = write(tmp_path, "inst.json", BASE_EXAMPLE)
    alloc = write(tmp_path, "alloc.json", [[0], [1, 2, 3, 4]])
    code, played, _ = run_cli(capsys, ["game", inst, "--strategies", "0=tps,1=tps"])
    assert code == 0
    transcript = played["transcript"]

    def raw(name, data):
        path = tmp_path / name
        path.write_bytes(data)
        return str(path)

    def marked(name, doc, field, literal):
        # `doc` with its `field` set to the marker, which `literal` replaces.
        doc = json.loads(json.dumps(doc))
        node = doc
        for k in field[:-1]:
            node = node[k]
        node[field[-1]] = "@"
        return raw(name, json.dumps(doc).replace('"@"', literal).encode("utf-8"))

    prices = ["1/5"] * 5
    cases = [
        (["shares", raw("inst.bin", b"\xe9")], "inst.bin: "),
        (["verify", inst, raw("alloc.bin", b"\xe9")], "alloc.bin: "),
        (["verify", inst, alloc, "--ce", raw("prices.bin", b"\xe9")], "prices.bin: "),
        (["game", inst, "--replay", raw("replay.bin", b"\xe9")], "replay.bin: "),
        (["shares", marked("i1.json", BASE_EXAMPLE, ("agents", 0, "values", 0), long)], "$: malformed JSON"),
        (["verify", inst, marked("a1.json", [[0], [1]], (0, 0), long)], "allocation: malformed JSON"),
        (["verify", inst, alloc, "--ce", marked("p1.json", prices, (0,), long)], "prices: malformed JSON"),
        (["game", inst, "--replay", marked("t1.json", transcript, ("rounds", 0, "winner"), long)],
         "transcript: malformed JSON"),
        (["shares", marked("i2.json", BASE_EXAMPLE, ("agents", 0, "entitlement"), f'"1/{long}"')],
         "agents[0].entitlement: "),
        (["verify", inst, alloc, "--ce", marked("p2.json", prices, (0,), f'"{long}"')], "prices[0]: "),
        (["game", inst, "--replay", marked("t2.json", transcript, ("rounds", 0, "bids", 0), f'"{long}"')],
         "rounds[0].bids[0]: "),
    ]
    for argv, field in cases:
        code, doc, err = run_cli(capsys, argv)
        assert (code, doc) == (2, None), argv
        assert err.startswith("error: ") and field in err, (argv, err[:200])


def test_shares_guard_exit(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("FAIRSHARE_GUARD_LIMIT", "10")
    doc = {"agents": [{"entitlement": "1", "values": list(range(1, 13))}]}
    path = write(tmp_path, "big.json", doc)
    code, _, err = run_cli(capsys, ["shares", path, "--notions", "aps"])
    assert code == 3
    assert "size guard" in err


@pytest.mark.parametrize("raw", ["abc", "0", "-5", "\u0663", " 7", "1_000"])
def test_guard_limit_takes_ascii_digits_only(tmp_path, capsys, monkeypatch, raw):
    # int() would read the last three as 3, 7 and 1000.
    monkeypatch.setenv("FAIRSHARE_GUARD_LIMIT", raw)
    with pytest.raises(InputError) as exc:
        guard_limit()
    assert str(exc.value).startswith("FAIRSHARE_GUARD_LIMIT: ")
    code, out, err = run_cli(capsys, ["shares", write(tmp_path, "inst.json", BASE_EXAMPLE)])
    assert (code, out) == (2, None)
    assert err == f"error: {exc.value}\n"


def test_shares_huge_values_solve(tmp_path, capsys):
    # v(M) = 10^7 + 1 used to exceed the knapsack guard and exit 3.
    doc = {"agents": [{"entitlement": "1/2", "values": [10**7, 1]}] * 2}
    path = write(tmp_path, "huge.json", doc)
    code, out, _ = run_cli(capsys, ["shares", path, "--agent", "0"])
    assert code == 0
    assert out["agents"][0]["shares"]["aps"]["value"] == 1


def test_allocate_bidding_five_units(tmp_path, capsys):
    path = write(tmp_path, "units.json", FIVE_UNITS)
    code, doc, _ = run_cli(capsys, ["allocate", path, "--method", "bidding"])
    assert code == 0
    assert doc["report"]["all_passed"] is True
    assert all(len(b) >= 1 for b in doc["allocation"])
    assert len(doc["transcript"]["rounds"]) <= 5


def test_allocate_two_agent(tmp_path, capsys):
    path = write(tmp_path, "two.json", BASE_EXAMPLE)
    code, doc, _ = run_cli(capsys, ["allocate", path, "--method", "two-agent"])
    assert code == 0
    assert doc["report"]["bounds"] == "two-agent-aps"
    assert doc["report"]["all_passed"] is True


def test_allocate_two_agent_solves_each_aps_once(tmp_path, capsys, monkeypatch):
    # The split, its check and the `aps` proofs share one aps_exact result
    # per agent; the document equals the one the library gives when each
    # solves its own.
    rng = random.Random(5)
    doc = {"agents": [{"entitlement": b, "values": [rng.randint(0, 20) for _ in range(8)]} for b in ("2/5", "3/5")]}
    path = write(tmp_path, "two.json", doc)
    with open(path, encoding="utf-8") as fh:
        inst = parse_instance(fh.read())
    alloc = fairshare.shares.two_agent_aps_allocation(*inst.valuations, *inst.entitlements)
    expected = {
        "method": "two-agent",
        "allocation": [list(b) for b in alloc.bundles],
        "report": fairshare.verify.check_allocation(inst, alloc, "two-agent-aps").to_json_dict(),
        "aps": [fairshare.shares.aps_exact(v, b).to_json_dict() for v, b in zip(inst.valuations, inst.entitlements)],
    }
    calls = []
    real = fairshare.shares.aps_exact

    def counted(valuation, b):
        calls.append(b)
        return real(valuation, b)

    for module in (fairshare.cli, fairshare.shares, fairshare.verify):
        monkeypatch.setattr(module, "aps_exact", counted)
    code, out, _ = run_cli(capsys, ["allocate", path, "--method", "two-agent"])
    assert code == 0
    assert out == expected
    assert calls == list(inst.entitlements)


def test_non_ascii_digits_are_input_errors(tmp_path, capsys):
    # Python's int() and Fraction() read any Unicode digit; the wire format
    # takes ASCII digits only.
    for entitlements in (["\u0663/\u0665", "2/5"], ["\u0661"]):
        doc = {"agents": [{"entitlement": b, "values": [1, 2]} for b in entitlements]}
        code, out, err = run_cli(capsys, ["shares", write(tmp_path, "inst.json", doc)])
        assert (code, out) == (2, None)
        assert f"agents[0].entitlement: not a rational 'p/q' or integer string: {entitlements[0]!r}" in err
    # Nor in the integers of the command line.
    inst = write(tmp_path, "inst.json", BASE_EXAMPLE)
    for argv in (
        ["game", inst, "--strategies", "0=aps35:\u0663"],
        ["game", inst, "--strategies", "\u0660=tps"],
        ["game", inst, "--tie-break", "avoid:\u0661"],
        ["game", inst, "--adversary", "pattern:\u0661"],
        ["game", inst, "--adversary", "worst", "--focal", "\u0661"],
        ["shares", inst, "--agent", "\u0661"],
    ):
        try:
            code, out, _ = run_cli(capsys, argv)
        except SystemExit as exc:
            # argparse refuses a bad --agent or --focal itself
            code, out = exc.code, capsys.readouterr().out or None
        assert (code, out) == (2, None), argv


def test_allocate_method_mismatch(tmp_path, capsys):
    unequal = write(tmp_path, "unequal.json", BASE_EXAMPLE)
    code, _, err = run_cli(capsys, ["allocate", unequal, "--method", "greedy-efx"])
    assert code == 4
    assert "equal entitlements" in err
    three = write(
        tmp_path,
        "three.json",
        {"agents": [{"entitlement": "1/3", "values": [1]} for _ in range(3)]},
    )
    code, _, err = run_cli(capsys, ["allocate", three, "--method", "two-agent"])
    assert code == 4


def test_allocate_greedy_efx(tmp_path, capsys):
    path = write(tmp_path, "units.json", FIVE_UNITS)
    code, doc, _ = run_cli(capsys, ["allocate", path, "--method", "greedy-efx"])
    assert code == 0
    assert doc["report"]["bounds"] == "equal-entitlements-gefx"
    assert doc["report"]["all_passed"] is True


def test_verify_ce_fixture(tmp_path, capsys):
    inst_path = write(
        tmp_path,
        "ce.json",
        {
            "agents": [
                {"entitlement": "2/5", "values": [1, 1, 1]},
                {"entitlement": "3/5", "values": [1, 1, 1]},
            ]
        },
    )
    alloc_path = write(tmp_path, "alloc.json", {"allocation": [[0], [1, 2]]})
    prices_path = write(tmp_path, "prices.json", {"prices": ["2/5", "3/10", "3/10"]})
    code, doc, _ = run_cli(capsys, ["verify", inst_path, alloc_path, "--ce", prices_path])
    assert code == 0
    assert doc["ce"] is True
    assert "bounds" not in doc
    code, doc, _ = run_cli(
        capsys,
        ["verify", inst_path, alloc_path, "--ce", prices_path, "--bounds", "arbitrary-entitlements"],
    )
    assert code == 0
    assert doc["ce"] is True
    assert doc["bounds"]["all_passed"] is True


def test_verify_ce_and_bounds_solve_each_aps_once(tmp_path, capsys, monkeypatch):
    # The equilibrium check and the bound check share one aps_exact result
    # per agent.
    doc = {"agents": [{"entitlement": "1/2", "values": [1, 0]}, {"entitlement": "1/2", "values": [0, 1]}]}
    inst_path = write(tmp_path, "inst.json", doc)
    alloc_path = write(tmp_path, "alloc.json", [[0], [1]])
    prices_path = write(tmp_path, "prices.json", ["1/2", "1/2"])
    calls = []
    real = fairshare.shares.aps_exact

    def counted(valuation, b):
        calls.append(b)
        return real(valuation, b)

    for module in (fairshare.cli, fairshare.shares, fairshare.verify):
        monkeypatch.setattr(module, "aps_exact", counted)
    argv = ["verify", inst_path, alloc_path, "--ce", prices_path, "--bounds", "arbitrary-entitlements"]
    code, doc, _ = run_cli(capsys, argv)
    assert code == 0
    assert doc["ce"] is True and doc["bounds"]["all_passed"] is True
    assert calls == [Fraction(1, 2)] * 2


def test_verify_ce_checks_its_input_before_solving(tmp_path, capsys, monkeypatch):
    # Under a guard that every APS solve trips, malformed input must still be
    # reported as such (exit 2), with or without --bounds.
    monkeypatch.setenv("FAIRSHARE_GUARD_LIMIT", "3")
    doc = {
        "agents": [
            {"entitlement": "1/2", "values": [1, 2, 3, 4, 5, 6]},
            {"entitlement": "1/2", "values": [6, 5, 4, 3, 2, 1]},
        ]
    }
    inst_path = write(tmp_path, "inst.json", doc)
    rows = [
        ([[0, 1, 2], [3, 4]], ["1/6"] * 6, "error: allocation: items [5] unallocated"),
        ([[0, 1, 2], [3, 4, 5]], ["1/2", "1/2"], "error: prices: expected 6, got 2"),
    ]
    for alloc, prices, message in rows:
        alloc_path, prices_path = write(tmp_path, "alloc.json", alloc), write(tmp_path, "prices.json", prices)
        argv = ["verify", inst_path, alloc_path, "--ce", prices_path]
        for extra in ([], ["--bounds", "arbitrary-entitlements"]):
            code, out, err = run_cli(capsys, argv + extra)
            assert (code, out, err.strip()) == (2, None, message), extra


def _count_aps_calls(monkeypatch) -> list:
    """The entitlement of every `aps_exact` call from now on, in order."""
    calls = []
    real = fairshare.shares.aps_exact

    def counted(valuation, b):
        calls.append(b)
        return real(valuation, b)

    for module in (fairshare.cli, fairshare.shares, fairshare.verify):
        monkeypatch.setattr(module, "aps_exact", counted)
    return calls


def test_verify_checks_the_proofs_of_allocate_instead_of_solving(tmp_path, capsys, monkeypatch):
    # verify of an allocate document reads every APS from its `aps` proofs,
    # and of the bare allocation solves each once; both write one document.
    doc = {"agents": [{"entitlement": "1/2", "values": [1, 1, 0, 0]}, {"entitlement": "1/2", "values": [0, 0, 1, 1]}]}
    inst_path = write(tmp_path, "inst.json", doc)
    prices_path = write(tmp_path, "prices.json", ["1/4"] * 4)
    calls = _count_aps_calls(monkeypatch)
    for method in ("bidding", "greedy-efx", "two-agent"):
        code, allocated, _ = run_cli(capsys, ["allocate", inst_path, "--method", method])
        assert code == 0 and calls == [Fraction(1, 2)] * 2, method
        assert [entry["value"] for entry in allocated["aps"]] == [1, 1]
        certified = write(tmp_path, "certified.json", allocated)
        bare = write(tmp_path, "bare.json", allocated["allocation"])
        for extra in ([], ["--bounds", "two-agent-aps"], ["--ce", prices_path, "--bounds", "arbitrary-entitlements"]):
            outputs = []
            for path, solves in ((certified, 0), (bare, 2)):
                calls.clear()
                outputs.append((main(["verify", inst_path, path, *extra]), capsys.readouterr()))
                assert len(calls) == solves, (method, extra, path)
            assert outputs[0] == outputs[1], (method, extra)
            # The equilibrium holds where each agent holds her two items.
            ce = allocated["allocation"] == [[0, 1], [2, 3]] or "--ce" not in extra
            assert outputs[0][0] == (0 if ce else 1), (method, extra)
        calls.clear()


# Rows of a forged `aps` key: an edit of the allocate document's `aps` list
# and the error line verify gives. The base is `allocate --method two-agent`
# on BASE_EXAMPLE; agent 1's APS is 3, and its first witness set, worth 3,
# falls below that when it loses an item.
def _move_item(aps):
    sets = aps[1]["witness"]["sets"]
    sets[1].append(sets[0].pop(0))


def _add(field, delta):
    def edit(aps):
        *path, key = field
        node = aps[1]
        for k in path:
            node = node[k]
        node[key] = f"{Fraction(node[key]) + delta}" if isinstance(node[key], str) else node[key] + delta
    return edit


def _drop_bundle(aps):
    del aps[1]["witness"]["sets"][-1], aps[1]["witness"]["weights"][-1]


def _lower_all(aps):
    for edit in (_add(("value",), -1), _add(("certificate", "value_bound"), -1), _add(("witness", "value_floor"), -1)):
        edit(aps)


def _set_budget(aps):
    aps[1]["certificate"]["budget"] = "2/5"


FORGED_APS = [
    ("price", _add(("certificate", "prices", 0), 1), "aps[1].certificate: does not prove APS <= 3"),
    ("weight", _add(("witness", "weights", 0), Fraction(1, 10)), "aps[1].witness: does not prove APS >= 3"),
    ("dropped bundle", _drop_bundle, "aps[1].witness: does not prove APS >= 3"),
    ("moved item", _move_item, "aps[1].witness: does not prove APS >= 3"),
    ("budget", _set_budget, "aps[1].certificate.budget: 2/5 is not the entitlement 3/5"),
    ("entry count", lambda aps: aps.pop(), "aps: expected 2 entries, one per agent, got 1"),
    ("value raised", _add(("value",), 1),
     "aps[1].value: 4, certificate.value_bound 3 and witness.value_floor 3 differ"),
    ("all lowered", _lower_all, "aps[1].certificate: does not prove APS <= 2"),
    ("missing witness", lambda aps: aps[1].pop("witness"), "aps[1].witness: missing"),
    ("decimal price", lambda aps: aps[1]["certificate"]["prices"].__setitem__(0, "0.4"),
     "aps[1].certificate.prices[0]: not a rational 'p/q' or integer string: '0.4'"),
]


def _forged_allocation(tmp_path, capsys, edit) -> tuple[str, str]:
    """The BASE_EXAMPLE instance path and its two-agent allocate document,
    written with `edit` applied to its `aps` list."""
    inst_path = write(tmp_path, "two.json", BASE_EXAMPLE)
    code, doc, _ = run_cli(capsys, ["allocate", inst_path, "--method", "two-agent"])
    assert code == 0 and doc["aps"][1]["value"] == 3
    edit(doc["aps"])
    return inst_path, write(tmp_path, "forged.json", doc)


@pytest.mark.parametrize("label, edit, message", FORGED_APS, ids=[row[0] for row in FORGED_APS])
def test_verify_refuses_forged_aps_proofs(tmp_path, capsys, label, edit, message):
    inst_path, forged = _forged_allocation(tmp_path, capsys, edit)
    for extra in ([], ["--bounds", "two-agent-aps"]):
        code, out, err = run_cli(capsys, ["verify", inst_path, forged, *extra])
        assert (code, out, err) == (2, None, f"error: {message}\n"), extra


def test_forged_aps_is_refused_under_optimize_flag(tmp_path, capsys):
    # The understated APS, in a `python -O` interpreter: the check is no
    # assert, and the forged cap never reaches the partition search.
    label, edit, message = FORGED_APS[-3]
    assert label == "all lowered"
    inst_path, forged = _forged_allocation(tmp_path, capsys, edit)
    env = {**os.environ, "PYTHONPATH": str(Path(fairshare.cli.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "fairshare.cli", "verify", inst_path, forged],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", f"error: {message}\n")


def test_every_document_is_written_as_json_dumps_writes_it(tmp_path, capsys):
    # Seeded runs of every command, with agent names that need escaping:
    # stdout holds the bytes of json.dumps(indent=2).
    rng = random.Random(11)
    names = ['say "hi"', "back\\slash", "\x00\x1f\t", "caf\u00e9", "\U0001f600"]
    for trial in range(6):
        n, m = rng.randint(2, 3), rng.randint(0, 5)
        equal = trial % 2 == 0
        entitlements = [f"1/{n}"] * n if equal else {2: ["1/6", "5/6"], 3: ["1/6", "1/3", "1/2"]}[n]
        agents = [
            {"name": names[(trial + i) % len(names)], "entitlement": b, "values": [rng.randint(0, 6) for _ in range(m)]}
            for i, b in enumerate(entitlements)
        ]
        doc = {"agents": agents}
        inst = write(tmp_path, "inst.json", doc)
        played = str(tmp_path / "game.json")
        argvs = [
            ["shares", inst, "--notions", ",".join(fairshare.cli.NOTIONS)],
            ["game", inst],
            ["game", inst, "--replay", played],
            ["game", inst, "--focal", "1", "--adversary", "worst"],
            ["allocate", inst, "--method", "bidding"],
        ]
        if equal:
            argvs.append(["allocate", inst, "--method", "greedy-efx"])
        if n == 2:
            argvs.append(["allocate", inst, "--method", "two-agent"])
        for argv in argvs:
            code = main(argv)
            out = capsys.readouterr().out
            assert code in (0, 1), argv
            assert json.dumps(json.loads(out), indent=2) + "\n" == out, argv
            if argv == ["game", inst]:
                Path(played).write_text(out, encoding="utf-8")
            if argv[0] == "allocate":
                certified = write(tmp_path, "certified.json", json.loads(out))
                main(["verify", inst, certified])
                out = capsys.readouterr().out
                assert json.dumps(json.loads(out), indent=2) + "\n" == out, argv


def test_decimal_fields_render_values_beyond_float_range(tmp_path, capsys):
    # An item worth 10^309 overflows a float division; the six digits come
    # from the exact rational, rounded half to even.
    big = 10**309
    doc = {
        "agents": [
            {"entitlement": "1/2", "values": [big, big, 1]},
            {"entitlement": "1/2", "values": [1, 1, big]},
        ]
    }
    inst_path = write(tmp_path, "inst.json", doc)
    reports = []
    for method in ("two-agent", "greedy-efx"):
        code, out, err = run_cli(capsys, ["allocate", inst_path, "--method", method])
        assert (code, err) == (0, "")
        reports.append(out["report"])
    alloc_path = write(tmp_path, "alloc.json", out["allocation"])
    code, out, err = run_cli(capsys, ["verify", inst_path, alloc_path])
    assert (code, err) == (0, "")
    reports.append(out["bounds"])
    for row in (row for report in reports for row in report["agents"]):
        for field in ("threshold", "fraction"):
            whole, part = row[f"{field}_decimal"].split(".")
            assert len(part) == 6
            assert Fraction(f"{whole}.{part}") == round(Fraction(row[field]), 6)
    assert fairshare.verify._decimal(Fraction(5, 10**7)) == "0.000000"
    assert fairshare.verify._decimal(Fraction(15, 10**7)) == "0.000002"


def test_verify_corrupted_allocation(tmp_path, capsys):
    inst_path = write(tmp_path, "inst.json", BASE_EXAMPLE)
    alloc_path = write(tmp_path, "alloc.json", [[0, 0], [1, 2, 3, 4]])
    code, _, err = run_cli(capsys, ["verify", inst_path, alloc_path])
    assert code == 2
    assert "allocated twice" in err


def test_verify_starved_agent(tmp_path, capsys):
    inst_path = write(
        tmp_path,
        "inst.json",
        {
            "agents": [
                {"entitlement": "1/2", "values": [5, 5]},
                {"entitlement": "1/2", "values": [5, 5]},
            ]
        },
    )
    alloc_path = write(tmp_path, "alloc.json", [[0, 1], []])
    code, doc, err = run_cli(capsys, ["verify", inst_path, alloc_path])
    assert code == 1
    assert "verification failed" in err
    assert doc["bounds"]["all_passed"] is False


@pytest.mark.parametrize(
    "argv, message",
    [
        (["verify", "{inst}", "{three}"], "allocation: expected 2 bundles, got 3"),
        (["verify", "{inst}", "{one}"], "allocation: expected 2 bundles, got 1"),
        (["shares", "{inst}", "--notions", " , "], "notions: empty list"),
        (["shares", "{inst}", "--agent", "5"], "agent: index 5 out of range"),
        (["game", "{inst}", "--focal", "5", "--adversary", "worst"], "focal: agent 5 out of range"),
        (["game", "{inst}", "--adversary", "best"], "adversary: expected 'worst' or 'pattern:K[,L]', got 'best'"),
        (["shares", "{inst}", "--agent", "x"], "argument --agent: invalid agent index value: 'x'"),
        (["game", "{inst}", "--focal", "x"], "argument --focal: invalid agent index value: 'x'"),
        (["game", "{inst}", "--focal", "0"], "--focal: not used without --adversary"),
        (["game", "{inst}", "--focal", "9", "--strategies", "0=tps"], "--focal: not used without --adversary"),
        (["shares", "{inst}", "--notions", "aps,mms,aps"], "notions: 'aps' given twice"),
        (["game", "{inst}", "--adversary", "worst", "--strategies", "1=tps"], "--strategies: agent 1 is not the focal agent"),
        (["shares", "{none}"], "agents: expected at least one agent"),
    ],
)
def test_input_error_texts(tmp_path, capsys, argv, message):
    paths = {
        "inst": write(tmp_path, "inst.json", BASE_EXAMPLE),
        "three": write(tmp_path, "three.json", [[0, 1], [2, 3], [4]]),
        "one": write(tmp_path, "one.json", [[0, 1, 2, 3, 4]]),
        "none": write(tmp_path, "none.json", {"agents": []}),
    }
    try:
        code, out, err = run_cli(capsys, [arg.format(**paths) for arg in argv])
    except SystemExit as exc:
        # argparse refuses an option value itself: its usage text, then one
        # line "fairshare <command>: error: <message>".
        captured = capsys.readouterr()
        usage, _, last = captured.err.rstrip("\n").rpartition("\n")
        assert usage.startswith("usage: fairshare ")
        assert last.startswith(f"fairshare {argv[0]}: ")
        code, out, err = exc.code, captured.out or None, last.split(": ", 1)[1] + "\n"
    assert (code, out, err) == (2, None, f"error: {message}\n")


def test_game_worst_case_sweep(tmp_path, capsys):
    inst_path = write(tmp_path, "inst.json", BASE_EXAMPLE)
    code, doc, _ = run_cli(
        capsys, ["game", inst_path, "--strategies", "0=aps35:2", "--adversary", "worst"]
    )
    assert code == 0
    assert doc["min_value"] >= 2
    assert doc["pattern"] is not None
    assert doc["patterns_checked"] == 1 + 5 + 10
    assert doc["patterns_feasible"] >= 1


def _fresh_build_sweep(inst, focal, name, z):
    """The worst-case sweep document with a fresh strategy built per pattern."""
    v, b = inst.valuations[focal], inst.entitlements[focal]
    patterns = enumerate_win_patterns(inst.m)
    worst = None
    feasible = 0
    for wins in patterns:
        t = worst_case_adversary(v, b, STRATEGIES[name](v, b, z), wins)
        feasible += not t.infeasible
        got = v.value(t.allocation.bundles[0])
        if worst is None or got < worst[0]:
            worst = (got, wins, t)
    return {
        "focal": focal,
        "strategy": name,
        "patterns_checked": len(patterns),
        "patterns_feasible": feasible,
        "min_value": worst[0],
        "pattern": list(worst[1]),
        "transcript": worst[2].to_json_dict(),
    }


def test_game_worst_sweep_matches_fresh_builds(tmp_path, capsys, monkeypatch):
    # The sweep builds its strategy once and clones it per pattern; the
    # document must equal the one a fresh build per pattern gives, and the
    # simulation search behind meta and aps35 must run once per sweep.
    calls = []
    real = fairshare.bidding.best_good_z

    def counted(valuation, b):
        calls.append(1)
        return real(valuation, b)

    monkeypatch.setattr(fairshare.bidding, "best_good_z", counted)
    rng = random.Random(4)
    cells = [(n, m, kind) for n in (2, 3, 4) for m in (4, 5, 6) for kind in ("equal", "weighted")]
    for n, m, kind in rng.sample(cells, 8):
        weights = [1] * n if kind == "equal" else [rng.randint(1, 5) for _ in range(n)]
        agents = [
            {"entitlement": str(Fraction(w, sum(weights))), "values": [rng.randint(0, 6) for _ in range(m)]}
            for w in weights
        ]
        path = write(tmp_path, "inst.json", {"agents": agents})
        with open(path, encoding="utf-8") as fh:
            inst = parse_instance(fh.read())
        focal = rng.randrange(n)
        target = rng.randint(1, max(1, inst.valuations[focal].total))
        specs = [(name, None) for name in STRATEGIES if name != "lemma34"]
        specs += [("lemma34", target), ("aps35", target)]
        for name, z in specs:
            spec = name if z is None else f"{name}:{z}"
            argv = ["game", path, "--focal", str(focal), "--adversary", "worst"]
            calls.clear()
            code, doc, _ = run_cli(capsys, argv + ["--strategies", f"{focal}={spec}"])
            assert code == 0
            searches = z is None and name in ("meta", "aps35", "aps35-alt")
            assert len(calls) == (1 if searches else 0), (n, m, kind, spec)
            assert doc == _fresh_build_sweep(inst, focal, name, z), (n, m, kind, spec)
        code, doc, err = run_cli(capsys, argv + ["--strategies", f"{focal}=lemma34"])
        assert (code, doc) == (2, None)
        assert "lemma34 needs an explicit target" in err


def test_game_single_pattern(tmp_path, capsys):
    inst_path = write(tmp_path, "inst.json", BASE_EXAMPLE)
    code, doc, _ = run_cli(
        capsys, ["game", inst_path, "--focal", "0", "--adversary", "pattern:1,3"]
    )
    assert code == 0
    assert doc["pattern"] == [1, 3]
    assert isinstance(doc["value"], int)
    assert doc["transcript"]["rounds"]
    code, doc, _ = run_cli(capsys, ["game", inst_path, "--focal", "0", "--adversary", "pattern:"])
    assert code == 0
    assert doc["pattern"] == []
    # A pattern names at most two conceded rounds of this 5-item game, each
    # once, in order.
    for pattern in ("pattern:1,1", "pattern:3,1", "pattern:99", "pattern:1,2,3"):
        code, doc, err = run_cli(capsys, ["game", inst_path, "--focal", "0", "--adversary", pattern])
        assert (code, doc) == (2, None), pattern
        assert err.startswith("error: adversary: "), pattern


def test_game_run_and_replay(tmp_path, capsys):
    # `--replay` takes a bare transcript, or a `game` or `allocate --method
    # bidding` document as it was written, and replays the transcript it
    # holds as it replays that transcript bare. An adversary's transcript is
    # a game of the duel instance: the focal agent's values in both rows,
    # entitlements (b, 1-b).
    units = write(tmp_path, "units.json", FIVE_UNITS)
    focal = {"entitlement": "2/7", "values": [4, 1, 3, 0, 2]}
    other = {"entitlement": "5/7", "values": [0, 2, 2, 1, 5]}
    pair = write(tmp_path, "pair.json", {"agents": [focal, other]})
    duel = write(tmp_path, "duel.json", {"agents": [focal, dict(focal, entitlement="5/7")]})
    cases = [
        (["game", units, "--strategies", "0=tps,1=tps,2=tps"], units),
        (["game", pair, "--adversary", "pattern:1"], duel),
        (["game", pair, "--adversary", "worst"], duel),
        (["allocate", units, "--method", "bidding"], units),
    ]
    for argv, replayed_on in cases:
        code, doc, _ = run_cli(capsys, argv)
        assert code == 0, argv
        played = [list(b) for b in GameTranscript.from_json_dict(doc["transcript"]).allocation.bundles]
        assert doc.get("allocation", played) == played, argv
        for path in (write(tmp_path, "bare.json", doc["transcript"]), write(tmp_path, "doc.json", doc)):
            code, out, err = run_cli(capsys, ["game", replayed_on, "--replay", path])
            assert (code, out, err) == (0, {"replay": "ok", "allocation": played}, ""), argv
    # A document without a transcript is read as a bare one, and has no rounds.
    for inst, method in ((units, "greedy-efx"), (pair, "two-agent")):
        code, doc, _ = run_cli(capsys, ["allocate", inst, "--method", method])
        assert code == 0, method
        code, out, err = run_cli(capsys, ["game", inst, "--replay", write(tmp_path, "doc.json", doc)])
        assert (code, out, err) == (2, None, "error: rounds: missing\n"), method


@pytest.mark.parametrize(
    "option",
    [
        ["--adversary", "worst"],
        ["--adversary", "bogus"],
        ["--focal", "0"],
        ["--focal", "9"],
        ["--strategies", "0=tps"],
        ["--tie-break", "lowest"],
    ],
)
def test_game_replay_refuses_the_other_options(tmp_path, capsys, option):
    # A replay plays no strategy, so an option of the other modes is
    # refused, naming it, rather than silently ignored.
    units = write(tmp_path, "units.json", FIVE_UNITS)
    code, doc, _ = run_cli(capsys, ["game", units])
    assert code == 0
    played = write(tmp_path, "played.json", doc["transcript"])
    code, out, err = run_cli(capsys, ["game", units, "--replay", played, *option])
    assert (code, out, err) == (2, None, f"error: {option[0]}: not used with --replay\n")


def test_zero_item_instance_commands(tmp_path, capsys):
    # An instance with no items is valid: every command that plays or
    # solves it exits 0 with one JSON document.
    empty = write(
        tmp_path,
        "empty.json",
        {"agents": [{"entitlement": "2/5", "values": []}, {"entitlement": "3/5", "values": []}]},
    )
    for argv in (
        ["shares", empty],
        ["allocate", empty, "--method", "bidding"],
        ["allocate", empty, "--method", "two-agent"],
        ["game", empty, "--adversary", "worst"],
    ):
        code = main(argv)
        out = capsys.readouterr().out
        assert code == 0, argv
        doc = json.loads(out)
        assert json.dumps(doc, indent=2) + "\n" == out, argv
    assert doc["min_value"] == 0 and doc["patterns_checked"] == 1


@pytest.mark.parametrize(
    "field, value, fault",
    [
        ("winner", 5, "rounds[0].winner: agent 5 out of range"),
        ("winner", "x", "rounds[0].winner: expected an integer, got 'x'"),
        ("taken", [7], "rounds[0].taken: not a set of remaining items"),
        ("payment", "7", "rounds[0].payment: 7 != 1/5"),
    ],
)
def test_game_replay_names_round_faults_at_their_path(tmp_path, capsys, field, value, fault):
    # A round's legality faults and its type faults name the field path the
    # transcript was read at: from the root of a bare file, and under
    # `transcript` in a `game` document.
    units = write(tmp_path, "units.json", FIVE_UNITS)
    code, played, _ = run_cli(capsys, ["game", units, "--strategies", "0=tps,1=tps,2=tps"])
    assert code == 0 and played["transcript"]["rounds"][0]["payment"] == "1/5"
    played["transcript"]["rounds"][0][field] = value
    for doc, at in ((played["transcript"], ""), (played, "transcript.")):
        code, out, err = run_cli(capsys, ["game", units, "--replay", write(tmp_path, "t.json", doc)])
        assert (code, out, err) == (2, None, f"error: {at}{fault}\n")


def test_game_replay_rejects_foreign_transcript(tmp_path, capsys):
    units = write(tmp_path, "units.json", FIVE_UNITS)
    other = write(tmp_path, "other.json", BASE_EXAMPLE)
    code, doc, _ = run_cli(capsys, ["game", units])
    assert code == 0
    code, _, err = run_cli(capsys, ["game", other, "--replay", write(tmp_path, "transcript.json", doc["transcript"])])
    assert code == 2
    # A bare transcript's round faults are named from its root.
    assert err == "error: rounds[0]: expected 2 bids, got 3\n"


_TAMPERED = [
    (("rounds", 0, "winner"), 1.9, "rounds[0].winner"),
    (("rounds", 0, "winner"), "1", "rounds[0].winner"),
    (("rounds", 0, "winner"), True, "rounds[0].winner"),
    (("rounds", 0, "taken"), [0.0], "rounds[0].taken[0]"),
    (("rounds", 0, "taken"), ["0"], "rounds[0].taken[0]"),
    (("rounds", 0, "taken"), [False], "rounds[0].taken[0]"),
    (("rounds", 0, "bids"), "111", "rounds[0].bids"),
    (("allocation", 0), [0.0], "allocation[0][0]"),
    (("allocation", 0), ["0"], "allocation[0][0]"),
    (("allocation", 0), [False], "allocation[0][0]"),
    (("allocation",), "abc", "allocation"),
    (("flags",), "abc", "flags"),
    (("flags",), [1], "flags[0]"),
    (("rounds", 0, "bids", 0), 0.2, "rounds[0].bids[0]"),
    (("rounds", 0, "bids", 0), True, "rounds[0].bids[0]"),
    (("rounds", 0, "payment"), 0.2, "rounds[0].payment"),
    (("rounds", 0, "payment"), False, "rounds[0].payment"),
    (("allocation",), [[0.0], [1]], "allocation[0][0]"),
    (("rounds", 2, "bids", 1), 0, None),
    (("rounds", 0, "payment"), 1, None),
]


@pytest.mark.parametrize(
    "key, value, field",
    _TAMPERED,
    ids=[f"{field or '.'.join(map(str, key))}={value!r}" for key, value, field in _TAMPERED],
)
def test_transcript_fields_must_have_their_json_types(tmp_path, capsys, key, value, field):
    # Winners and item indices are JSON integers, never floats, strings or
    # bools, and flags a list of strings, as in the share certificates. Bids
    # and payments are rationals: a JSON integer (field None) reads as its
    # integer string does. An allocation file is read as the transcript's
    # allocation is. Inside a `game` document, the path starts at its
    # `transcript` key.
    units = write(tmp_path, "units.json", FIVE_UNITS)
    code, played, _ = run_cli(capsys, ["game", units, "--strategies", "0=tps,1=tps,2=tps"])
    assert code == 0
    doc = played["transcript"]
    node = doc
    for k in key[:-1]:
        node = node[k]
    node[key[-1]] = value
    if field is None:
        parsed = GameTranscript.from_json_dict(doc)
        node[key[-1]] = str(value)
        assert parsed == GameTranscript.from_json_dict(doc)
        return
    with pytest.raises(InputError) as exc:
        GameTranscript.from_json_dict(doc)
    assert str(exc.value).startswith(f"{field}: expected ")
    bad = write(tmp_path, "tampered.json", doc)
    code, out, err = run_cli(capsys, ["game", units, "--replay", bad])
    assert (code, out) == (2, None)
    assert f"{field}: expected " in err
    with pytest.raises(InputError) as exc:
        GameTranscript.from_json_dict(doc, "transcript")
    assert str(exc.value).startswith(f"transcript.{field}: expected ")
    code, out, err = run_cli(capsys, ["game", units, "--replay", write(tmp_path, "game.json", played)])
    assert (code, out) == (2, None)
    assert err.startswith(f"error: transcript.{field}: expected ")
    if key[0] == "allocation":
        code, out, err = run_cli(capsys, ["verify", units, write(tmp_path, "alloc.json", doc["allocation"])])
        assert (code, out) == (2, None)
        assert err.startswith(f"error: {field}: expected ")


def test_game_worst_sweep_work_counts(tmp_path, capsys, monkeypatch):
    # The sweep plays each round shared by several concession patterns once,
    # forking the game and a strategy clone only where the coalition may
    # still concede a positively bid round. Playing every pattern from round
    # 1 instead settles 69 rounds with 16 clones on the first instance. On
    # the second, meta's z search also stops each line once its outcome is
    # decided; playing those lines in full settles 112 rounds with 25 clones.
    # A forked branch settles its conceded round only when it is played, so
    # the branches a failing z-test forks but never plays cost a fork and a
    # clone each, not also a settle; settling each at its fork gives 48.
    # A settled round becomes a RoundRecord only in the one transcript the
    # command reports, so the lines the z search discards build none.
    counts = {"settle": 0, "clone": 0, "record": 0}

    def counting(name, real):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return real(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(_Game, "settle", counting("settle", _Game.settle))
    monkeypatch.setattr(Strategy, "clone", counting("clone", Strategy.clone))
    monkeypatch.setattr(RoundRecord, "__init__", counting("record", RoundRecord.__init__))
    six = {
        "agents": [
            {"entitlement": "2/5", "values": [5, 4, 4, 3, 1, 1]},
            {"entitlement": "3/5", "values": [1, 1, 3, 4, 4, 5]},
        ]
    }
    cases = [
        (write(tmp_path, "base.json", BASE_EXAMPLE), "0=aps35:2", {"settle": 14, "clone": 3, "record": 4}),
        (write(tmp_path, "six.json", six), "0=meta", {"settle": 43, "clone": 18, "record": 6}),
    ]
    for path, spec, expected in cases:
        counts.update(settle=0, clone=0, record=0)
        code, doc, _ = run_cli(capsys, ["game", path, "--adversary", "worst", "--strategies", spec])
        assert code == 0
        assert counts == expected, spec
        assert counts["record"] == len(doc["transcript"]["rounds"]), spec


def test_game_strategy_spec_errors(tmp_path, capsys):
    inst_path = write(tmp_path, "inst.json", BASE_EXAMPLE)
    for spec in ("0=bogus", "9=tps", "0=lemma34", "tps", "0=tps,0=zero"):
        code, _, err = run_cli(capsys, ["game", inst_path, "--strategies", spec])
        assert code == 2
        assert "strategies" in err
    assert "strategies: agent 0 given twice" in err
    # Only aps35, aps35-alt and lemma34 read a target; any other strategy
    # refuses one instead of dropping it.
    for agent, name, target in ((0, "tps", "5"), (1, "meta", "3"), (0, "rank", "-7"), (0, "zero", "1"),
                                (1, "maxval", "2"), (0, "maxval-tps", "2")):
        code, out, err = run_cli(capsys, ["game", inst_path, "--strategies", f"{agent}={name}:{target}"])
        assert (code, out) == (2, None), name
        assert err == f"error: strategies: {name} takes no target, got '{name}:{target}' for agent {agent}\n"
    code, doc, _ = run_cli(capsys, ["game", inst_path, "--strategies", "0=aps35:2"])
    assert code == 0 and doc["allocation"]


def test_game_explicit_target_accepted(tmp_path, capsys):
    inst_path = write(tmp_path, "inst.json", BASE_EXAMPLE)
    code, doc, _ = run_cli(
        capsys, ["game", inst_path, "--strategies", "0=lemma34:1,1=aps35:2", "--tie-break", "avoid:0"]
    )
    assert code == 0
    assert doc["allocation"]


def test_cli_is_deterministic(tmp_path, capsys):
    inst_path = write(tmp_path, "units.json", FIVE_UNITS)
    argv = ["allocate", inst_path, "--method", "bidding"]
    code, doc1, _ = run_cli(capsys, argv)
    assert code == 0
    code, doc2, _ = run_cli(capsys, argv)
    assert doc1 == doc2


def test_cli_requires_subcommand(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_bad_tie_break_is_input_error(tmp_path, capsys):
    inst_path = write(tmp_path, "units.json", FIVE_UNITS)
    # every mode checks the option against the instance before any work,
    # also where no bidding game is played
    for command in (["game", inst_path], ["allocate", inst_path, "--method", "greedy-efx"]):
        code, doc, err = run_cli(capsys, command + ["--tie-break", "highest"])
        assert (code, doc) == (2, None)
        assert "tie-break" in err
    # an agent index outside the instance is refused, not played as `lowest`
    for command in (
        ["game", inst_path],
        ["game", inst_path, "--adversary", "pattern:1"],
        ["game", inst_path, "--adversary", "worst"],
        ["allocate", inst_path, "--method", "bidding"],
    ):
        for text in ("avoid:99", "avoid:-4"):
            code, doc, err = run_cli(capsys, command + ["--tie-break", text])
            assert (code, doc) == (2, None)
            assert "tie_break" in err and "0 <= i < 3" in err


@pytest.mark.parametrize(
    "command, alloc, code, err",
    [
        ("shares", None, 0, ""),
        ("verify", [[0, 1, 2, 3, 4], []], 1, "error: verification failed\n"),
    ],
)
def test_closed_stdout_exits_with_the_command_code(tmp_path, command, alloc, code, err):
    # stdout is a pipe whose read end is closed before the process starts,
    # so every write to it fails: the run still ends with its own exit code
    # and its own diagnostics, without a traceback.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    instance = tmp_path / "instance.json"
    instance.write_text(re.search(r"## Instance format\n+```json\n(.*?)```", readme, re.S).group(1), encoding="utf-8")
    argv = [command, str(instance)] + ([write(tmp_path, "alloc.json", alloc)] if alloc else [])
    env = {**os.environ, "PYTHONPATH": str(Path(fairshare.cli.__file__).parents[1])}
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "fairshare.cli", *argv],
            stdout=write_end, stderr=subprocess.PIPE, text=True, env=env, timeout=120,
        )
    finally:
        os.close(write_end)
    for marker in ("Traceback", "BrokenPipeError", "Exception ignored"):
        assert marker not in proc.stderr
    assert (proc.returncode, proc.stderr) == (code, err)
