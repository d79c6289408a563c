from __future__ import annotations

import json
import random
import sys
from fractions import Fraction

import pytest

import fairshare.bidding
import fairshare.cli
import fairshare.shares
import fairshare.verify
from fairshare.bidding import GameTranscript, Strategy, _Game, enumerate_win_patterns, worst_case_adversary
from fairshare.cli import STRATEGIES, main
from fairshare.core import InputError, parse_instance

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
    replay = str(tmp_path / "transcript.json")
    assert run_cli(capsys, ["game", inst, "--strategies", "0=tps,1=tps", "--transcript", replay])[0] == 0
    with open(replay, encoding="utf-8") as fh:
        transcript = json.load(fh)

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
    # The split and its check share one aps_exact result per agent; the
    # document equals the one the library gives when each solves its own.
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
    inst_path = write(tmp_path, "units.json", FIVE_UNITS)
    out_path = str(tmp_path / "transcript.json")
    code, doc, _ = run_cli(
        capsys, ["game", inst_path, "--strategies", "0=tps,1=tps,2=tps", "--transcript", out_path]
    )
    assert code == 0
    first_alloc = doc["allocation"]
    code, doc, _ = run_cli(capsys, ["game", inst_path, "--replay", out_path])
    assert code == 0
    assert doc["replay"] == "ok"
    assert doc["allocation"] == first_alloc


@pytest.mark.parametrize("mode", [[], ["--adversary", "pattern:1"], ["--adversary", "worst"]])
def test_game_transcript_path_it_cannot_write(tmp_path, capsys, mode):
    units = write(tmp_path, "units.json", FIVE_UNITS)
    for out in (tmp_path / "missing" / "transcript.json", tmp_path):
        argv = ["game", units, "--strategies", "0=tps,1=tps,2=tps", *mode, "--transcript", str(out)]
        code, doc, err = run_cli(capsys, argv)
        assert (code, doc) == (2, None)
        assert err.startswith(f"error: {out}: ")


def test_game_replay_rejects_foreign_transcript(tmp_path, capsys):
    units = write(tmp_path, "units.json", FIVE_UNITS)
    other = write(tmp_path, "other.json", BASE_EXAMPLE)
    out_path = str(tmp_path / "transcript.json")
    code, _, _ = run_cli(capsys, ["game", units, "--transcript", out_path])
    assert code == 0
    code, _, err = run_cli(capsys, ["game", other, "--replay", out_path])
    assert code == 2
    assert "transcript" in err


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
    # allocation is.
    units = write(tmp_path, "units.json", FIVE_UNITS)
    out_path = str(tmp_path / "transcript.json")
    assert run_cli(capsys, ["game", units, "--strategies", "0=tps,1=tps,2=tps", "--transcript", out_path])[0] == 0
    with open(out_path, encoding="utf-8") as fh:
        doc = json.load(fh)
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
    counts = {"settle": 0, "clone": 0}

    def counting(name, real):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return real(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(_Game, "settle", counting("settle", _Game.settle))
    monkeypatch.setattr(Strategy, "clone", counting("clone", Strategy.clone))
    six = {
        "agents": [
            {"entitlement": "2/5", "values": [5, 4, 4, 3, 1, 1]},
            {"entitlement": "3/5", "values": [1, 1, 3, 4, 4, 5]},
        ]
    }
    cases = [
        (write(tmp_path, "base.json", BASE_EXAMPLE), "0=aps35:2", {"settle": 14, "clone": 3}),
        (write(tmp_path, "six.json", six), "0=meta", {"settle": 48, "clone": 18}),
    ]
    for path, spec, expected in cases:
        counts.update(settle=0, clone=0)
        code, _, _ = run_cli(capsys, ["game", path, "--adversary", "worst", "--strategies", spec])
        assert code == 0
        assert counts == expected, spec


def test_game_strategy_spec_errors(tmp_path, capsys):
    inst_path = write(tmp_path, "inst.json", BASE_EXAMPLE)
    for spec in ("0=bogus", "9=tps", "0=lemma34", "tps", "0=tps,0=zero"):
        code, _, err = run_cli(capsys, ["game", inst_path, "--strategies", spec])
        assert code == 2
        assert "strategies" in err
    assert "strategies: agent 0 given twice" in err


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
