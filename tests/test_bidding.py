from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
import random

import pytest

from fairshare import (
    AgentView,
    Allocation,
    GameTranscript,
    InputError,
    Rat,
    RoundRecord,
    Valuation,
    best_good_z,
    enumerate_win_patterns,
    make_instance,
    meta_guarantees,
    meta_strategy,
    replay_transcript,
    run_game,
    tps,
    worst_case_adversary,
    worst_case_line,
)
from fairshare import test_z_good as z_goodness
from fairshare.bidding import STRATEGIES, TARGETED, Strategy, _Aps35Strategy, _Game, _RankItemStrategy, _TpsStrategy
from fairshare.core import rat_to_str
from fairshare.oracle import game_tree_oracle
from fairshare.shares import aps_exact

from helpers import (
    adversary_sweep_min,
    base_valuation,
    five_unit_instance,
    pair_sum_valuation,
    rand_instance,
    rand_valuation,
    sweep_transcripts,
    unit_items,
)


def test_patterns_enumeration():
    pats = enumerate_win_patterns(5)
    assert len(pats) == 1 + 5 + 10
    assert () in pats
    assert (3,) in pats
    assert (2, 5) in pats
    assert all(len(p) <= 2 for p in pats)


def test_single_agent_wins_every_round():
    inst = make_instance([[3, 2, 1]], [Rat(1)])
    t = run_game(inst, [STRATEGIES["tps"](inst.valuations[0], Rat(1), None)])
    assert t.allocation.bundles[0] == (0, 1, 2)
    assert not t.flags


def test_all_tps_agents_split_five_units():
    inst = five_unit_instance()
    strategies = [STRATEGIES["tps"](inst.valuations[i], inst.entitlements[i], None) for i in range(3)]
    t = run_game(inst, strategies)
    assert not t.flags
    assert all(len(b) >= 1 for b in t.allocation.bundles)
    assert replay_transcript(inst, t) == t.allocation


def test_max_value_bidder_versus_zero():
    inst = make_instance([[4, 3, 2, 1], [4, 3, 2, 1]], [Rat(1, 2), Rat(1, 2)])

    def players():
        return [
            STRATEGIES["maxval"](inst.valuations[0], Rat(1, 2), None),
            STRATEGIES["zero"](inst.valuations[1], inst.entitlements[1], None),
        ]

    # ties at zero go to the lowest index, so agent 0 also sweeps the tail
    t = run_game(inst, players())
    assert t.allocation.bundles[0] == (0, 1, 2, 3)
    assert t.rounds[0].bids == (Rat(2, 5), Rat(0))
    assert t.rounds[0].payment == Rat(2, 5)
    assert t.rounds[1].payment == Rat(1, 10)
    # steering zero-ties away from agent 0 shows the budget running dry
    t = run_game(inst, players(), tie_break=("avoid", 0))
    assert t.allocation.bundles[0] == (0, 1)
    assert t.allocation.bundles[1] == (2, 3)
    assert t.rounds[2].payment == Rat(0)


def test_illegal_bid_is_flagged_and_zeroed():
    class BadBid(Strategy):
        def bid(self, view):
            return 0.4

        def select(self, view):
            return (view.remaining[0],)

    inst = make_instance([[2, 1]], [Rat(1)])
    t = run_game(inst, [BadBid()])
    assert "round 1: agent 0 bid fault" in t.flags
    assert t.rounds[0].bids == (Rat(0),)
    assert t.allocation.bundles[0] == (0, 1)


def test_overbudget_bid_is_flagged():
    class TooMuch(Strategy):
        def bid(self, view):
            return view.budget + 1

        def select(self, view):
            return (view.remaining[0],)

    inst = make_instance([[2, 1], [2, 1]], [Rat(1, 2), Rat(1, 2)])
    t = run_game(inst, [TooMuch(), STRATEGIES["zero"](inst.valuations[1], inst.entitlements[1], None)])
    assert any("agent 0 bid fault" in f for f in t.flags)
    assert all(r.bids[0] == 0 for r in t.rounds)


def test_illegal_selection_falls_back_to_top_item():
    # An empty selection, and one whose entries cannot even be hashed, are
    # both flagged faults; neither may raise.
    for picked in ((), [[0]]):

        class BadPick(Strategy):
            def bid(self, view):
                return Rat(0)

            def select(self, view):
                return picked

        inst = make_instance([[1, 5, 3]], [Rat(1)])
        t = run_game(inst, [BadPick()])
        assert "round 1: agent 0 selection fault" in t.flags, picked
        assert t.rounds[0].taken == (1,)

    # A round the coalition concedes checks the selection the same way.
    class BadConceded(Strategy):
        def bid(self, view):
            return min(Rat(1, 4), view.budget)

        def select(self, view):
            return [[0]]

    t = worst_case_adversary(Valuation((1, 5, 3)), Rat(1, 2), BadConceded(), (1,))
    assert t.flags == ("round 1: agent 0 selection fault",)
    assert t.rounds[0] == RoundRecord((Rat(1, 4), Rat(0)), 0, (1,), Rat(1, 4))


def test_run_game_rejects_wrong_strategy_count():
    inst = five_unit_instance()
    with pytest.raises(InputError):
        run_game(inst, [STRATEGIES["zero"](inst.valuations[0], inst.entitlements[0], None)])


@pytest.mark.parametrize("tie_break", ["highest", ("avoid", 3), ("avoid", -1), ("avoid", "0"), ("avoid",)])
def test_run_game_checks_the_tie_break(tie_break):
    inst = five_unit_instance()
    strategies = [STRATEGIES["zero"](v, b, None) for v, b in zip(inst.valuations, inst.entitlements)]
    with pytest.raises(InputError) as exc:
        run_game(inst, strategies, tie_break)
    assert str(exc.value).startswith("tie_break: expected 'lowest' or ('avoid', i) with 0 <= i < 3")


def test_transcript_json_round_trip():
    inst = five_unit_instance()
    strategies = [STRATEGIES["tps"](inst.valuations[i], inst.entitlements[i], None) for i in range(3)]
    t = run_game(inst, strategies)
    back = GameTranscript.from_json_dict(t.to_json_dict())
    assert back.rounds == t.rounds
    assert back.allocation == t.allocation
    assert back.flags == t.flags
    assert replay_transcript(inst, back) == t.allocation
    # Rounds built by hand may hold lists; replay reads them the same.
    listed = tuple(RoundRecord(list(r.bids), r.winner, list(r.taken), r.payment) for r in t.rounds)
    assert replay_transcript(inst, GameTranscript(listed, t.allocation, t.flags)) == t.allocation


def test_replay_ranks_no_items(monkeypatch):
    # Replay only checks and settles recorded rounds; it never asks for a
    # top item, so it ranks no agent's items.
    inst = five_unit_instance()
    t = run_game(inst, [STRATEGIES["tps"](inst.valuations[i], inst.entitlements[i], None) for i in range(3)])
    calls = []
    real = Valuation.ranked_items
    monkeypatch.setattr(Valuation, "ranked_items", lambda v: calls.append(v) or real(v))
    assert replay_transcript(inst, t) == t.allocation
    assert calls == []


def test_replay_rejects_tampering():
    inst = five_unit_instance()
    strategies = [STRATEGIES["tps"](inst.valuations[i], inst.entitlements[i], None) for i in range(3)]
    t = run_game(inst, strategies)
    doc = t.to_json_dict()
    doc["rounds"][0]["payment"] = "1"
    with pytest.raises(InputError) as exc:
        replay_transcript(inst, GameTranscript.from_json_dict(doc))
    assert "payment" in str(exc.value)
    doc = t.to_json_dict()
    doc["rounds"][0]["bids"][t.rounds[0].winner] = "0"
    with pytest.raises(InputError):
        replay_transcript(inst, GameTranscript.from_json_dict(doc))


def _duel_transcript(rounds, allocation=((0,), (1, 2))) -> GameTranscript:
    return GameTranscript(tuple(RoundRecord(*r) for r in rounds), Allocation(allocation), ())


# Two equal agents over three items: agent 0 buys item 0 at 1/2, then agent 1
# buys items 1 and 2 at 1/4 each, spending both budgets exactly.
_LEGAL_ROUNDS = (
    ((Rat(1, 2), Rat(1, 4)), 0, (0,), Rat(1, 2)),
    ((Rat(0), Rat(1, 4)), 1, (1, 2), Rat(1, 2)),
)
_SECOND = _LEGAL_ROUNDS[1]


@pytest.mark.parametrize(
    "transcript, message",
    [
        (
            _duel_transcript([((Rat(1, 2),), 0, (0,), Rat(1, 2)), _SECOND]),
            "transcript.rounds[0]: expected 2 bids, got 1",
        ),
        (
            _duel_transcript([((Rat(1, 2), Rat(3, 5)), 1, (0,), Rat(3, 5)), _SECOND]),
            "transcript.rounds[0].bids[1]: 3/5 outside [0, budget]",
        ),
        (
            _duel_transcript([((Rat(1, 2), Rat(-1, 4)), 0, (0,), Rat(1, 2)), _SECOND]),
            "transcript.rounds[0].bids[1]: -1/4 outside [0, budget]",
        ),
        (
            _duel_transcript([((Rat(1, 2), Rat(1, 4)), 2, (0,), Rat(1, 2)), _SECOND]),
            "transcript.rounds[0].winner: agent 2 out of range",
        ),
        (
            _duel_transcript([((Rat(1, 2), Rat(1, 4)), 1, (0,), Rat(1, 4)), _SECOND]),
            "transcript.rounds[0].winner: agent 1 did not submit a highest bid",
        ),
        (
            _duel_transcript([((Rat(1, 2), Rat(1, 4)), 0, (), Rat(0)), _SECOND]),
            "transcript.rounds[0].taken: empty selection",
        ),
        (
            _duel_transcript([((Rat(1, 2), Rat(1, 4)), 0, (3,), Rat(1, 2)), _SECOND]),
            "transcript.rounds[0].taken: not a set of remaining items",
        ),
        (
            _duel_transcript([_LEGAL_ROUNDS[0], ((Rat(0), Rat(1, 4)), 1, (0, 1), Rat(1, 2))]),
            "transcript.rounds[1].taken: not a set of remaining items",
        ),
        (
            _duel_transcript([_LEGAL_ROUNDS[0], ((Rat(0), Rat(1, 4)), 1, (1, 1), Rat(1, 2))]),
            "transcript.rounds[1].taken: not a set of remaining items",
        ),
        (
            _duel_transcript([((Rat(1, 2), Rat(1, 4)), 0, (0,), Rat(1)), _SECOND]),
            "transcript.rounds[0].payment: 1 != 1/2",
        ),
        (
            _duel_transcript([((Rat(1, 2), Rat(1, 4)), 0, (0, 1), Rat(1)), _SECOND]),
            "transcript.rounds[0].payment: exceeds winner budget",
        ),
        (
            _duel_transcript([_LEGAL_ROUNDS[0], ((Rat(0), Rat(1, 4)), 1, (1,), Rat(1, 4))]),
            "transcript: items [2] never allocated",
        ),
        (
            _duel_transcript(_LEGAL_ROUNDS, allocation=((0, 1), (2,))),
            "transcript: allocation does not match the replayed rounds",
        ),
    ],
)
def test_replay_rejection_texts(transcript, message):
    inst = make_instance([[3, 2, 1], [3, 2, 1]], [Rat(1, 2), Rat(1, 2)])
    assert replay_transcript(inst, _duel_transcript(_LEGAL_ROUNDS)) == Allocation(((0,), (1, 2)))
    with pytest.raises(InputError) as exc:
        replay_transcript(inst, transcript)
    assert str(exc.value) == message


def test_adversary_transcripts_replay_on_the_duel_instance():
    # The adversary plays the coalition as agent 1 of the duel instance
    # (v, v) with entitlements (b, 1-b); every line it plays, infeasible ones
    # included, must be a legal game there.
    rng = random.Random(29)
    replayed = infeasible = 0
    for _ in range(60):
        v = rand_valuation(rng, m_max=6, vmax=8)
        den = rng.randint(2, 6)
        b = Rat(rng.randint(1, den - 1), den)
        inst = make_instance([list(v.item_values)] * 2, [b, 1 - b])
        z = rng.randint(0, v.total)
        makers = [
            lambda: STRATEGIES["tps"](v, b, None),
            lambda: STRATEGIES["rank"](v, b, None),
            lambda: STRATEGIES["aps35"](v, b, z),
            lambda: STRATEGIES["lemma34"](v, b, z),
            lambda: STRATEGIES["maxval"](v, b, None),
        ]
        for make in makers:
            for wins in enumerate_win_patterns(v.m):
                t = worst_case_adversary(v, b, make(), wins)
                assert replay_transcript(inst, t) == t.allocation, (v, b, z, wins)
                replayed += 1
                infeasible += t.infeasible
    assert replayed == 3145
    assert infeasible == 1723


class _FaultyDuelist(Strategy):
    """Bids a float in round 1, 1/4 with an empty selection in round 2, then 0."""

    def bid(self, view):
        return {1: 0.25, 2: Rat(1, 4)}.get(view.round_no, Rat(0))

    def select(self, view):
        return ()


def test_adversary_faults_use_the_run_game_texts():
    v = Valuation((1, 5, 3))
    b = Rat(1, 2)
    expected = ("round 1: agent 0 bid fault", "round 2: agent 0 selection fault")
    t = worst_case_adversary(v, b, _FaultyDuelist(), (2,))
    assert t.flags == expected
    # the faulty bid became 0 and the faulty pick her top remaining item
    assert t.rounds[0] == RoundRecord((Rat(0), Rat(0)), 1, (1,), Rat(0))
    assert t.rounds[1] == RoundRecord((Rat(1, 4), Rat(0)), 0, (2,), Rat(1, 4))
    inst = make_instance([[1, 5, 3], [1, 5, 3]], [b, 1 - b])
    zero = STRATEGIES["zero"](inst.valuations[1], inst.entitlements[1], None)
    t = run_game(inst, [_FaultyDuelist(), zero], tie_break=("avoid", 0))
    assert t.flags == expected
    assert t.rounds[1].taken == (2,)


def _z_good_reference(v, b, z) -> bool:
    """`test_z_good` as a fresh three-step build per concession pattern."""
    target = Rat(3, 5) * z
    return z <= 0 or all(
        v.value(worst_case_adversary(v, b, STRATEGIES["aps35"](v, b, z), wins).allocation.bundles[0]) >= target
        for wins in enumerate_win_patterns(v.m)
    )


def test_sweep_matches_one_fresh_game_per_pattern():
    # The sweep forks lines mid-game, folds bid-0 rounds into the line that
    # outbids them and hands a line's transcript to patterns conceding past
    # its last round; each pattern must still get exactly the transcript a
    # fresh build playing it alone gets, flags included.
    rng = random.Random(47)
    seen = {"patterns": 0, "folded": 0, "past_end": 0, "infeasible": 0, "two_item": 0, "good": 0, "bad": 0}
    for _ in range(40):
        v = rand_valuation(rng, m_max=7, vmax=8)
        den = rng.randint(2, 6)
        b = Rat(rng.randint(1, den - 1), den)
        z = rng.randint(1, max(1, v.total))
        specs = [("zero", None), ("tps", None), ("rank", None), ("maxval", None), ("maxval-tps", None)]
        specs += [("lemma34", z), ("aps35", z), ("aps35-alt", z)]
        makers = [lambda name=name, z=z: STRATEGIES[name](v, b, z) for name, z in specs]
        for make in makers + [_FaultyDuelist]:
            lines = list(sweep_transcripts(v, b, make()))
            assert sorted(wins for wins, _ in lines) == sorted(enumerate_win_patterns(v.m))
            for wins, t in lines:
                assert t.to_json_dict() == worst_case_adversary(v, b, make(), wins).to_json_dict(), (v, b, wins)
                seen["patterns"] += 1
                seen["folded"] += any(k <= len(t.rounds) and t.rounds[k - 1].bids[0] == 0 for k in wins)
                seen["past_end"] += any(k > len(t.rounds) for k in wins)
                seen["infeasible"] += t.infeasible
                seen["two_item"] += any(len(r.taken) == 2 for r in t.rounds)
        best = best_good_z(v, b)
        for target in {z, best, best + 1}:
            good = z_goodness(v, b, target)
            assert good == _z_good_reference(v, b, target), (v, b, target)
            seen["good" if good else "bad"] += 1
    assert seen == {
        "patterns": 4446,
        "folded": 2524,
        "past_end": 153,
        "infeasible": 2019,
        "two_item": 492,
        "good": 75,
        "bad": 41,
    }


def test_worst_case_line_picks_the_first_lowest_pattern():
    # The report of `game --adversary`: the first pattern, in list order,
    # whose line ends lowest, that line's transcript, and how many patterns
    # end on a feasible line. A list in any order, with repeats, is read in
    # its own order; the default is every pattern of enumerate_win_patterns.
    rng = random.Random(71)
    ties = 0
    for _ in range(30):
        v = rand_valuation(rng, m_max=6, vmax=4)
        den = rng.randint(2, 6)
        b = Rat(rng.randint(1, den - 1), den)
        z = rng.randint(1, max(1, v.total))
        for name, target in (("tps", None), ("maxval", None), ("aps35", z)):
            lines = dict(sweep_transcripts(v, b, STRATEGIES[name](v, b, target)))
            every = enumerate_win_patterns(v.m)
            for patterns in (None, every[::-1] + every[:2], [every[-1]]):
                listed = every if patterns is None else patterns
                ends = [v.value(lines[wins].allocation.bundles[0]) for wins in listed]
                worst, t, feasible = worst_case_line(v, b, STRATEGIES[name](v, b, target), patterns)
                assert worst == listed[ends.index(min(ends))]
                assert t.to_json_dict() == lines[worst].to_json_dict()
                assert feasible == sum(not lines[wins].infeasible for wins in listed)
                ties += ends.count(min(ends)) > 1
    assert ties > 0
    for patterns in ([(), (0,)], []):
        with pytest.raises(InputError):
            worst_case_line(v, b, STRATEGIES["tps"](v, b, None), patterns)


def test_sweep_transcripts_pin_the_tie_rules():
    # Values 0-3 make value ties and capped ties common, so the digest moves
    # if any strategy or the coalition breaks a tie other than "highest value
    # first, lowest index on ties".
    rng = random.Random(53)
    digest = hashlib.sha256()
    for _ in range(30):
        v = rand_valuation(rng, m_max=6, vmax=3)
        den = rng.randint(2, 6)
        b = Rat(rng.randint(1, den - 1), den)
        z = rng.randint(1, max(1, v.total))
        specs = [("zero", None), ("tps", None), ("rank", None), ("maxval", None), ("maxval-tps", None)]
        specs += [("lemma34", z), ("aps35", z), ("aps35-alt", z)]
        for name, target in specs:
            lines = dict(sweep_transcripts(v, b, STRATEGIES[name](v, b, target)))
            for wins in enumerate_win_patterns(v.m):
                digest.update(json.dumps(lines[wins].to_json_dict(), sort_keys=True).encode())
    assert digest.hexdigest() == "4a74dbd78d494fa0e8809ff8d7ffd81ac9faf5b9c0960f89d23ec72c1dff5361"


def test_sweep_transcripts_pin_rational_targets():
    # The three-step bidder plays the two-stage bidder at target 2z/5 in a
    # sub-game whose budgets sum to less than 1, so the two-stage bidder must
    # give the same bids for a non-integer target and a scale other than 1 as
    # for the integer ones the CLI passes. The digest pins them; 60 of the
    # 360 sweeps enter stage 2 on some line.
    rng = random.Random(59)
    digest = hashlib.sha256()
    lines = 0
    for _ in range(40):
        v = rand_valuation(rng, m_max=6, vmax=9)
        den = rng.randint(2, 6)
        b = Rat(rng.randint(1, den - 1), den)
        z = rng.randint(1, max(1, v.total))
        for target in (Rat(2, 5) * z, Rat(7, 3), Rat(z, 3)):
            for scale in (Rat(1), Rat(3, 4), Rat(5, 7)):
                sweep = sweep_transcripts(v, b, STRATEGIES["lemma34"](v, b, target, scale=scale))
                for wins, t in sorted(sweep):
                    digest.update(json.dumps([list(wins), t.to_json_dict()], sort_keys=True).encode())
                    lines += 1
    assert lines == 4095
    assert digest.hexdigest() == "efc8a0d38df1dfd6381d68f3ba8bf4505d4ef2bbfddc5e01edeb8f442061a48a"


def test_bidding_outputs_digest_is_pinned():
    """Every built-in strategy on 300 seeded draws (m <= 6, values 0-3, 0-10
    and 0-1000, b = p/q with q <= 7), pinned as one SHA-256 digest: the
    worst line over every concession pattern, the game-tree value at m <= 5,
    and a `run_game` transcript under each tie rule. The targeted strategies
    play a seeded target; a change to a strategy's state must keep every
    output."""
    rng = random.Random(1971)
    names = sorted(STRATEGIES)
    digest = hashlib.sha256()
    for k in range(300):
        v = rand_valuation(rng, m_max=6, vmax=(3, 10, 1000)[k % 3])
        den = rng.randint(1, 7)
        b = Rat(rng.randint(1, den), den)
        z = rng.randint(0, v.total + 1)
        for name in names:
            wins, t, feasible = worst_case_line(v, b, STRATEGIES[name](v, b, z))
            oracle = game_tree_oracle(v, b, STRATEGIES[name](v, b, z)) if v.m <= 5 else None
            digest.update(json.dumps([name, list(wins), t.to_json_dict(), feasible, oracle]).encode())
        n = rng.randint(2, 3)
        inst = rand_instance(rng, n, v.m, vmax=(3, 10, 1000)[k % 3])
        for tie_break in ("lowest", ("avoid", 0)):
            picks = [names[(k + i) % len(names)] for i in range(n)]
            strategies = [STRATEGIES[name](inst.valuations[i], inst.entitlements[i], z) for i, name in enumerate(picks)]
            digest.update(json.dumps([picks, run_game(inst, strategies, tie_break).to_json_dict()]).encode())
    assert digest.hexdigest() == "04292a508afe49c015438aa0e16442cbd97ff62c3e6c6ebd62c7430643a4bc54"


def test_engine_bid_checks_keep_their_outcomes():
    # An exact Rat just over the budget is a fault, however small the excess;
    # int bids in range are accepted as Rat, and bool bids are faults; a bid
    # of a Rat subclass comes back as a plain Rat.
    class Fixed(Strategy):
        def __init__(self, raw):
            self.raw = raw

        def bid(self, view):
            return self.raw(view) if callable(self.raw) else self.raw

        def select(self, view):
            return (view.remaining[0],)

    class SubRat(Rat):
        pass

    inst = make_instance([[2, 1], [2, 1]], [Rat(1, 2), Rat(1, 2)])
    cases = [
        (lambda view: view.budget + Rat(1, 10**9), True),
        (lambda view: view.budget, False),
        (0, False),
        (1, True),
        (True, True),
        (False, True),
        (SubRat(1, 4), False),
    ]
    for raw, fault in cases:
        t = run_game(inst, [Fixed(raw), STRATEGIES["zero"](inst.valuations[1], Rat(1, 2), None)])
        assert ("round 1: agent 0 bid fault" in t.flags) == fault, raw
        first = t.rounds[0].bids[0]
        assert type(first) is Rat
        assert first == (0 if fault else (Rat(1, 2) if callable(raw) else raw))
    t = run_game(make_instance([[2]], [Rat(1)]), [Fixed(1)])
    assert not t.flags
    assert t.rounds[0].bids == (Rat(1),) and type(t.rounds[0].bids[0]) is Rat


def test_engine_selection_checks_keep_their_outcomes():
    # Agent 0 bids 1/4 of her 1/2 in round 1 and wins every round, the ties
    # at 0 included. A pick is kept, sorted, when it is a non-empty list or
    # tuple of distinct remaining items given as ints (an IntEnum is one, a
    # bool is not) whose price fits the budget; anything else is a fault,
    # and the round takes the winner's top item instead.
    class Index(enum.IntEnum):
        TWO = 2

    class Picker(Strategy):
        def __init__(self, picks):
            self.picks = picks

        def bid(self, view):
            return min(Rat(1, 4), view.budget)

        def select(self, view):
            return self.picks.get(view.round_no, (view.remaining[0],))

    inst = make_instance([[1, 5, 3, 2], [1, 1, 1, 1]], [Rat(1, 2), Rat(1, 2)])
    cases = [
        ({1: [2]}, 1, False, (2,)),
        ({1: (Index.TWO,)}, 1, False, (2,)),
        ({1: (True,)}, 1, True, (1,)),
        ({1: (2, 2)}, 1, True, (1,)),
        ({1: (2,), 2: (2,)}, 2, True, (1,)),
        ({1: (0, 2, 3)}, 1, True, (1,)),
        ({1: (3, 0)}, 1, False, (0, 3)),
        ({1: (2, 0)}, 1, False, (0, 2)),
        ({1: {2}}, 1, True, (1,)),
        ({1: (4,)}, 1, True, (1,)),
        ({1: (-1,)}, 1, True, (1,)),
    ]
    for picks, r, fault, taken in cases:
        t = run_game(inst, [Picker(picks), STRATEGIES["zero"](inst.valuations[1], Rat(1, 2), None)])
        assert (f"round {r}: agent 0 selection fault" in t.flags) == fault, picks
        assert t.rounds[r - 1].taken == taken, picks
        assert t.rounds[r - 1].payment == Rat(len(taken), 4), picks


def test_strategy_clone_is_independent():
    v = base_valuation()
    strat = STRATEGIES["tps"](v, Rat(2, 5), None)
    twin = strat.clone()
    inst = make_instance([list(v.item_values)], [Rat(1)])
    run_game(inst, [strat])
    assert strat.done
    assert not twin.done
    # At z = 6 no rescue pair reaches 18/5, so the first bid enters the
    # sub-game; the twin must get its own sub-game bidder. On the (1, 2)
    # line the sub-game bidder bids its whole budget in rounds 3 and 4, then
    # enters stage 2 and finishes in round 5.
    strat = STRATEGIES["aps35"](v, Rat(1, 2), 6)
    strat.bid(AgentView(1, tuple(range(v.m)), Rat(1, 2), Rat(1), ()))
    twin = strat.clone()
    before = dict(vars(twin.delegate))
    worst_case_adversary(v, Rat(1, 2), strat, (1, 2))
    assert (strat.delegate.prev_full_bid, strat.delegate.stage, strat.delegate.done) == (True, 2, True)
    assert vars(twin.delegate) == before


def test_slotted_strategy_clones_independently():
    # A strategy keeping its state in slots is cloned through copy.copy.
    class Slotted(Strategy):
        __slots__ = ("rounds",)

        def __init__(self):
            self.rounds = 0

        def bid(self, view):
            self.rounds += 1
            return min(Rat(1, 4 + self.rounds), view.budget)

        def select(self, view):
            return (view.remaining[0],)

    v = base_valuation()
    view = AgentView(1, tuple(range(v.m)), Rat(2, 5), Rat(1), ())
    strat = Slotted()
    strat.bid(view)
    twin = strat.clone()
    strat.bid(view)
    assert (strat.rounds, twin.rounds) == (2, 1)
    # The sweep clones it mid-game; every pattern still gets the transcript
    # of a fresh build playing it alone.
    for wins, t in sweep_transcripts(v, Rat(2, 5), Slotted()):
        assert t.to_json_dict() == worst_case_adversary(v, Rat(2, 5), Slotted(), wins).to_json_dict(), wins


def test_engine_money_is_exact_across_new_denominators():
    # Payments with coprime denominators grow the engine's common
    # denominator; every check and every view must still read the exact
    # budget that plain Rat arithmetic gives.
    class Scripted(Strategy):
        def __init__(self):
            self.views = []

        def bid(self, view):
            self.views.append(view)
            over = view.budget + Rat(1, 7 * view.budget.denominator)
            return {1: Rat(1, 3), 2: Rat(1, 25), 3: over, 4: view.budget}.get(view.round_no, Rat(0))

        def select(self, view):
            self.views.append(view)
            return tuple(view.remaining[: 2 if view.round_no in (2, 4) else 1])

    inst = make_instance([[1] * 6, [1] * 6], [Rat(1, 2), Rat(1, 2)])
    strat = Scripted()
    t = run_game(inst, [strat, STRATEGIES["zero"](inst.valuations[1], Rat(1, 2), None)])
    # Round 3 bids 1/1050 over a budget of 13/150; round 4 bids the whole
    # budget but asks for two items.
    assert t.flags == ("round 3: agent 0 bid fault", "round 4: agent 0 selection fault")
    assert [r.payment for r in t.rounds] == [Rat(1, 3), Rat(2, 25), 0, Rat(13, 150), 0]
    assert [r.taken for r in t.rounds] == [(0,), (1, 2), (3,), (4,), (5,)]
    for view in strat.views:
        # The engine's views are the constructor's, immutable and hashable.
        fields = (view.round_no, view.remaining, view.budget, view.total_budget, view.bundle, view.winning_bid)
        assert type(view) is AgentView and view == AgentView(*fields) and hash(view) == hash(AgentView(*fields))
        with pytest.raises(dataclasses.FrozenInstanceError):
            view.budget = Rat(1)
        before = t.rounds[: view.round_no - 1]
        assert type(view.budget) is Rat and type(view.total_budget) is Rat
        assert view.budget == Rat(1, 2) - sum(r.payment for r in before if r.winner == 0)
        assert view.total_budget == 1 - sum(r.payment for r in before)
    assert replay_transcript(inst, t) == t.allocation
    # Replay reads the same exact budgets: the round-3 bid is refused there.
    doc = t.to_json_dict()
    doc["rounds"][2]["bids"][0] = "131/1050"
    with pytest.raises(InputError, match=r"rounds\[2\]\.bids\[0\]: 131/1050 outside \[0, budget\]"):
        replay_transcript(inst, GameTranscript.from_json_dict(doc))


def test_adversary_validates_inputs():
    v = base_valuation()
    with pytest.raises(InputError):
        worst_case_adversary(v, Rat(2, 5), STRATEGIES["tps"](v, Rat(2, 5), None), (0,))
    with pytest.raises(InputError):
        worst_case_adversary(v, Rat(2, 5), STRATEGIES["tps"](v, Rat(2, 5), None), (True,))


def test_adversary_reads_wins_from_any_iterable():
    # The wins check must not consume an iterator before the rounds are
    # played: a generator concedes the same rounds as the tuple it yields.
    v = Valuation((5, 4, 3))
    b = Rat(1, 2)
    from_tuple = worst_case_adversary(v, b, STRATEGIES["maxval"](v, b, None), (1, 2))
    from_generator = worst_case_adversary(v, b, STRATEGIES["maxval"](v, b, None), (k for k in (1, 2)))
    assert from_generator.to_json_dict() == from_tuple.to_json_dict()
    assert from_tuple.allocation.bundles == ((0, 1), (2,))


def test_adversary_concedes_exactly_the_listed_rounds():
    # Library callers get set semantics: a round is conceded iff `wins` lists
    # it, whatever the order, repeats, rounds past m or count of rounds. Each
    # transcript must be the one of its sorted, distinct, in-range rounds and
    # follow the coalition's rule round by round; the digest pins them all.
    rng = random.Random(71)
    digest = hashlib.sha256()
    played = conceded = forced = 0
    for _ in range(25):
        v = rand_valuation(rng, m_max=6, vmax=8)
        m = v.m
        den = rng.randint(2, 6)
        b = Rat(rng.randint(1, den - 1), den)
        z = rng.randint(1, max(1, v.total))
        specs = [("zero", None), ("tps", None), ("rank", None), ("maxval", None)]
        specs += [("lemma34", z), ("aps35", z), ("aps35-alt", z)]
        patterns = [(3, 1), (1, 1), (m + 1,), (2, m + 3), (1, 2, 3), (4, 2, 1, 5), (2, 2, m, 1)]
        patterns += [tuple(rng.randint(1, m + 2) for _ in range(rng.randint(0, 4))) for _ in range(3)]
        for name, target in specs:
            for wins in patterns:
                t = worst_case_adversary(v, b, STRATEGIES[name](v, b, target), wins)
                canonical = tuple(sorted(k for k in set(wins) if k <= m))
                ref = worst_case_adversary(v, b, STRATEGIES[name](v, b, target), canonical)
                assert t.to_json_dict() == ref.to_json_dict(), (v, b, name, wins)
                remaining = list(range(m))
                for r, rec in enumerate(t.rounds, 1):
                    bid = rec.bids[0]
                    flag = f"infeasible: coalition cannot outbid {rat_to_str(bid)} at round {r}"
                    if bid > 0 and (r in wins or flag in t.flags):
                        assert (rec.winner, rec.bids[1]) == (0, 0), (v, b, name, wins, r)
                        conceded += 1
                        forced += r not in wins
                    else:
                        top = max(remaining, key=lambda j: (v.item_values[j], -j))
                        assert (rec.winner, rec.bids[1], rec.taken) == (1, bid, (top,)), (v, b, name, wins, r)
                    remaining = [j for j in remaining if j not in rec.taken]
                digest.update(json.dumps([list(wins), t.to_json_dict()], sort_keys=True).encode())
                played += 1
    assert (played, conceded, forced) == (1750, 1716, 488)
    assert digest.hexdigest() == "6d0762dfc9eb504cb175180756e936225b81bfc72284c7ca0e1f96ac7e16feb6"


def test_adversary_with_no_budget_cannot_outbid():
    v = Valuation((5, 4, 3, 2))
    # a positive bid in a non-conceded round is unanswerable at b = 1
    t = worst_case_adversary(v, Rat(1), STRATEGIES["rank"](v, Rat(1), None), ())
    assert t.infeasible
    t = worst_case_adversary(v, Rat(1), STRATEGIES["rank"](v, Rat(1), None), (2,))
    assert t.infeasible
    # conceding round 1 lets the agent spend her whole budget on the top item
    t = worst_case_adversary(v, Rat(1), STRATEGIES["rank"](v, Rat(1), None), (1,))
    assert not t.infeasible
    assert v.value(t.allocation.bundles[0]) == 5


def test_tps_strategy_single_item_full_entitlement():
    v = Valuation((7,))
    inst = make_instance([[7]], [Rat(1)])
    t = run_game(inst, [STRATEGIES["tps"](v, Rat(1), None)])
    assert t.allocation.bundles[0] == (0,)
    assert t.rounds[0].bids[0] == Rat(1)


def test_tps_strategy_guarantee_on_base_example():
    v = base_valuation()
    worst = adversary_sweep_min(v, Rat(2, 5), lambda: STRATEGIES["tps"](v, Rat(2, 5), None))
    assert worst is not None
    assert worst >= tps(v, Rat(2, 5)) / (2 - Rat(2, 5))
    assert worst >= 2


def test_rank_strategy_reaches_its_ranked_item():
    v = Valuation((9, 7, 5, 3, 1))
    worst = adversary_sweep_min(v, Rat(2, 5), lambda: STRATEGIES["rank"](v, Rat(2, 5), None))
    assert worst == 7
    v2 = Valuation((5, 4, 3, 2))
    worst = adversary_sweep_min(v2, Rat(1, 3), lambda: STRATEGIES["rank"](v2, Rat(1, 3), None))
    assert worst is not None
    assert worst >= 3


def test_rank_strategy_full_entitlement_takes_top_item():
    v = Valuation((5, 4, 3, 2))
    worst = adversary_sweep_min(v, Rat(1), lambda: STRATEGIES["rank"](v, Rat(1), None))
    assert worst == 5


def test_capped_bidder_secures_half_the_cap():
    v = base_valuation()
    cap = tps(v, Rat(2, 5))
    worst = adversary_sweep_min(v, Rat(2, 5), lambda: STRATEGIES["maxval-tps"](v, Rat(2, 5), None))
    assert worst is not None
    assert worst >= cap / 2


def test_two_stage_bidder_retires_after_reaching_target():
    v = Valuation((4, 4, 4))
    t = worst_case_adversary(v, Rat(1, 2), STRATEGIES["lemma34"](v, Rat(1, 2), 2), (1, 2))
    assert not t.infeasible
    # two capped wins reach the 3z/2 target, so the round-3 bid is 0
    assert v.value(t.allocation.bundles[0]) >= 3
    assert t.rounds[2].bids[0] == Rat(0)


def test_two_stage_bidder_guarantee():
    v = base_valuation()
    z = aps_exact(v, Rat(1, 5)).value
    worst = adversary_sweep_min(v, Rat(2, 5), lambda: STRATEGIES["lemma34"](v, Rat(2, 5), z))
    assert worst is not None
    assert worst >= Rat(3, 2) * z
    worst = adversary_sweep_min(v, Rat(1, 2), lambda: STRATEGIES["lemma34"](v, Rat(1, 2), 1))
    assert worst is not None
    assert worst >= Rat(3, 2)


def test_two_stage_bidder_picks_by_ranking_after_retiring():
    # Round 2 takes item 1 at bid 0 and reaches the 9/2 target, so the bidder
    # retires; it still wins the 0-0 ties and must take its top remaining
    # item, 3 (value 1), before item 0 (value 0).
    inst = make_instance([[0, 2, 3, 1], [1, 1, 1, 1]], [Rat(1, 2), Rat(1, 2)])
    strategies = [STRATEGIES["lemma34"](inst.valuations[0], Rat(1, 2), 3)]
    strategies.append(STRATEGIES["zero"](inst.valuations[1], inst.entitlements[1], None))
    t = run_game(inst, strategies)
    assert [r.taken for r in t.rounds] == [(2,), (1,), (3,), (0,)]
    assert all(r.winner == 0 for r in t.rounds)
    assert not t.flags


def test_retired_bidders_take_their_top_item_on_a_forced_win():
    # A rescue-pair win retires the TPS and three-step bidders. Forced to win
    # the later rounds at bid 0 (all bids 0, lowest index), each takes its
    # one top remaining item, not a second pair, and stays retired.
    inst = make_instance([[3, 3, 1, 2, 1, 1], [1] * 6], [Rat(1, 2), Rat(1, 2)])
    zero = STRATEGIES["zero"](inst.valuations[1], Rat(1, 2), None)
    for name, z in (("tps", None), ("aps35", 8)):
        strat = STRATEGIES[name](inst.valuations[0], Rat(1, 2), z)
        t = run_game(inst, [strat, zero])
        assert [r.taken for r in t.rounds] == [(0, 1), (3,), (2,), (4,), (5,)], name
        assert all(r.winner == 0 and r.bids == (0, 0) for r in t.rounds[1:]), name
        assert strat.done and not t.flags, name
    # Two capped wins reach the 3z/2 target at z = 2, so the two-stage bidder
    # finishes; forced to win, it takes its top remaining capped item, 3,
    # before item 4, whose plain value is higher but whose capped value ties.
    inst = make_instance([[1, 2, 2, 5, 9], [1] * 5], [Rat(1, 2), Rat(1, 2)])
    strat = STRATEGIES["lemma34"](inst.valuations[0], Rat(1, 2), 2)
    t = run_game(inst, [strat, zero])
    assert [r.taken for r in t.rounds] == [(1,), (2,), (3,), (4,), (0,)]
    assert all(r.winner == 0 and r.bids == (0, 0) for r in t.rounds[2:])
    assert strat.done and not t.flags


def test_two_stage_bidder_on_worthless_items():
    v = Valuation((0, 0))
    t = worst_case_adversary(v, Rat(1, 2), STRATEGIES["lemma34"](v, Rat(1, 2), 0), ())
    assert not t.infeasible
    assert v.value(t.allocation.bundles[0]) == 0


def test_three_step_strategy_on_base_example():
    v = base_valuation()
    worst = adversary_sweep_min(v, Rat(2, 5), lambda: STRATEGIES["aps35"](v, Rat(2, 5), 2))
    assert worst is not None
    assert worst >= Rat(6, 5)
    assert worst >= 2


def test_three_step_strategy_with_zero_target_stays_legal():
    v = base_valuation()
    worst = adversary_sweep_min(v, Rat(2, 5), lambda: STRATEGIES["aps35"](v, Rat(2, 5), 0))
    assert worst is not None
    assert worst >= 0


def test_three_step_strategy_on_pair_instance():
    v, _, _ = pair_sum_valuation()
    worst = adversary_sweep_min(v, Rat(1, 3), lambda: STRATEGIES["aps35"](v, Rat(1, 3), 97))
    assert worst is not None
    assert worst >= Rat(3, 5) * 97


def test_z_goodness_prefix():
    v = base_valuation()
    assert z_goodness(v, Rat(2, 5), 0)
    assert z_goodness(v, Rat(2, 5), 2)
    assert not z_goodness(v, Rat(2, 5), v.total + 1)


def test_z_test_cuts_agree_with_full_sweeps():
    # `test_z_good` stops each line once its outcome is decided; it must
    # agree with the transcripts of the full sweep on every target, at both
    # value scales. Every target is tried while v(M) <= 40, and targets
    # around the best z otherwise.
    rng = random.Random(67)
    seen = {"good": 0, "bad": 0}
    for k in range(150):
        v = rand_valuation(rng, m_max=7, vmax=(6, 1000)[k % 2])
        den = rng.randint(2, 7)
        b = Rat(rng.randint(1, den - 1), den)
        if v.total <= 40:
            targets = set(range(v.total + 2))
        else:
            best = best_good_z(v, b)
            targets = {1, best - 1, best, best + 1, rng.randint(0, v.total), v.total, v.total + 1}
        for z in sorted(targets):
            lines = sweep_transcripts(v, b, STRATEGIES["aps35"](v, b, z))
            full = all(5 * v.value(t.allocation.bundles[0]) >= 3 * z for _, t in lines)
            assert z_goodness(v, b, z) == full, (v, b, z)
            seen["good" if full else "bad"] += 1
    assert seen == {"good": 845, "bad": 669}


def test_best_z_values():
    v = base_valuation()
    assert best_good_z(v, Rat(2, 5)) >= 2
    assert best_good_z(Valuation((0, 0)), Rat(1, 2)) == 0
    assert best_good_z(Valuation((1, 1)), Rat(1, 2)) >= 1


def test_best_good_z_builds_one_duel_and_one_bidder(monkeypatch):
    # The binary search tries six targets here; each forks the one duel and
    # plays a retargeted copy of the one three-step bidder instead of
    # building both afresh. The copies are not clones, so the pinned clone
    # counts of the sweep tests stay as they are.
    # The duel ranks the agent's items on her first top item and never
    # ranks the coalition's, so the search sorts the items twice in all.
    counts = {"game": 0, "bidder": 0, "ranking": 0}

    def counting(name, real):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return real(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(_Game, "__init__", counting("game", _Game.__init__))
    monkeypatch.setattr(_Aps35Strategy, "__init__", counting("bidder", _Aps35Strategy.__init__))
    monkeypatch.setattr(Valuation, "ranked_items", counting("ranking", Valuation.ranked_items))
    v, b = Valuation((5, 4, 4, 3, 1, 1)), Rat(2, 5)
    z = best_good_z(v, b)
    assert counts == {"game": 1, "bidder": 1, "ranking": 2}
    assert z == max(x for x in range(v.total + 1) if z_goodness(v, b, x))


@pytest.mark.parametrize(
    "v, z, expected",
    [
        (base_valuation(), 3, {"settle": 16, "select": 8, "clone": 10}),
        (Valuation((5, 4, 4, 3, 1, 1)), 8, {"settle": 25, "select": 14, "clone": 15}),
    ],
)
def test_best_good_z_work_counts(monkeypatch, v, z, expected):
    # A z-test stops at its first short line, which is most often the line
    # of no concessions, the first one played. A branch forked on the way
    # settles its conceded round, and runs its clone's `select`, only when
    # it is played, so each branch a z-test never plays costs one fork and
    # one clone. Settling each branch at its fork gives 20 settles and 12
    # selects on the first row, 30 and 19 on the second. `_Game.select` is
    # where the engine runs a strategy's `select`.
    counts = {"settle": 0, "select": 0, "clone": 0}

    def counting(name, real):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return real(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(_Game, "settle", counting("settle", _Game.settle))
    monkeypatch.setattr(_Game, "select", counting("select", _Game.select))
    monkeypatch.setattr(Strategy, "clone", counting("clone", Strategy.clone))
    assert best_good_z(v, Rat(2, 5)) == z
    assert counts == expected


@pytest.mark.parametrize("target", [2.5, 0.4, True, False, "3"])
def test_targets_must_be_exact(target):
    # A target is an int or a Fraction, as an entitlement is; a float would
    # be read through its binary expansion and a bool as 0 or 1.
    v, b = base_valuation(), Rat(2, 5)
    builders = [lambda: z_goodness(v, b, target)]
    builders += [lambda name=name: STRATEGIES[name](v, b, target) for name in TARGETED]
    for build in builders:
        with pytest.raises(InputError) as exc:
            build()
        assert str(exc.value) == f"target: expected an int or a Fraction, got {target!r}"
    assert z_goodness(v, b, Rat(5, 2)) and z_goodness(v, b, 2)
    for name in TARGETED:
        for exact in (2, Rat(5, 2)):
            assert isinstance(STRATEGIES[name](v, b, exact), Strategy)


def _frontier_row(seed: int, n: int, m: int) -> Valuation:
    """Agent 0 of a frontier instance: values 0-1000 from random.Random(seed),
    drawn row by row for n agents and m items."""
    rng = random.Random(seed)
    rows = [[rng.randint(0, 1000) for _ in range(m)] for _ in range(n)]
    return Valuation(tuple(rows[0]))


def test_meta_worst_line_on_the_8x16_frontier():
    # Past the m <= 6 digests: the worst line `game --adversary worst` reports
    # for meta on 8x16 agent 0 at b = 1/4, where meta plays the three-step
    # bidder at z = 3183.
    v = _frontier_row(2, 8, 16)
    b = Rat(1, 4)
    wins, t, feasible = worst_case_line(v, b, STRATEGIES["meta"](v, b, None))
    assert (wins, v.value(t.allocation.bundles[0]), feasible) == ((2, 3), 1910, 16)
    digest = hashlib.sha256(json.dumps(t.to_json_dict(), sort_keys=True).encode()).hexdigest()
    assert digest == "972cbf79d660f7360cb3826896e231b9a5e17dddc2a8f4e4df94d421082644fc"


def test_three_step_line_on_the_4x20_frontier():
    # Four concessions on 4x20 agent 0 at b = 2/5 exhaust the coalition; the
    # forced concessions still leave the three-step bidder below 3z/5.
    v = _frontier_row(3, 4, 20)
    t = worst_case_adversary(v, Rat(2, 5), _Aps35Strategy(v, Rat(2, 5), 6163), (1, 2, 5, 6))
    assert v.value(t.allocation.bundles[0]) == 3348
    assert t.infeasible


def test_best_z_above_what_the_game_tree_holds():
    # ROADMAP item 5's known defect, pinned as today's behaviour: the sweep
    # of at most two concessions passes z = 12 with APS 8, but the full game
    # tree holds the three-step bidder at z = 12 to 7, below 3z/5 = 36/5.
    v = Valuation((3, 2, 2, 2, 1, 2))
    b = Rat(2, 3)
    assert best_good_z(v, b) == 12
    assert game_tree_oracle(v, b, STRATEGIES["aps35"](v, b, 12)) == 7


def test_meta_guarantees_prefers_tps_on_heavy_entitlement():
    v = unit_items(10)
    z, g = meta_guarantees(v, Rat(9, 10))
    assert g["tps"] == Rat(90, 11)
    assert g["rank"] == 1
    assert g["tps"] == max(g.values())
    assert isinstance(meta_strategy(v, Rat(9, 10)), _TpsStrategy)


def test_meta_guarantees_single_item_heavy_entitlement():
    v = Valuation((7,))
    z, g = meta_guarantees(v, Rat(3, 5))
    assert g["tps"] == 0
    assert g["rank"] == 7
    assert isinstance(meta_strategy(v, Rat(3, 5)), _RankItemStrategy)
    worst = adversary_sweep_min(v, Rat(3, 5), lambda: meta_strategy(v, Rat(3, 5)))
    assert worst == 7


def test_meta_tie_break_order():
    v = Valuation((5, 4, 3, 2))
    b = Rat(1, 3)
    z, g = meta_guarantees(v, b)
    assert g["tps"] == Rat(27, 10)
    assert g["rank"] == 3
    assert z >= aps_exact(v, b).value
    chosen = meta_strategy(v, b)
    best = max(g.values())
    if g["aps35"] == best:
        assert isinstance(chosen, _Aps35Strategy)
    elif g["tps"] == best:
        assert isinstance(chosen, _TpsStrategy)
    else:
        assert isinstance(chosen, _RankItemStrategy)
    worst = adversary_sweep_min(v, b, lambda: meta_strategy(v, b))
    assert worst is not None
    assert worst >= best


def test_meta_strategy_meets_guarantee_on_randoms():
    rng = random.Random(61)
    for _ in range(12):
        v = rand_valuation(rng, m_max=6, vmax=8)
        den = rng.randint(2, 5)
        b = Rat(rng.randint(1, den), den)
        _, g = meta_guarantees(v, b)
        worst = adversary_sweep_min(v, b, lambda: meta_strategy(v, b))
        if worst is None:
            continue
        assert worst >= max(g.values())
