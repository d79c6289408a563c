"""Sequential bidding game: engine, strategies, and worst-case adversaries.

Each round every agent submits a bid at most her remaining budget; the
highest bidder wins, picks a non-empty set of remaining items, and pays her
bid per item taken. A strategy is a stateful object driven through
`bid`/`select` on read-only views; the engine never trusts it, substituting
a safe fallback and flagging the transcript on any illegal move.

One engine applies every round: `run_game` plays strategies through it,
`replay_transcript` re-applies the recorded rounds once each has passed its
checks, and the adversary plays a focal agent against the pooled coalition
as the second agent of the same game. It keeps money as integers over a
common denominator; strategies see `Rat` budgets. It keeps each round as a
plain tuple; rounds become `RoundRecord`s only when a transcript is asked
for, so the lines a sweep compares or discards build none. One driver, `_sweep`,
plays the adversary over a list of concession patterns as one prefix tree,
forking a line where its patterns disagree on a round. Through it
`worst_case_line` picks the worst line of any list of patterns, which the
CLI's `game --adversary` reports and `worst_case_adversary` plays for one
pattern, and `test_z_good` plays every pattern of `enumerate_win_patterns`,
ending each line once its outcome is decided.

The strategies here carry worst-case guarantees against arbitrary opponent
coalitions, expressed against the bidder's own share values. `meta_strategy`
picks the best of them per agent using only game simulations, never a share
solver. Every item choice, the engine's fallback included, follows one rule:
highest value first (plain or capped), ties to the lowest index. Each
strategy ranks its items once, when it builds the values it ranks, and then
takes the first remaining items of that ranking (`_first`).

`STRATEGIES` is the one way to build a strategy: the library and the CLI
name them with the same words, and `STRATEGIES[name](valuation, b, z)`
builds the strategy the CLI's `--strategies I=name[:z]` plays.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass
from typing import Iterator, Sequence

from .core import (
    Allocation,
    InputError,
    Instance,
    Rat,
    Valuation,
    _json_bundles,
    _json_each,
    _json_field,
    _json_int,
    _json_items,
    _json_rat,
    _json_rats,
    _json_strs,
    _ranking,
    check_entitlement,
    rat_to_str,
)
from .shares import _kth_largest, tps

# The zero bid; Fractions are immutable, so every zero bid can share it.
_ZERO = Rat(0)


@dataclass(frozen=True)
class AgentView:
    """What one agent observes when asked to act in a round."""

    round_no: int
    remaining: tuple[int, ...]
    budget: Rat
    total_budget: Rat
    bundle: tuple[int, ...]
    winning_bid: Rat | None = None


class Strategy:
    """Interface for bidding-game players.

    `bid` is called once per round; `select` only on the round's winner, with
    `winning_bid` filled in, so a call to `select` is how a strategy learns it
    won. Implementations are deterministic. `clone` is a shallow copy, so a
    strategy only rebinds its attributes, never mutating a held list, dict or
    object in place, and clones share what it built once; one that holds
    another strategy overrides `clone` to copy it too.
    A clone taken at any point, mid-game included, must continue exactly as
    the original would from there: the adversary sweep clones a strategy
    after its bid in a round and plays the clone on the branch where the
    coalition concedes that round. The clone's `select` for that round runs
    only when the branch is played, after the original has played on; by
    this contract it is the same play.

    A strategy that plays a sub-game is given the sub-game's universe, the
    items remaining when it starts; every item it later sees remaining lies
    in that universe.
    """

    def bid(self, view: AgentView) -> Rat:
        raise NotImplementedError

    def select(self, view: AgentView) -> tuple[int, ...]:
        raise NotImplementedError

    def clone(self) -> "Strategy":
        return _copy(self)


def _copy(obj):
    """A shallow copy: the instance `__dict__`, or `copy.copy` for slots."""
    if hasattr(obj, "__slots__"):
        return copy.copy(obj)
    twin = type(obj).__new__(type(obj))
    twin.__dict__.update(obj.__dict__)
    return twin


def _first(ranking: Sequence[int], remaining: Sequence[int], count: int = 1) -> tuple[int, ...]:
    """The first `count` items of `ranking` still in `remaining`."""
    found = []
    for j in ranking:
        if j in remaining:
            found.append(j)
            if len(found) == count:
                break
    return tuple(found)


def _target(z) -> Rat:
    """A strategy's target as a Rat. Plain ints are promoted; floats, bools
    and strings are refused, as `check_entitlement` refuses them."""
    if isinstance(z, bool) or not isinstance(z, (int, Rat)):
        raise InputError(f"target: expected an int or a Fraction, got {z!r}")
    return Rat(z)


@dataclass(frozen=True)
class RoundRecord:
    bids: tuple[Rat, ...]
    winner: int
    taken: tuple[int, ...]
    payment: Rat


@dataclass(frozen=True)
class GameTranscript:
    rounds: tuple[RoundRecord, ...]
    allocation: Allocation
    flags: tuple[str, ...]

    @property
    def infeasible(self) -> bool:
        return any(f.startswith("infeasible") for f in self.flags)

    def to_json_dict(self) -> dict:
        return {
            "rounds": [
                {
                    "bids": [rat_to_str(x) for x in r.bids],
                    "winner": r.winner,
                    "taken": list(r.taken),
                    "payment": rat_to_str(r.payment),
                }
                for r in self.rounds
            ],
            "allocation": [list(bundle) for bundle in self.allocation.bundles],
            "flags": list(self.flags),
        }

    @staticmethod
    def from_json_dict(doc: dict, at: str = "") -> "GameTranscript":
        """Parse `to_json_dict` output, read at field path `at`. Item indices
        and winners must be JSON integers, bids and payments rationals, flags
        strings; anything else raises InputError naming the field."""

        def read_round(r, where: str) -> RoundRecord:
            return RoundRecord(
                bids=_json_field(r, "bids", _json_rats, where),
                winner=_json_field(r, "winner", _json_int, where),
                taken=tuple(sorted(_json_field(r, "taken", _json_items, where))),
                payment=_json_field(r, "payment", _json_rat, where),
            )

        rounds = _json_field(doc, "rounds", _json_each(read_round), at)
        alloc = Allocation(_json_field(doc, "allocation", _json_bundles, at))
        return GameTranscript(rounds, alloc, _json_strs(doc.get("flags", []), f"{at}.flags" if at else "flags"))


def _pick_winner(bids: Sequence[Rat], avoid) -> int:
    """The lowest-indexed highest bidder other than agent `avoid`, or `avoid`
    when she alone bid highest."""
    best = max(bids)
    return next((i for i, x in enumerate(bids) if x == best and i != avoid), bids.index(best))


class _Game:
    """One play of the bidding game. `bid` and `select` get checked moves from
    strategies, flagging faults; `settle`, the only move that touches
    budgets, items or bundles, applies a round's outcome. `cash` holds each
    budget and, last, their total, as integers over `den`, which grows
    whenever a payment's denominator does not divide it; views show them as
    `Rat`s, each built once per payment that changes it. A round is kept as
    a plain (bids, winner, taken, payment) tuple and becomes a `RoundRecord`
    only when `transcript` is asked for, so a line that a z-test discards
    builds none."""

    def __init__(self, budgets: Sequence[Rat], valuations: Sequence[Valuation]) -> None:
        self.den = math.lcm(*(x.denominator for x in budgets))
        self.cash = [x.numerator * (self.den // x.denominator) for x in budgets]
        self.cash.append(sum(self.cash))
        self.shown: list[Rat | None] = list(budgets) + [None]
        self.valuations = valuations
        # Each agent's ranking, built on its first `top`: replay never reads
        # one, and the duel never reads the coalition's.
        self.rankings: list[list[int] | None] = [None] * len(valuations)
        self.remaining = tuple(range(valuations[0].m))
        self.bundles: list[tuple[int, ...]] = [() for _ in budgets]
        self.rounds: list[tuple[tuple[Rat, ...], int, tuple[int, ...], Rat]] = []
        self.flags: list[str] = []
        self.round_no = 1

    # The transcript's test, on the flags so far.
    infeasible = GameTranscript.infeasible

    def budget(self, i: int) -> Rat:
        """Agent i's budget as a Rat; i = -1 gives the pooled total."""
        shown = self.shown[i]
        if shown is None:
            shown = self.shown[i] = Rat(self.cash[i], self.den)
        return shown

    def fits(self, i: int, x: Rat, k: int = 1) -> bool:
        """0 <= k * x <= agent i's budget."""
        num = x.numerator
        return num >= 0 and num * k * self.den <= self.cash[i] * x.denominator

    def _view(self, i: int, winning_bid: Rat | None = None) -> AgentView:
        # The frozen constructor sets each field through object.__setattr__;
        # filling the new instance's dict gives the same view at half the cost.
        view = object.__new__(AgentView)
        view.__dict__.update(
            round_no=self.round_no,
            remaining=self.remaining,
            budget=self.budget(i),
            total_budget=self.budget(-1),
            bundle=self.bundles[i],
            winning_bid=winning_bid,
        )
        return view

    def top(self, i: int) -> tuple[int, ...]:
        """Agent i's highest-value remaining item."""
        ranking = self.rankings[i]
        if ranking is None:
            ranking = self.rankings[i] = self.valuations[i].ranked_items()
        return _first(ranking, self.remaining)

    def bid(self, i: int, strategy: Strategy) -> Rat:
        """Agent i's bid; an illegal one is flagged and becomes 0."""
        raw = strategy.bid(self._view(i))
        # A Rat bid is kept as it is; an int, or a Rat subclass, becomes a Rat.
        if type(raw) is not Rat and not isinstance(raw, bool) and isinstance(raw, (int, Rat)):
            raw = Rat(raw)
        if type(raw) is Rat and self.fits(i, raw):
            return raw
        self.flags.append(f"round {self.round_no}: agent {i} bid fault")
        return _ZERO

    def select(self, i: int, strategy: Strategy, bid: Rat) -> tuple[int, ...]:
        """The winner's items, sorted; an illegal selection is flagged and
        becomes her single highest-value item."""
        taken = strategy.select(self._view(i, bid))
        if self._legal(i, bid, taken):
            return tuple(sorted(taken))
        self.flags.append(f"round {self.round_no}: agent {i} selection fault")
        return self.top(i)

    def _legal(self, i: int, bid: Rat, taken) -> bool:
        """`taken` is a non-empty list or tuple of distinct remaining items,
        ints but not bools, that agent i can pay `bid` apiece for. The
        cheapest checks come first; the item checks precede the distinctness
        set, which an unhashable item would make raise."""
        if not (isinstance(taken, (tuple, list)) and taken and self.fits(i, bid, len(taken))):
            return False
        for j in taken:
            if isinstance(j, bool) or not isinstance(j, int) or j not in self.remaining:
                return False
        return len(taken) == 1 or len(set(taken)) == len(taken)

    def settle(self, bids: tuple[Rat, ...], winner: int, taken: tuple[int, ...]) -> None:
        """The winner pays her bid per item taken and the items leave play."""
        # Most rounds take one item, so this skips `bid * 1`.
        payment = bids[winner] if len(taken) == 1 else bids[winner] * len(taken)
        if payment:
            q = payment.denominator
            if self.den % q:
                grow = q // math.gcd(self.den, q)
                self.den *= grow
                self.cash = [c * grow for c in self.cash]
            units = payment.numerator * (self.den // q)
            self.cash[winner] -= units
            self.cash[-1] -= units
            self.shown[winner] = self.shown[-1] = None
        self.bundles[winner] += taken
        # Most rounds take one item, so no set of them is built.
        rest = self.remaining
        for j in taken:
            k = rest.index(j)
            rest = rest[:k] + rest[k + 1 :]
        self.remaining = rest
        self.rounds.append((bids, winner, taken, payment))
        self.round_no += 1

    def fork(self) -> "_Game":
        """An independent copy of the play so far. It shares the values, the
        list of rankings, whose entries are only ever filled in and serve
        every fork alike, and the tuples of items, which `settle` replaces
        rather than changes."""
        twin = _copy(self)
        twin.cash = self.cash[:]
        twin.shown = self.shown[:]
        twin.bundles = self.bundles[:]
        twin.rounds = self.rounds[:]
        twin.flags = self.flags[:]
        return twin

    def transcript(self) -> GameTranscript:
        allocation = Allocation(tuple(self.bundles))
        return GameTranscript(tuple(RoundRecord(*r) for r in self.rounds), allocation, tuple(self.flags))


def avoided_agent(tie_break, n: int) -> int | None:
    """i for ("avoid", i) with 0 <= i < n, None for "lowest"; else InputError."""
    avoid = tie_break[1] if isinstance(tie_break, tuple) and len(tie_break) == 2 and tie_break[0] == "avoid" else None
    if tie_break != "lowest" and avoid not in range(n):
        raise InputError(f"tie_break: expected 'lowest' or ('avoid', i) with 0 <= i < {n}, got {tie_break!r}")
    return avoid


def run_game(
    inst: Instance,
    strategies: Sequence[Strategy],
    tie_break="lowest",
) -> GameTranscript:
    """Play the bidding game to completion and return the full transcript.

    Budgets start at the entitlements (which sum to 1); every round consumes
    at least one item, so the game ends within m rounds. Strategy faults are
    flagged, never fatal: an illegal bid becomes 0 and an illegal selection
    becomes the winner's single highest-value item. Ties go to the lowest
    index; `tie_break=("avoid", i)` passes them over agent i when it can.
    """
    if len(strategies) != inst.n:
        raise InputError(f"strategies: expected {inst.n}, got {len(strategies)}")
    avoid = avoided_agent(tie_break, inst.n)
    game = _Game(inst.entitlements, inst.valuations)
    while game.remaining:
        bids = tuple(game.bid(i, s) for i, s in enumerate(strategies))
        winner = _pick_winner(bids, avoid)
        game.settle(bids, winner, game.select(winner, strategies[winner], bids[winner]))
    paid = sum((payment for _, _, _, payment in game.rounds), Rat(0))
    if sum((game.budget(i) for i in range(inst.n)), Rat(0)) + paid != 1:
        raise AssertionError("budget conservation violated")
    return game.transcript()


def replay_transcript(inst: Instance, transcript: GameTranscript, at: str = "transcript") -> Allocation:
    """Re-run a transcript, checking every round for mechanical legality.

    Raises InputError on the first violation: a bid above budget, a winner
    who was not a highest bidder, an illegal selection, or a payment that
    does not equal bid times items taken. A round's fault is named from the
    field path `at` the transcript was read at, as
    `GameTranscript.from_json_dict` names its type faults. Returns the
    verified allocation.
    """
    game = _Game(inst.entitlements, inst.valuations)
    for t, r in enumerate(transcript.rounds):
        where = f"{at}.rounds[{t}]" if at else f"rounds[{t}]"
        if len(r.bids) != inst.n:
            raise InputError(f"{where}: expected {inst.n} bids, got {len(r.bids)}")
        for i, bid in enumerate(r.bids):
            if not game.fits(i, bid):
                raise InputError(f"{where}.bids[{i}]: {rat_to_str(bid)} outside [0, budget]")
        if not (0 <= r.winner < inst.n):
            raise InputError(f"{where}.winner: agent {r.winner} out of range")
        if r.bids[r.winner] != max(r.bids):
            raise InputError(f"{where}.winner: agent {r.winner} did not submit a highest bid")
        if not r.taken:
            raise InputError(f"{where}.taken: empty selection")
        if len(set(r.taken)) != len(r.taken) or not set(r.taken) <= set(game.remaining):
            raise InputError(f"{where}.taken: not a set of remaining items")
        expect = r.bids[r.winner] * len(r.taken)
        if r.payment != expect:
            raise InputError(f"{where}.payment: {rat_to_str(r.payment)} != {rat_to_str(expect)}")
        if not game.fits(r.winner, expect):
            raise InputError(f"{where}.payment: exceeds winner budget")
        # A hand-built record may hold a list; the game keeps tuples.
        game.settle(r.bids, r.winner, tuple(r.taken))
    if game.remaining:
        raise InputError(f"transcript: items {list(game.remaining)} never allocated")
    final = game.transcript().allocation
    if final != transcript.allocation:
        raise InputError("transcript: allocation does not match the replayed rounds")
    return final


# ---------------------------------------------------------------------------
# Strategies.


class _ZeroStrategy(Strategy):
    """Always bids 0; on a forced win takes the single highest-value item.

    The other strategies build on its `ranking` and take its `select` as
    their fallback; the capped bidders rank by capped values instead."""

    def __init__(self, valuation: Valuation) -> None:
        self.ranking = valuation.ranked_items()

    def bid(self, view: AgentView) -> Rat:
        return _ZERO

    def select(self, view: AgentView) -> tuple[int, ...]:
        return _first(self.ranking, view.remaining)


class _BidMaxValue(_ZeroStrategy):
    """Bid the top remaining (capped) value over the fixed total, capped by
    budget; on a win take that top item.

    Guarantees, when no k items of capped value exceed b times the capped
    total, a final bundle worth at least k/(k+1) of that proportional slice;
    with the truncated proportional share as cap this yields at least half
    the TPS.

    `scale` re-expresses bids and budgets when the strategy plays inside a
    sub-game whose budgets sum to `scale` instead of 1; `universe` restricts
    the value mass to a sub-game's item set, which holds every item that
    remains in that sub-game.

    `capped` and `total` are integers in units of 1/denominator(cap), plain
    values when there is no cap; a bid is their ratio, so the unit cancels.
    """

    def __init__(self, valuation, cap=None, scale=Rat(1), universe=None) -> None:
        items = range(valuation.m) if universe is None else universe
        vals = valuation.item_values
        if cap is None:
            self.capped = {j: vals[j] for j in items}
        else:
            cap = Rat(cap)
            self.capped = {j: min(vals[j] * cap.denominator, cap.numerator) for j in items}
        self.ranking = _ranking(self.capped, items)
        self.total = sum(self.capped.values())
        self.scale = Rat(scale)

    def _slice(self, x, view: AgentView) -> Rat:
        """Value x over the capped total, rescaled, capped by budget; 0 when
        x <= 0. x is an int or a Rat in the units of `capped`."""
        if x <= 0:
            return _ZERO
        return min(Rat(x * self.scale.numerator, self.total * self.scale.denominator), view.budget)

    def bid(self, view: AgentView) -> Rat:
        # A zero top value also covers a zero total.
        return self._slice(self.capped[_first(self.ranking, view.remaining)[0]], view)


class _RankItemStrategy(_ZeroStrategy):
    """Bid the full entitlement every round; wins at latest once the floor(1/b)
    cheaper-or-equal bidders ahead are exhausted, so the top-ranked reachable
    item is secured."""

    def __init__(self, valuation: Valuation, b: Rat) -> None:
        super().__init__(valuation)
        self.b = Rat(b)

    def bid(self, view: AgentView) -> Rat:
        return min(self.b, view.budget)


class _RescueBidder(_ZeroStrategy):
    """Shared by the TPS and three-step bidders. Rule 1 bids for the top item
    alone, rule 2 for the top two, the rescue pair; `select` retires the
    bidder on a win under either rule. `bid` records its rule in `last_rule`,
    clearing it first, so a retired bidder forced to win takes one item.
    """

    def __init__(self, valuation: Valuation) -> None:
        super().__init__(valuation)
        self.vals = valuation.item_values
        self.done = False
        self.last_rule = 0

    def _top_two(self, remaining) -> tuple[int, int]:
        """The two highest remaining values, 0 standing in for a missing one."""
        top = [self.vals[j] for j in _first(self.ranking, remaining, 2)] + [0]
        return top[0], top[1]

    def select(self, view: AgentView) -> tuple[int, ...]:
        if self.last_rule in (1, 2):
            self.done = True
        if self.last_rule == 2 and view.winning_bid * 2 <= view.budget:
            return _first(self.ranking, view.remaining, 2)
        return super().select(view)


class _TpsStrategy(_RescueBidder):
    """Adaptive proportional bidding with a two-item rescue; guarantees a
    bundle worth at least TPS/(2-b) and retires after one satisfying win."""

    def bid(self, view: AgentView) -> Rat:
        self.last_rule = 0
        if self.done:
            return _ZERO
        s = sum(self.vals[j] for j in view.remaining)
        bt, total = view.budget, view.total_budget
        if s == 0 or total == 0:
            return _ZERO
        x, y = self._top_two(view.remaining)
        if x * total >= bt * s:
            self.last_rule = 1
            return bt
        if x * (2 * total - bt) < bt * s and (x + y) * total >= bt * s:
            self.last_rule = 2
            return bt / 2
        self.last_rule = 3
        # Below budget exactly because rule 1 failed: x/s * total < bt.
        return Rat(x) * total / s


class _Lemma34Strategy(_BidMaxValue):
    """Two-stage capped-value bidder targeting one and a half times z.

    Stage 1 is `_BidMaxValue` with cap z, except that it bids the whole
    budget when one more top item would reach the target. Stage 2 starts the
    first time a full-budget round is followed by a proportional one: values
    are re-truncated against the entry budget and bid over the original
    capped total. Retires as soon as the accumulated capped value reaches the
    target.

    Guarantees a bundle of value at least 3z/2 whenever no price vector
    summing to 1 prices every bundle of value z above b/2.

    The `capped` values are integers in units of 1/denominator(z), so z
    itself is numerator(z) units; the stage-2 table is rational, in the same
    units.
    """

    def __init__(self, valuation, b, z, scale=Rat(1), universe=None) -> None:
        if z is None:
            raise InputError("strategies: lemma34 needs an explicit target, e.g. 0=lemma34:5")
        z = _target(z)
        super().__init__(valuation, z, scale, universe)
        # Twice the 3z/2 target, so that the target tests stay in integers.
        self.twice_target = 3 * z.numerator
        self.b0 = Rat(b)
        self.stage = 1
        self.prev_full_bid = False
        # The values the current stage bids: capped, then re-truncated.
        self.table = self.capped
        self.done = False

    def bid(self, view: AgentView) -> Rat:
        if self.done:
            return _ZERO
        u = sum(self.capped.get(j, 0) for j in view.bundle)
        # z <= 0 exactly when twice_target <= 0.
        if self.twice_target <= 0 or self.total == 0 or 2 * u >= self.twice_target:
            self.done = True
            return _ZERO
        top = _first(self.ranking, view.remaining)[0]
        if self.stage == 1:
            if 2 * (self.capped[top] + u) >= self.twice_target:
                self.prev_full_bid = True
                return view.budget
            if self.prev_full_bid:
                self.stage = 2
                entry = view.budget / self.scale
                if entry <= 0:
                    self.done = True
                    return _ZERO
                ratio = (self.b0 - 2 * entry) / entry
                self.table = {
                    j: max(_ZERO, min(entry * self.total, ratio * self.capped[j])) for j in view.remaining
                }
                self.ranking = _ranking(self.table, view.remaining)
                top = self.ranking[0]
        return self._slice(self.table[top], view)


class _Aps35Strategy(_RescueBidder):
    """Three-step bidder targeting three fifths of z.

    Steps 1 and 2 are the rescue rules: they grab a single item, or a rescue
    pair, that already meets the target, retiring on success. The first
    round where no pair suffices the strategy restarts inside the residual
    sub-game: by default with the two-stage capped bidder at two fifths of
    z, or a plain proportional bidder when `eight_fifteenths` is set.

    Guarantees a bundle of value at least 3z/5 whenever z is at most the
    AnyPrice share at entitlement b (8z/15 under the simpler sub-game
    bidder).
    """

    def __init__(self, valuation: Valuation, b: Rat, z, eight_fifteenths: bool = False) -> None:
        super().__init__(valuation)
        self.valuation = valuation
        self._aim(z)
        self.half_b = Rat(b) / 2
        self.eight = eight_fifteenths
        self.delegate: Strategy | None = None

    def _aim(self, z) -> None:
        self.z = z = _target(z)
        # Values are integers, so a value reaches 3z/5 exactly when it reaches
        # its ceiling; that ceiling is <= 0 exactly when z <= 0.
        self.target = -(-3 * z.numerator // (5 * z.denominator))

    def aimed(self, z) -> "_Aps35Strategy":
        """This unplayed bidder's copy at target z, as a fresh build at z
        would be, sharing the ranking and values this one built."""
        twin = _copy(self)
        twin._aim(z)
        return twin

    def _start_subgame(self, view: AgentView) -> Rat:
        pool = view.total_budget
        if pool <= 0:
            self.done = True
            return _ZERO
        if self.eight:
            self.delegate = _BidMaxValue(self.valuation, scale=pool, universe=view.remaining)
        else:
            self.delegate = _Lemma34Strategy(
                self.valuation, view.budget / pool, Rat(2, 5) * self.z, scale=pool, universe=view.remaining
            )
        return self.delegate.bid(view)

    def bid(self, view: AgentView) -> Rat:
        if self.delegate is not None:
            return self.delegate.bid(view)
        self.last_rule = 0
        if self.done:
            return _ZERO
        if self.target <= 0:
            return self._start_subgame(view)
        x, y = self._top_two(view.remaining)
        if x >= self.target:
            self.last_rule = 1
            return view.budget
        if x + y >= self.target:
            self.last_rule = 2
            return min(self.half_b, view.budget)
        return self._start_subgame(view)

    def select(self, view: AgentView) -> tuple[int, ...]:
        if self.delegate is not None:
            return self.delegate.select(view)
        return super().select(view)

    def clone(self) -> Strategy:
        twin = super().clone()
        if self.delegate is not None:
            # The sub-game bidder holds no strategy, so a copy suffices.
            twin.delegate = _copy(self.delegate)
        return twin


# ---------------------------------------------------------------------------
# Worst-case adversary and the simulation-driven meta choice.


def enumerate_win_patterns(m: int) -> list[tuple[int, ...]]:
    """All concession patterns with at most two agent wins in m rounds."""
    pats: list[tuple[int, ...]] = [()]
    pats.extend((k,) for k in range(1, m + 1))
    pats.extend((k, l) for k in range(1, m + 1) for l in range(k + 1, m + 1))
    return pats


def _coalition_round(game: _Game, strategy: Strategy, bid: Rat, concede: bool) -> None:
    """Settle one round against the coalition, agent 1 of `game`, by the rule
    `worst_case_adversary` states."""
    if not concede and not game.fits(1, bid):
        game.flags.append(f"infeasible: coalition cannot outbid {rat_to_str(bid)} at round {game.round_no}")
        concede = True
    # A checked bid is never negative.
    if concede and bid:
        game.settle((bid, _ZERO), 0, game.select(0, strategy, bid))
    else:
        # reached with bid <= the coalition's budget, or with bid == 0 on a
        # conceded round, where the outbid is free
        game.settle((bid, bid), 1, game.top(0))


def _duel(valuation: Valuation, b: Rat) -> _Game:
    # The coalition is agent 1 of the duel instance (v, v) with entitlements
    # (b, 1-b). It is not a Strategy: to outbid it needs the agent's checked
    # bid, which no AgentView shows.
    b = check_entitlement(b)
    return _Game((b, 1 - b), (valuation, valuation))


def worst_case_adversary(
    valuation: Valuation, b: Rat, strategy: Strategy, wins: Sequence[int]
) -> GameTranscript:
    """Play one focal agent against a clairvoyant adversarial coalition.

    The coalition holds budget 1-b and concedes exactly the rounds listed in
    `wins` (1-based), bidding 0 there; in every other round it outbids the
    agent at her own bid and removes her top-value remaining item. Ties at 0
    also go to the coalition. When the coalition cannot afford an outbid it
    is forced to concede that round too: the transcript is flagged infeasible
    but still played to completion, so its final value is the real outcome of
    the exhausted-coalition line. This is `worst_case_line` over the single
    pattern `wins`.
    """
    return worst_case_line(valuation, b, strategy, [wins])[1]


def worst_case_line(
    valuation: Valuation, b: Rat, strategy: Strategy, patterns: Sequence[Sequence[int]] | None = None
) -> tuple[tuple[int, ...], GameTranscript, int]:
    """The worst adversary line over `patterns` (default: every pattern of
    `enumerate_win_patterns(valuation.m)`), each the conceded rounds of one
    `worst_case_adversary` line: the first pattern, in list order, whose line
    leaves the agent the least value, that line's transcript, and how many
    patterns end on a feasible line. `_sweep` plays the patterns as one
    prefix tree, so `strategy` plays the first line: pass an unplayed one.
    """
    patterns = [tuple(wins) for wins in (enumerate_win_patterns(valuation.m) if patterns is None else patterns)]
    if not patterns:
        raise InputError("patterns: expected at least one concession pattern")
    for wins in patterns:
        for k in wins:
            if isinstance(k, bool) or not isinstance(k, int) or k < 1:
                raise InputError(f"wins: expected 1-based round indices, got {wins!r}")
    # Each line is scored, and its feasibility counted, once for all its patterns.
    sweep = _sweep(_duel(valuation, b), strategy, patterns)
    lines = [(valuation.value(game.bundles[0]), pats, game) for pats, game in sweep]
    low = min(score for score, _, _ in lines)
    lowest = {wins: game for score, pats, game in lines if score == low for wins in pats}
    worst = next(wins for wins in patterns if wins in lowest)
    return worst, lowest[worst].transcript(), sum(len(pats) for _, pats, game in lines if not game.infeasible)


def _sweep(
    game: _Game, strategy: Strategy, patterns: Sequence[tuple[int, ...]], decided=None
) -> Iterator[tuple[list, _Game]]:
    """Play `patterns`, each a collection of conceded rounds, as one prefix
    tree from the duel `game`; yield each line as (its patterns, its game).

    A line is the play under one set of concessions; `game` and `strategy`
    play the first line, so pass a duel and a strategy no other line plays.
    The agent bids once per round of a line. Where some of the line's
    patterns concede a positively bid round and others do not, a copy of the
    game and a clone of the strategy play on as the branch of those that
    concede. The branch carries its conceded bid and settles that round,
    running the clone's `select`, only when it is played, so a reader that
    stops early pays one fork and one clone for each branch it never plays;
    by the clone contract the deferred round is the same play. A round bid
    at 0 never splits a line, since conceding it settles the same round as
    outbidding. A line also stops at a round where `decided(game)`.
    """
    lines = [(game, strategy, list(patterns), None)]
    while lines:
        game, strat, pats, conceded = lines.pop()
        if conceded is not None:
            _coalition_round(game, strat, conceded, True)
        while game.remaining and not (decided is not None and decided(game)):
            bid = game.bid(0, strat)
            r = game.round_no
            conceding = [p for p in pats if r in p] if bid else []
            every = len(conceding) == len(pats)
            if conceding and not every:
                lines.append((game.fork(), strat.clone(), conceding, bid))
                pats = [p for p in pats if r not in p]
            _coalition_round(game, strat, bid, every)
        yield pats, game


def _z_test(valuation: Valuation, b: Rat):
    """`test_z_good` for one agent as a function of z. The duel, the
    concession patterns and the three-step bidder are built once; each z
    forks the unplayed duel and plays a copy of the bidder aimed at z."""
    duel = _duel(valuation, b)
    patterns = enumerate_win_patterns(valuation.m)
    bidder = _Aps35Strategy(valuation, b, 0)
    value = valuation.value

    def good(z: int) -> bool:
        if z <= 0:
            return True
        # A value x falls short of 3z/5 when 5x < aim.
        aim = 3 * z

        def decided(game: _Game) -> bool:
            got = 5 * value(game.bundles[0])
            return got >= aim or got + 5 * value(game.remaining) < aim

        lines = _sweep(duel.fork(), bidder.aimed(z), patterns, decided)
        return not any(5 * value(game.bundles[0]) < aim for _, game in lines)

    return good


def test_z_good(valuation: Valuation, b: Rat, z: int | Rat) -> bool:
    """True when the three-step strategy at target z secures 3z/5 against
    every concession pattern, including the lines where the coalition goes
    broke and concedes the remaining rounds by force. A line stops once its
    bundle is worth 3z/5 or, with every remaining item added, still less;
    the bundle only grows and later forks share it, so both are final. The
    test stops at the first line that falls short, most often the line of no
    concessions, which is played first; the branches forked on the way are
    never settled, since a branch settles its conceded round, and its
    clone's `select` runs, only when it is played. z is an int or a Fraction.
    This is the one-z case of the test `best_good_z` builds once for its
    whole search."""
    return _target(z) <= 0 or _z_test(valuation, b)(z)


def best_good_z(valuation: Valuation, b: Rat) -> int:
    """Largest z surviving `test_z_good`, by binary search.

    Every z up to the AnyPrice share is good, so the result is at least the
    APS while never touching a share solver. The search builds one duel and
    one three-step bidder and plays every z from copies of them.
    """
    total = valuation.total
    good = _z_test(valuation, b)
    if good(total):
        return total
    lo, hi = 0, total
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if good(mid):
            lo = mid
        else:
            hi = mid
    return lo


def _guarantee_terms(valuation: Valuation, b: Rat, x) -> tuple[Rat, Rat, int]:
    """The bidding-game guarantee's three terms at target x: 3x/5, TPS/(2-b)
    and the floor(1/b)-th largest item value (0 if absent)."""
    rank = _kth_largest(valuation.item_values, math.floor(1 / Rat(b)))
    return Rat(3, 5) * x, tps(valuation, b) / (2 - Rat(b)), rank


def meta_guarantees(valuation: Valuation, b: Rat) -> tuple[int, dict[str, Rat]]:
    """Simulation-backed guarantee of each candidate strategy, plus the z the
    three-step strategy would target. The `aps35` entry, 3z/5 at
    `best_good_z`, is simulated against at most two concessions; a coalition
    conceding more rounds can hold the strategy below it when z > APS."""
    z = best_good_z(valuation, b)
    aps35, tps_floor, rank = _guarantee_terms(valuation, b, z)
    return z, {"aps35": aps35, "tps": tps_floor, "rank": Rat(rank)}


def meta_strategy(valuation: Valuation, b: Rat) -> Strategy:
    """Best-of-three chooser: three-step at the best simulated z, the TPS
    bidder, or the rank bidder, whichever guarantee is largest (ties in that
    order). Uses only game simulations to pick, no share computations."""
    z, g = meta_guarantees(valuation, b)
    return STRATEGIES[max(g, key=g.get)](valuation, b, z)


# Every strategy by name, as a function (valuation, b, z) -> Strategy. Only the
# `TARGETED` ones read z: an int or a Fraction, or None where they find their
# own. Each builds its class directly, and looks `meta_strategy` and
# `best_good_z` up when called, so a rebound one is used.
STRATEGIES = {
    "meta": lambda v, b, z: meta_strategy(v, b),
    "tps": lambda v, b, z: _TpsStrategy(v),
    "rank": lambda v, b, z: _RankItemStrategy(v, b),
    "zero": lambda v, b, z: _ZeroStrategy(v),
    "maxval": lambda v, b, z: _BidMaxValue(v),
    "maxval-tps": lambda v, b, z: _BidMaxValue(v, cap=tps(v, b)),
    "aps35": lambda v, b, z: _Aps35Strategy(v, b, best_good_z(v, b) if z is None else z),
    "aps35-alt": lambda v, b, z: _Aps35Strategy(v, b, best_good_z(v, b) if z is None else z, eight_fifteenths=True),
    "lemma34": _Lemma34Strategy,
}

# The strategies that read z; `--strategies` refuses a target for any other.
TARGETED = ("aps35", "aps35-alt", "lemma34")
