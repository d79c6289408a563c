"""Command-line interface.

Four subcommands: `shares` computes share values (with certificates for the
AnyPrice share), `allocate` produces and certifies an allocation, `verify`
re-checks an allocation or price equilibrium, and `game` runs bidding games,
worst-case adversary sweeps, and transcript replays.

stdout carries exactly one JSON document per run; diagnostics go to stderr.
Exit codes: 0 success, 1 a verified bound failed, 2 malformed input,
3 a size guard tripped, 4 method/instance mismatch.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .bidding import (
    STRATEGIES,
    GameTranscript,
    _sweep,
    avoided_agent,
    enumerate_win_patterns,
    meta_strategy,
    replay_transcript,
    run_game,
    worst_case_adversary,
)
from .core import (
    Allocation,
    GuardError,
    InputError,
    Instance,
    _int_from_str,
    _json_array_doc,
    _json_bundles,
    _json_doc,
    _json_rats,
    parse_instance,
    rat_to_str,
)
from .greedy_efx import greedy_efx_full
from .shares import (
    aps_exact,
    mms_exact,
    pessimistic_share_exact,
    proportional_share,
    tps,
    two_agent_aps_allocation,
    unit_demand_aps,
    wmms_exact,
)
from .verify import BOUND_SETS, _check_ce_inputs, check_allocation, check_ce


def _emit(doc: dict) -> None:
    print(json.dumps(doc, indent=2))


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise InputError(f"{path}: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: not UTF-8 text: {exc}") from None


def _load_instance(path: str) -> Instance:
    return parse_instance(_read(path))


def _parse_tie_break(text: str, n: int):
    if text == "lowest":
        return "lowest"
    if not text.startswith("avoid:"):
        raise InputError(f"tie-break: expected 'lowest' or 'avoid:I', got {text!r}")
    try:
        tie_break = ("avoid", _int_from_str(text.split(":", 1)[1]))
    except ValueError:
        raise InputError(f"tie-break: bad agent index in {text!r}") from None
    avoided_agent(tie_break, n)
    return tie_break


def _parse_strategy_specs(text: str | None, n: int) -> dict[int, tuple[str, int | None]]:
    specs: dict[int, tuple[str, int | None]] = {}
    if not text:
        return specs
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise InputError(f"strategies: expected I=name entries, got {part!r}")
        left, right = part.split("=", 1)
        try:
            agent = _int_from_str(left)
        except ValueError:
            raise InputError(f"strategies: bad agent index {left!r}") from None
        if not (0 <= agent < n):
            raise InputError(f"strategies: agent {agent} out of range")
        if agent in specs:
            raise InputError(f"strategies: agent {agent} given twice")
        z: int | None = None
        name = right
        if ":" in right:
            name, ztext = right.split(":", 1)
            try:
                z = _int_from_str(ztext)
            except ValueError:
                raise InputError(f"strategies: bad target {ztext!r} for agent {agent}") from None
        if name not in STRATEGIES:
            raise InputError(
                f"strategies: unknown strategy {name!r}, expected one of {', '.join(STRATEGIES)}"
            )
        specs[agent] = (name, z)
    return specs


# ---------------------------------------------------------------------------
# Subcommands.


def _aps_share(inst: Instance, i: int) -> dict:
    res = aps_exact(inst.valuations[i], inst.entitlements[i])
    return {
        "value": res.value,
        "certificate": res.certificate.to_json_dict(),
        "witness": res.witness.to_json_dict(),
    }


# Every notion `shares` accepts, as a builder (instance, agent) -> JSON value.
# The builders look the solvers up when called, so a rebound solver is used.
NOTIONS = {
    "proportional": lambda inst, i: rat_to_str(proportional_share(inst.valuations[i], inst.entitlements[i])),
    "tps": lambda inst, i: rat_to_str(tps(inst.valuations[i], inst.entitlements[i])),
    "aps": _aps_share,
    "pessimistic": lambda inst, i: pessimistic_share_exact(inst.valuations[i], inst.entitlements[i]),
    "mms": lambda inst, i: mms_exact(inst.valuations[i], inst.n),
    "wmms": lambda inst, i: rat_to_str(wmms_exact(inst.entitlements, i, inst.valuations[i])),
    "unit-demand": lambda inst, i: unit_demand_aps(inst.valuations[i].item_values, inst.entitlements[i]),
}


def _agent_shares(inst: Instance, i: int, notions: list[str]) -> dict:
    return {
        "agent": i,
        "name": inst.agent_names[i],
        "entitlement": rat_to_str(inst.entitlements[i]),
        "shares": {notion: NOTIONS[notion](inst, i) for notion in notions},
    }


def cmd_shares(args) -> int:
    inst = _load_instance(args.instance)
    notions = [s.strip() for s in args.notions.split(",") if s.strip()]
    if not notions:
        raise InputError("notions: empty list")
    for notion in notions:
        if notion not in NOTIONS:
            raise InputError(f"notions: unknown notion {notion!r}, expected one of {', '.join(NOTIONS)}")
    if args.agent is not None:
        if not (0 <= args.agent < inst.n):
            raise InputError(f"agent: index {args.agent} out of range")
        indices = [args.agent]
    else:
        indices = list(range(inst.n))
    _emit({"agents": [_agent_shares(inst, i, notions) for i in indices]})
    return 0


def cmd_allocate(args) -> int:
    inst = _load_instance(args.instance)
    tie_break = _parse_tie_break(args.tie_break, inst.n)
    doc: dict = {"method": args.method}
    if args.method == "bidding":
        strategies = [meta_strategy(inst.valuations[i], inst.entitlements[i]) for i in range(inst.n)]
        transcript = run_game(inst, strategies, tie_break)
        alloc = transcript.allocation
        report = check_allocation(inst, alloc, "arbitrary-entitlements")
        doc["transcript"] = transcript.to_json_dict()
    elif args.method == "greedy-efx":
        if not inst.equal_entitlements():
            print("error: greedy-efx requires equal entitlements", file=sys.stderr)
            return 4
        alloc = greedy_efx_full(inst)
        report = check_allocation(inst, alloc, "equal-entitlements-gefx")
    else:
        if inst.n != 2:
            print("error: two-agent allocation requires exactly 2 agents", file=sys.stderr)
            return 4
        # Each APS is solved once and shared by the split and its check.
        solved = [aps_exact(v, b) for v, b in zip(inst.valuations, inst.entitlements)]
        alloc = two_agent_aps_allocation(
            inst.valuations[0], inst.valuations[1], inst.entitlements[0], inst.entitlements[1], solved
        )
        report = check_allocation(inst, alloc, "two-agent-aps", solved)
    doc["allocation"] = [list(b) for b in alloc.bundles]
    doc["report"] = report.to_json_dict()
    _emit(doc)
    if not report.all_passed:
        print("error: allocation failed its guarantee bounds", file=sys.stderr)
        return 1
    return 0


def cmd_verify(args) -> int:
    inst = _load_instance(args.instance)
    alloc = Allocation(_json_array_doc(_read(args.allocation), "allocation", _json_bundles))
    doc: dict = {"allocation": [list(b) for b in alloc.bundles]}
    failed = False
    solved = None
    if args.ce is not None:
        prices = _json_array_doc(_read(args.ce), "prices", _json_rats)
        if args.bounds is not None:
            # Both checks read every agent's APS: solve each once, after the
            # input checks, so that malformed input is reported as such.
            _check_ce_inputs(inst, alloc, prices)
            solved = [aps_exact(v, b) for v, b in zip(inst.valuations, inst.entitlements)]
        ok = check_ce(inst, alloc, prices, solved)
        doc["ce"] = ok
        failed = failed or not ok
    if args.bounds is not None or args.ce is None:
        bounds = args.bounds or "arbitrary-entitlements"
        report = check_allocation(inst, alloc, bounds, solved)
        doc["bounds"] = report.to_json_dict()
        failed = failed or not report.all_passed
    _emit(doc)
    if failed:
        print("error: verification failed", file=sys.stderr)
        return 1
    return 0


def cmd_game(args) -> int:
    inst = _load_instance(args.instance)
    tie_break = _parse_tie_break(args.tie_break, inst.n)
    if args.replay is not None:
        transcript = GameTranscript.from_json_dict(_json_doc(_read(args.replay), "transcript"))
        alloc = replay_transcript(inst, transcript)
        _emit({"replay": "ok", "allocation": [list(b) for b in alloc.bundles]})
        return 0
    specs = _parse_strategy_specs(args.strategies, inst.n)
    if args.adversary is not None:
        focal = args.focal
        if not (0 <= focal < inst.n):
            raise InputError(f"focal: agent {focal} out of range")
        v = inst.valuations[focal]
        b = inst.entitlements[focal]
        name, z = specs.get(focal, ("meta", None))
        if args.adversary == "worst":
            # One build plays the whole sweep, so meta's or aps35's simulation
            # search runs once, and only the worst line's transcript is built.
            # `min` reads the lines in pattern order, so a tie reports the
            # first pattern reaching the minimum.
            patterns = enumerate_win_patterns(inst.m)
            lines = {wins: game for pats, game in _sweep(v, b, STRATEGIES[name](v, b, z), patterns) for wins in pats}
            worst = min(patterns, key=lambda wins: v.value(lines[wins].bundles[0]))
            t = lines[worst].transcript()
            doc = {
                "focal": focal,
                "strategy": name,
                "patterns_checked": len(patterns),
                "patterns_feasible": sum(not lines[wins].infeasible for wins in patterns),
                "min_value": v.value(t.allocation.bundles[0]),
                "pattern": list(worst),
                "transcript": t.to_json_dict(),
            }
            _write_transcript(args.transcript, t)
            _emit(doc)
            return 0
        wins = _parse_pattern(args.adversary, inst.m)
        t = worst_case_adversary(v, b, STRATEGIES[name](v, b, z), wins)
        doc = {
            "focal": focal,
            "strategy": name,
            "pattern": list(wins),
            "infeasible": t.infeasible,
            "value": v.value(t.allocation.bundles[0]),
            "transcript": t.to_json_dict(),
        }
        _write_transcript(args.transcript, t)
        _emit(doc)
        return 0
    strategies = []
    for i in range(inst.n):
        name, z = specs.get(i, ("meta", None))
        strategies.append(STRATEGIES[name](inst.valuations[i], inst.entitlements[i], z))
    transcript = run_game(inst, strategies, tie_break)
    _write_transcript(args.transcript, transcript)
    _emit(
        {
            "allocation": [list(b) for b in transcript.allocation.bundles],
            "transcript": transcript.to_json_dict(),
        }
    )
    return 0


def _parse_pattern(text: str, m: int) -> tuple[int, ...]:
    """The conceded rounds of 'pattern:K[,L]', one of `enumerate_win_patterns(m)`."""
    if not text.startswith("pattern:"):
        raise InputError(f"adversary: expected 'worst' or 'pattern:K[,L]', got {text!r}")
    body = text.split(":", 1)[1]
    try:
        wins = tuple(_int_from_str(x) for x in body.split(",")) if body else ()
    except ValueError:
        raise InputError(f"adversary: bad pattern {body!r}") from None
    if wins not in enumerate_win_patterns(m):
        raise InputError(f"adversary: expected at most two strictly increasing rounds within 1..{m}, got {body!r}")
    return wins


def _write_transcript(path: str | None, transcript: GameTranscript) -> None:
    """Write the transcript to `path`, if given; called before `_emit`, so a
    path that cannot be written leaves stdout empty."""
    if not path:
        return
    try:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(transcript.to_json_dict(), fh, indent=2)
    except OSError as exc:
        raise InputError(f"{path}: {exc.strerror or exc}") from None


# Built on the first `main` call; parsing leaves it unchanged, so it is reused.
@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fairshare",
        description="Exact fair division of indivisible goods under arbitrary entitlements.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("shares", help="compute share values for the agents of an instance")
    p.add_argument("instance")
    p.add_argument("--agent", type=_int_from_str, default=None, help="only this agent (default: all)")
    p.add_argument(
        "--notions",
        default="proportional,tps,aps,pessimistic",
        help=f"comma-separated subset of: {', '.join(NOTIONS)}",
    )
    p.set_defaults(func=cmd_shares)

    p = sub.add_parser("allocate", help="compute and certify an allocation")
    p.add_argument("instance")
    p.add_argument("--method", choices=("bidding", "greedy-efx", "two-agent"), required=True)
    p.add_argument("--tie-break", default="lowest", help="'lowest' or 'avoid:I'")
    p.set_defaults(func=cmd_allocate)

    p = sub.add_parser("verify", help="re-check an allocation against bounds or a price equilibrium")
    p.add_argument("instance")
    p.add_argument("allocation")
    p.add_argument("--ce", default=None, metavar="PRICES", help="price file for an equilibrium check")
    p.add_argument("--bounds", default=None, choices=BOUND_SETS)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("game", help="run bidding games, adversary sweeps, or replays")
    p.add_argument("instance")
    p.add_argument("--strategies", default=None, help="e.g. '0=aps35,1=tps,2=aps35:7'")
    p.add_argument("--focal", type=_int_from_str, default=0, help="agent under test in adversary mode")
    p.add_argument("--adversary", default=None, help="'worst' or 'pattern:K[,L]'")
    p.add_argument("--tie-break", default="lowest", help="'lowest' or 'avoid:I'")
    p.add_argument("--transcript", default=None, metavar="OUT", help="write the transcript JSON here")
    p.add_argument("--replay", default=None, metavar="FILE", help="validate a transcript against the instance")
    p.set_defaults(func=cmd_game)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except GuardError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
