"""Command-line interface.

Four subcommands: `shares` computes share values (with certificates for the
AnyPrice share), `allocate` produces and certifies an allocation, `verify`
re-checks an allocation or price equilibrium, and `game` runs bidding games,
worst-case adversary sweeps, and transcript replays.

Each subcommand maps the loaded instance and its arguments to one JSON
document and a failure message or None. `main` alone loads the instance,
writes stdout and stderr and picks the exit code: stdout carries exactly one
JSON document per run, and diagnostics go to stderr. Exit codes: 0 success,
1 a verified bound failed, 2 malformed input, 3 a size guard tripped,
4 method/instance mismatch.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

from .bidding import (
    STRATEGIES,
    TARGETED,
    GameTranscript,
    avoided_agent,
    enumerate_win_patterns,
    replay_transcript,
    run_game,
    worst_case_line,
)
from .core import (
    Allocation,
    GuardError,
    InputError,
    Instance,
    _check_fits,
    _int_from_str,
    _json_bundles,
    _json_doc,
    _json_list,
    _json_rats,
    _json_text,
    _json_unwrap,
    parse_instance,
    rat_to_str,
)
from .greedy_efx import greedy_efx_full
from .shares import (
    ApsResult,
    aps_exact,
    checked_aps,
    mms_exact,
    pessimistic_share_exact,
    proportional_share,
    tps,
    two_agent_aps_allocation,
    unit_demand_aps,
    wmms_exact,
)
from .verify import BOUND_SETS, _check_ce_inputs, check_allocation, check_ce


class _Mismatch(Exception):
    """The method does not apply to the instance (exit 4)."""


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise InputError(f"{path}: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: not UTF-8 text: {exc}") from None


def _int_arg(text: str, message: str) -> int:
    """`text` as an integer, or InputError(message)."""
    try:
        return _int_from_str(text)
    except ValueError:
        raise InputError(message) from None


def _parse_tie_break(text: str, n: int):
    if text == "lowest":
        return "lowest"
    if not text.startswith("avoid:"):
        raise InputError(f"tie-break: expected 'lowest' or 'avoid:I', got {text!r}")
    tie_break = ("avoid", _int_arg(text.split(":", 1)[1], f"tie-break: bad agent index in {text!r}"))
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
        agent = _int_arg(left, f"strategies: bad agent index {left!r}")
        if not (0 <= agent < n):
            raise InputError(f"strategies: agent {agent} out of range")
        if agent in specs:
            raise InputError(f"strategies: agent {agent} given twice")
        z: int | None = None
        name = right
        if ":" in right:
            name, ztext = right.split(":", 1)
            z = _int_arg(ztext, f"strategies: bad target {ztext!r} for agent {agent}")
        if name not in STRATEGIES:
            raise InputError(
                f"strategies: unknown strategy {name!r}, expected one of {', '.join(STRATEGIES)}"
            )
        if z is not None and name not in TARGETED:
            raise InputError(f"strategies: {name} takes no target, got {right!r} for agent {agent}")
        specs[agent] = (name, z)
    return specs


# ---------------------------------------------------------------------------
# Subcommands.


# Every notion `shares` accepts, as a builder (valuation, entitlement,
# instance, agent, APS result or None) -> JSON value. The builders look the
# solvers up when called, so a rebound solver is used.
NOTIONS = {
    "proportional": lambda v, b, inst, i, aps: rat_to_str(proportional_share(v, b)),
    "tps": lambda v, b, inst, i, aps: rat_to_str(tps(v, b)),
    "aps": lambda v, b, inst, i, aps: aps.to_json_dict(),
    "pessimistic": lambda v, b, inst, i, aps: pessimistic_share_exact(v, b, aps.value if aps else None),
    "mms": lambda v, b, inst, i, aps: mms_exact(v, inst.n, aps.value if aps and b * inst.n == 1 else None),
    "wmms": lambda v, b, inst, i, aps: rat_to_str(wmms_exact(inst.entitlements, i, v)),
    "unit-demand": lambda v, b, inst, i, aps: unit_demand_aps(v.item_values, b),
}


def _agent_shares(inst: Instance, i: int, notions: list[str]) -> dict:
    """Agent i's shares. When `aps` is among the notions, the one APS solve
    also caps the pessimistic search and, at b_i = 1/n, the MMS search,
    which the paper's chain bounds by it."""
    v, b = inst.valuations[i], inst.entitlements[i]
    aps = aps_exact(v, b) if "aps" in notions else None
    return {
        "agent": i,
        "name": inst.agent_names[i],
        "entitlement": rat_to_str(b),
        "shares": {notion: NOTIONS[notion](v, b, inst, i, aps) for notion in notions},
    }


def cmd_shares(inst: Instance, args) -> tuple[dict, str | None]:
    notions = [s.strip() for s in args.notions.split(",") if s.strip()]
    if not notions:
        raise InputError("notions: empty list")
    for k, notion in enumerate(notions):
        if notion not in NOTIONS:
            raise InputError(f"notions: unknown notion {notion!r}, expected one of {', '.join(NOTIONS)}")
        if notion in notions[:k]:
            raise InputError(f"notions: {notion!r} given twice")
    if args.agent is not None:
        if not (0 <= args.agent < inst.n):
            raise InputError(f"agent: index {args.agent} out of range")
        indices = [args.agent]
    else:
        indices = list(range(inst.n))
    return {"agents": [_agent_shares(inst, i, notions) for i in indices]}, None


def _solve_aps(inst: Instance) -> list[ApsResult]:
    return [aps_exact(v, b) for v, b in zip(inst.valuations, inst.entitlements)]


def _checked_aps_list(inst: Instance, value, path: str) -> list[ApsResult]:
    """One `checked_aps` entry per agent, in agent order, from the array `value`."""
    entries = _json_list(value, path)
    if len(entries) != inst.n:
        raise InputError(f"{path}: expected {inst.n} entries, one per agent, got {len(entries)}")
    return [
        checked_aps(entry, v, b, f"{path}[{i}]")
        for i, (entry, v, b) in enumerate(zip(entries, inst.valuations, inst.entitlements))
    ]


def cmd_allocate(inst: Instance, args) -> tuple[dict, str | None]:
    """Build the allocation and its report. Each APS is solved once, after
    the method's checks of the instance, and serves the split, the report and
    the `aps` key: every agent's share with its certificate and witness, which
    `verify` checks instead of solving again."""
    tie_break = _parse_tie_break(args.tie_break, inst.n)
    if args.method == "greedy-efx" and not inst.equal_entitlements():
        raise _Mismatch("greedy-efx requires equal entitlements")
    if args.method == "two-agent" and inst.n != 2:
        raise _Mismatch("two-agent allocation requires exactly 2 agents")
    solved = _solve_aps(inst)
    doc: dict = {"method": args.method}
    if args.method == "bidding":
        transcript = _play(inst, {}, tie_break)
        alloc, bounds = transcript.allocation, "arbitrary-entitlements"
        doc["transcript"] = transcript.to_json_dict()
    elif args.method == "greedy-efx":
        alloc, bounds = greedy_efx_full(inst), "equal-entitlements-gefx"
    else:
        alloc = two_agent_aps_allocation(
            inst.valuations[0], inst.valuations[1], inst.entitlements[0], inst.entitlements[1], solved
        )
        bounds = "two-agent-aps"
    report = check_allocation(inst, alloc, bounds, solved)
    doc["allocation"] = [list(b) for b in alloc.bundles]
    doc["report"] = report.to_json_dict()
    doc["aps"] = [res.to_json_dict() for res in solved]
    return doc, None if report.all_passed else "allocation failed its guarantee bounds"


def cmd_verify(inst: Instance, args) -> tuple[dict, str | None]:
    """Re-check an allocation against a bound set, a price equilibrium, or both.

    The allocation file is a bare array of bundles or an object holding them
    under `allocation`. When the object also holds `aps`, as `allocate`
    writes it, each agent's entry is checked by `checked_aps` and no APS is
    solved; a certificate that does not check is an InputError. Otherwise
    each APS the checks read is solved. The document is the same either way.
    """
    doc = _json_doc(_read(args.allocation), "allocation")
    alloc = Allocation(_json_unwrap(doc, "allocation", _json_bundles))
    out: dict = {"allocation": [list(b) for b in alloc.bundles]}
    failed = False
    prices = None
    if args.ce is not None:
        prices = _json_unwrap(_json_doc(_read(args.ce), "prices"), "prices", _json_rats)
    solved = None
    certified = isinstance(doc, dict) and "aps" in doc
    if certified or (prices is not None and args.bounds is not None):
        # The checks of the input come first, so that malformed input is
        # reported as such; then every check reads one result per agent.
        if prices is not None:
            _check_ce_inputs(inst, alloc, prices)
        else:
            _check_fits(inst, alloc)
        solved = _checked_aps_list(inst, doc["aps"], "aps") if certified else _solve_aps(inst)
    if prices is not None:
        ok = check_ce(inst, alloc, prices, solved)
        out["ce"] = ok
        failed = failed or not ok
    if args.bounds is not None or args.ce is None:
        bounds = args.bounds or "arbitrary-entitlements"
        report = check_allocation(inst, alloc, bounds, solved)
        out["bounds"] = report.to_json_dict()
        failed = failed or not report.all_passed
    return out, "verification failed" if failed else None


def cmd_game(inst: Instance, args) -> tuple[dict, str | None]:
    """Play a game, sweep the focal agent over concession patterns
    (`--adversary`), or check every round of a transcript on the instance
    (`--replay`): a bare one, or the one a document holds under `transcript`,
    as every played mode and `allocate --method bidding` write it."""
    if args.replay is not None:
        # A replay plays nothing, so the options of the other modes are refused.
        for option in ("adversary", "focal", "strategies", "tie_break"):
            if getattr(args, option) is not None:
                raise InputError(f"--{option.replace('_', '-')}: not used with --replay")
        doc = _json_doc(_read(args.replay), "transcript")
        # The rounds are checked at the field path they were read at.
        def replay(value, at: str) -> Allocation:
            return replay_transcript(inst, GameTranscript.from_json_dict(value, at), at)

        alloc = _json_unwrap(doc, "transcript", replay, bare="")
        return {"replay": "ok", "allocation": [list(b) for b in alloc.bundles]}, None
    tie_break = _parse_tie_break("lowest" if args.tie_break is None else args.tie_break, inst.n)
    specs = _parse_strategy_specs(args.strategies, inst.n)
    if args.adversary is not None:
        focal = 0 if args.focal is None else args.focal
        if not (0 <= focal < inst.n):
            raise InputError(f"focal: agent {focal} out of range")
        v = inst.valuations[focal]
        b = inst.entitlements[focal]
        name, z = specs.pop(focal, ("meta", None))
        if specs:
            raise InputError(f"--strategies: agent {next(iter(specs))} is not the focal agent")
        every = args.adversary == "worst"
        patterns = enumerate_win_patterns(inst.m) if every else [_parse_pattern(args.adversary, inst.m)]
        # One build plays every pattern, so meta's or aps35's simulation
        # search runs once.
        worst, t, feasible = worst_case_line(v, b, STRATEGIES[name](v, b, z), patterns)
        value = v.value(t.allocation.bundles[0])
        doc = {"focal": focal, "strategy": name}
        if every:
            doc.update(patterns_checked=len(patterns), patterns_feasible=feasible, min_value=value, pattern=list(worst))
        else:
            doc.update(pattern=list(worst), infeasible=t.infeasible, value=value)
    else:
        if args.focal is not None:
            raise InputError("--focal: not used without --adversary")
        t = _play(inst, specs, tie_break)
        doc = {"allocation": [list(b) for b in t.allocation.bundles]}
    doc["transcript"] = t.to_json_dict()
    return doc, None


def _play(inst: Instance, specs: dict[int, tuple[str, int | None]], tie_break) -> GameTranscript:
    """One game, agent i playing `STRATEGIES[name](v_i, b_i, z)` for
    `name, z = specs.get(i, ("meta", None))`: unlisted agents play `meta`."""
    builds = (specs.get(i, ("meta", None)) for i in range(inst.n))
    strategies = [STRATEGIES[name](v, b, z) for (name, z), v, b in zip(builds, inst.valuations, inst.entitlements)]
    return run_game(inst, strategies, tie_break)


def _parse_pattern(text: str, m: int) -> tuple[int, ...]:
    """The conceded rounds of 'pattern:K[,L]', one of `enumerate_win_patterns(m)`."""
    if not text.startswith("pattern:"):
        raise InputError(f"adversary: expected 'worst' or 'pattern:K[,L]', got {text!r}")
    body = text.split(":", 1)[1]
    wins = tuple(_int_arg(x, f"adversary: bad pattern {body!r}") for x in body.split(",")) if body else ()
    if wins not in enumerate_win_patterns(m):
        raise InputError(f"adversary: expected at most two strictly increasing rounds within 1..{m}, got {body!r}")
    return wins


def _agent_index(text: str) -> int:
    return _int_from_str(text)


# argparse names a bad value by its type's name: "invalid agent index value".
_agent_index.__name__ = "agent index"


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
    p.add_argument("--agent", type=_agent_index, default=None, help="only this agent (default: all)")
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
    p.add_argument("--focal", type=_agent_index, default=None, help="agent under test in adversary mode (default: 0)")
    p.add_argument("--adversary", default=None, help="'worst' or 'pattern:K[,L]'")
    p.add_argument("--tie-break", default=None, help="'lowest' (default) or 'avoid:I'")
    p.add_argument("--replay", default=None, metavar="FILE", help="check a bare transcript or a game/allocate document")
    p.set_defaults(func=cmd_game)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        doc, failure = args.func(parse_instance(_read(args.instance)), args)
    except (InputError, GuardError, _Mismatch) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, InputError) else 3 if isinstance(exc, GuardError) else 4
    try:
        sys.stdout.write(_json_text(doc) + "\n")
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader has gone. Point stdout at the null device, so that the
        # flush at interpreter exit finds nothing left to fail on.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    if failure is None:
        return 0
    print(f"error: {failure}", file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main())
