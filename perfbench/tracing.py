"""In-memory span recorder that wraps the public functions of `fairshare`.

The benchmark never edits the package. It rebinds each traced function, in
every module namespace that holds it, to a wrapper that records a span
(layer, start, end, parent span, request id) around the call. Internal calls
look names up in their module's globals, so rebinding there traces them too.
`uninstall` puts every original binding back.
"""

from __future__ import annotations

import itertools
import json
import sys
import time
from typing import Callable

from metrics import Span

# Layer name -> (defining module, function name). Layers are named after the
# module that defines the function, so `shares.aps_exact` is one layer
# whether cli, verify or shares itself calls it.
LAYERS = {
    "cli.main": ("fairshare.cli", "main"),
    "core.parse_instance": ("fairshare.core", "parse_instance"),
    "lp.simplex_max": ("fairshare.lp", "simplex_max"),
    "shares.aps_exact": ("fairshare.shares", "aps_exact"),
    "shares.pessimistic_share_exact": ("fairshare.shares", "pessimistic_share_exact"),
    "shares.mms_exact": ("fairshare.shares", "mms_exact"),
    "shares.wmms_exact": ("fairshare.shares", "wmms_exact"),
    "shares.two_agent_aps_allocation": ("fairshare.shares", "two_agent_aps_allocation"),
    "bidding.meta_strategy": ("fairshare.bidding", "meta_strategy"),
    "bidding.best_good_z": ("fairshare.bidding", "best_good_z"),
    "bidding.worst_case_adversary": ("fairshare.bidding", "worst_case_adversary"),
    "bidding.run_game": ("fairshare.bidding", "run_game"),
    "greedy_efx.greedy_efx": ("fairshare.greedy_efx", "greedy_efx"),
    "verify.check_allocation": ("fairshare.verify", "check_allocation"),
}


def _simplex_extra(args, kwargs, result):
    return (("cols", len(args[0] if args else kwargs["c"])),)


def _game_extra(args, kwargs, result):
    return (("rounds", len(result.rounds)),)


def _greedy_extra(args, kwargs, result):
    _, steps = result
    return (("rotations", sum(len(step["rotations"]) for step in steps)),)


# Per-call counts read from a layer's arguments or result.
EXTRAS: dict[str, Callable] = {
    "lp.simplex_max": _simplex_extra,
    "bidding.run_game": _game_extra,
    "greedy_efx.greedy_efx": _greedy_extra,
}


class Tracer:
    """Records spans while installed; one request at a time, one thread."""

    def __init__(self, guard_error: type) -> None:
        self.guard_error = guard_error
        self.spans: list[Span] = []
        self.request = -1
        self._stack: list[int] = []
        self._ids = itertools.count()
        self._saved: list[tuple[object, str, object]] = []

    def wrap(self, layer: str, fn: Callable) -> Callable:
        extra_of = EXTRAS.get(layer)
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter
        ids = self._ids

        def traced(*args, **kwargs):
            sid = next(ids)
            parent = stack[-1] if stack else None
            stack.append(sid)
            status = "error"
            extra = ()
            start = clock()
            try:
                result = fn(*args, **kwargs)
                status = "ok"
                if extra_of is not None:
                    extra = extra_of(args, kwargs, result)
                return result
            except self.guard_error:
                status = "guard"
                raise
            finally:
                end = clock()
                stack.pop()
                spans.append(Span(sid, layer, start, end, parent, self.request, status, extra))

        return traced

    def install(self) -> None:
        """Rebind every traced function wherever a fairshare module holds it."""
        modules = [m for name, m in sorted(sys.modules.items()) if name.split(".")[0] == "fairshare"]
        for layer, (modname, attr) in LAYERS.items():
            original = getattr(sys.modules[modname], attr)
            wrapper = self.wrap(layer, original)
            for module in modules:
                if getattr(module, attr, None) is original:
                    self._saved.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def dump(self, path: str) -> None:
        """Write the recorded spans as JSON lines."""
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(
                    json.dumps(
                        {
                            "id": s.sid,
                            "layer": s.layer,
                            "start": s.start,
                            "end": s.end,
                            "parent": s.parent,
                            "request": s.request,
                            "status": s.status,
                            **dict(s.extra),
                        }
                    )
                    + "\n"
                )
