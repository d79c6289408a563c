"""Correctness checks on the CLI outputs, run outside the timed loop.

Outputs are never compared byte for byte with stored answers: a solver change
may legitimately return another certificate. Instead every answer is
re-proved from its own certificates, cross-checked against the share chain,
and, for a fixed subset of requests, against the brute-force oracles in
`fairshare.oracle`.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

# The first this many requests (in pool order) within the oracle caps are
# compared with the brute-force oracles; the rest get the certificate checks.
ORACLE_REQUESTS = 12
# Largest m the partition oracles are run on here, well inside their caps.
ORACLE_MAX_ITEMS = 8


class CheckFailed(Exception):
    """An output failed a correctness check."""


def _expect(cond: bool, req, what: str) -> None:
    if not cond:
        raise CheckFailed(f"request {req.index} ({req.calls[0][0]}, shape {req.shape}): {what}")


def _rat(text) -> Fraction:
    return Fraction(text) if isinstance(text, str) else Fraction(int(text))


def _chain(req, shares: dict) -> None:
    """proportional >= tps >= aps, and aps >= pessimistic >= aps/2 if known."""
    prop, tps, aps = _rat(shares["proportional"]), _rat(shares["tps"]), _rat(shares["aps"])
    _expect(prop >= tps >= aps, req, f"share chain broken: {prop} >= {tps} >= {aps}")
    pess = shares.get("pessimistic")
    if pess is not None:
        pess = _rat(pess)
        _expect(aps >= pess and 2 * pess >= aps, req, f"pessimistic {pess} outside [aps/2, aps] for aps {aps}")


def _instance(fs, req):
    return fs.make_instance(req.values, req.entitlements)


class Checker:
    """Checks one workload's first-pass outputs against `fairshare` itself."""

    def __init__(self, fs, oracle) -> None:
        self.fs = fs
        self.oracle = oracle
        self.oracle_checked = 0

    def _take_oracle_slot(self, m: int) -> bool:
        if m <= ORACLE_MAX_ITEMS and self.oracle_checked < ORACLE_REQUESTS:
            self.oracle_checked += 1
            return True
        return False

    def check(self, workload: str, req, status: str, outputs: list[str]) -> None:
        if status != "ok":
            return
        docs = [json.loads(out) for out in outputs]
        if workload == "allocate-verify":
            self._allocate_verify(req, *docs)
        elif workload == "shares-large":
            self._shares(req, docs[0])
        else:
            self._adversary(req, docs[0])

    # -- allocate-verify ---------------------------------------------------

    def _allocate_verify(self, req, alloc_doc: dict, verify_doc: dict) -> None:
        fs = self.fs
        inst = _instance(fs, req)
        n, m = inst.n, inst.m
        bundles = alloc_doc["allocation"]
        _expect(len(bundles) == n, req, f"{len(bundles)} bundles for {n} agents")
        _expect(sorted(j for b in bundles for j in b) == list(range(m)), req, "items not covered exactly once")
        _expect(verify_doc["allocation"] == bundles, req, "verify echoed another allocation")
        report, recheck = alloc_doc["report"], verify_doc["bounds"]
        _expect(report["all_passed"] and recheck["all_passed"], req, "all_passed is false")
        _expect(
            [a["threshold"] for a in report["agents"]] == [a["threshold"] for a in recheck["agents"]],
            req,
            "allocate and verify thresholds differ",
        )
        for agent in recheck["agents"]:
            i = agent["agent"]
            _expect(agent["value"] == inst.agent_value(i, bundles[i]), req, f"agent {i} value misreported")
            _chain(req, agent["shares"])
        if req.method == "bidding":
            transcript = fs.GameTranscript.from_json_dict(alloc_doc["transcript"])
            replayed = fs.replay_transcript(inst, transcript)
            _expect([list(b) for b in replayed.bundles] == bundles, req, "transcript replays to another allocation")
        if self._take_oracle_slot(m):
            for agent in recheck["agents"]:
                i = agent["agent"]
                v, b = inst.valuations[i], inst.entitlements[i]
                shares = agent["shares"]
                _expect(_rat(shares["aps"]) == self.oracle.aps_brute(v, b), req, f"agent {i} aps differs from oracle")
                if shares["pessimistic"] is not None:
                    _expect(
                        _rat(shares["pessimistic"]) == self.oracle.pessimistic_brute(v, b),
                        req,
                        f"agent {i} pessimistic differs from oracle",
                    )

    # -- shares-large ------------------------------------------------------

    def _shares(self, req, doc: dict) -> None:
        fs = self.fs
        inst = _instance(fs, req)
        (agent,) = doc["agents"]
        i = agent["agent"]
        _expect(i == req.focal, req, f"asked for agent {req.focal}, got {i}")
        v, b = inst.valuations[i], inst.entitlements[i]
        shares = agent["shares"]
        aps = shares["aps"]
        cert = fs.PriceCertificate.from_json_dict(aps["certificate"])
        wit = fs.BundleWitness.from_json_dict(aps["witness"])
        _expect(cert.budget == b, req, "certificate budget is not the entitlement")
        _expect(fs.check_price_certificate(cert, v), req, "price certificate does not check")
        _expect(fs.check_bundle_witness(wit, v, b), req, "bundle witness does not check")
        _expect(
            cert.value_bound == wit.value_floor == aps["value"],
            req,
            f"value_bound {cert.value_bound}, value_floor {wit.value_floor}, value {aps['value']} differ",
        )
        _chain(req, {**shares, "aps": aps["value"]})
        if self._take_oracle_slot(inst.m):
            oracle = self.oracle
            _expect(aps["value"] == oracle.aps_brute(v, b), req, "aps differs from oracle")
            _expect(shares["mms"] == oracle.mms_brute(v, inst.n), req, "mms differs from oracle")
            _expect(shares["pessimistic"] == oracle.pessimistic_brute(v, b), req, "pessimistic differs from oracle")
            _expect(
                _rat(shares["wmms"]) == oracle.wmms_brute(inst.entitlements, i, v),
                req,
                "wmms differs from oracle",
            )

    # -- adversary-sweep ---------------------------------------------------

    def _adversary(self, req, doc: dict) -> None:
        fs = self.fs
        inst = _instance(fs, req)
        i = req.focal
        v, b = inst.valuations[i], inst.entitlements[i]
        _expect(doc["focal"] == i and doc["strategy"] == req.strategy, req, "focal agent or strategy echoed wrong")
        _expect(
            doc["patterns_checked"] == len(fs.enumerate_win_patterns(inst.m)),
            req,
            "not every concession pattern was checked",
        )
        # The worst transcript is a two-party game: the focal agent against
        # the pooled coalition with budget 1-b. Replay it on that instance.
        duel = fs.make_instance([list(v.item_values)] * 2, [b, 1 - b])
        transcript = fs.GameTranscript.from_json_dict(doc["transcript"])
        replayed = fs.replay_transcript(duel, transcript)
        _expect(v.value(replayed.bundles[0]) == doc["min_value"], req, "min_value is not the replayed bundle value")
        if req.strategy == "meta" and self._take_oracle_slot(inst.m):
            ordered = sorted(v.item_values, reverse=True)
            rank = math.floor(1 / b)
            rank_value = ordered[rank - 1] if rank <= len(ordered) else 0
            floor = max(Fraction(3, 5) * self.oracle.aps_brute(v, b), fs.tps(v, b) / (2 - b), Fraction(rank_value))
            _expect(doc["min_value"] >= floor, req, f"meta min_value {doc['min_value']} below its guarantee {floor}")
