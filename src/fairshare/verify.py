"""Certification of allocations against per-agent guarantee bounds.

Three bound sets are supported: the bidding-game guarantee for arbitrary
entitlements (best of 3/5 APS, TPS/(2-b) and the entitlement-rank item, the
terms `bidding._guarantee_terms` defines), the greedy guarantee for equal
entitlements (min of 3/4 APS and 2n/(3n-1) TPS), and the full APS for
two-agent splits. All comparisons are exact; decimal fields in the JSON are
for humans: 6 places, half to even.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .bidding import _guarantee_terms
from .core import Allocation, GuardError, InputError, Instance, Rat, _check_fits, rat_to_str
from .shares import (
    ApsResult,
    PriceCertificate,
    aps_exact,
    check_price_certificate,
    pessimistic_share_exact,
    proportional_share,
    tps,
)

BOUND_SETS = ("arbitrary-entitlements", "equal-entitlements-gefx", "two-agent-aps")


def _decimal(x: Rat) -> str:
    return "%d.%06d" % divmod(round(x * 10**6), 10**6)


@dataclass(frozen=True)
class AgentGuarantee:
    agent: int
    value: int
    shares: dict[str, Rat | int | None]
    threshold: Rat
    fraction: Rat | None
    passed: bool
    vacuous: bool

    def to_json_dict(self) -> dict:
        shares = {}
        for k, v in self.shares.items():
            if v is None:
                shares[k] = None
            elif isinstance(v, int):
                shares[k] = v
            else:
                shares[k] = rat_to_str(v)
        return {
            "agent": self.agent,
            "value": self.value,
            "shares": shares,
            "threshold": rat_to_str(self.threshold),
            "threshold_decimal": _decimal(self.threshold),
            "fraction": rat_to_str(self.fraction) if self.fraction is not None else None,
            "fraction_decimal": _decimal(self.fraction) if self.fraction is not None else None,
            "passed": self.passed,
            "vacuous": self.vacuous,
        }


@dataclass(frozen=True)
class GuaranteeReport:
    bounds: str
    agents: tuple[AgentGuarantee, ...]

    @property
    def all_passed(self) -> bool:
        return all(a.passed for a in self.agents)

    def to_json_dict(self) -> dict:
        return {
            "bounds": self.bounds,
            "all_passed": self.all_passed,
            "agents": [a.to_json_dict() for a in self.agents],
        }


def check_allocation(
    inst: Instance,
    alloc: Allocation,
    bounds: str = "arbitrary-entitlements",
    solved: Sequence[ApsResult] | None = None,
) -> GuaranteeReport:
    """Measure every agent's bundle against the chosen bound set.

    A zero threshold is a vacuous pass. Shares that exceed their size guard
    are reported as None and excluded from the threshold. `solved` holds each
    agent's APS result when the caller has them already: from `aps_exact`,
    or read back from its certificates by `shares.checked_aps`, as `verify`
    does for an `allocate` document; only the values are read. The
    pessimistic share is reported, not used by any threshold; each agent's
    APS caps its search, which stops at the first split worth the APS.
    """
    if bounds not in BOUND_SETS:
        raise InputError(f"bounds: expected one of {', '.join(BOUND_SETS)}, got {bounds!r}")
    _check_fits(inst, alloc)
    if bounds == "two-agent-aps" and inst.n != 2:
        raise InputError(f"bounds: two-agent-aps needs exactly 2 agents, got {inst.n}")
    agents = []
    for i in range(inst.n):
        v = inst.valuations[i]
        b = inst.entitlements[i]
        value = v.value(alloc.bundles[i])
        aps = (aps_exact(v, b) if solved is None else solved[i]).value
        t = tps(v, b)
        shares: dict[str, Rat | int | None] = {
            "proportional": proportional_share(v, b),
            "tps": t,
            "aps": aps,
        }
        try:
            shares["pessimistic"] = pessimistic_share_exact(v, b, aps)
        except GuardError:
            shares["pessimistic"] = None
        if bounds == "arbitrary-entitlements":
            terms = _guarantee_terms(v, b, aps)
            shares["rank"] = terms[2]
            threshold = Rat(max(terms))
        elif bounds == "equal-entitlements-gefx":
            threshold = min(Rat(3, 4) * aps, Rat(2 * inst.n, 3 * inst.n - 1) * t)
        else:
            threshold = Rat(aps)
        vacuous = threshold <= 0
        passed = vacuous or value >= threshold
        fraction = Rat(value) / threshold if threshold > 0 else None
        agents.append(AgentGuarantee(i, value, shares, threshold, fraction, passed, vacuous))
    return GuaranteeReport(bounds, tuple(agents))


def check_ce(
    inst: Instance, alloc: Allocation, prices: tuple[Rat, ...], solved: Sequence[ApsResult] | None = None
) -> bool:
    """Competitive equilibrium test: budget feasibility and demand optimality.

    Every item must be allocated once, every agent's bundle must cost at most
    her entitlement, and no affordable bundle may beat her own: the prices are
    each agent's APS price certificate at her own bundle's value. When the
    test passes, every agent is guaranteed her full AnyPrice share, and this
    is re-checked here (raising AssertionError, also under python -O).
    `solved` is as for `check_allocation`.
    """
    _check_ce_inputs(inst, alloc, prices)
    for i in range(inst.n):
        v = inst.valuations[i]
        b = inst.entitlements[i]
        cost = sum((prices[j] for j in alloc.bundles[i]), Rat(0))
        if cost > b:
            return False
        if not check_price_certificate(PriceCertificate(prices, b, v.value(alloc.bundles[i])), v):
            return False
    for i in range(inst.n):
        got = inst.agent_value(i, alloc.bundles[i])
        aps = aps_exact(inst.valuations[i], inst.entitlements[i]) if solved is None else solved[i]
        if got < aps.value:
            raise AssertionError(f"equilibrium bundle of agent {i} below the AnyPrice share")
    return True


def _check_ce_inputs(inst: Instance, alloc: Allocation, prices: tuple[Rat, ...]) -> None:
    """InputError unless `alloc` fits the instance and `prices` holds m
    non-negative prices: `check_ce`'s checks of its input."""
    _check_fits(inst, alloc)
    if len(prices) != inst.m:
        raise InputError(f"prices: expected {inst.m}, got {len(prices)}")
    if any(p < 0 for p in prices):
        raise InputError("prices: must be non-negative")


def check_share_chain(valuation, b: Rat) -> dict:
    """Compute the share ladder and report which links are strict.

    Checks proportional >= tps >= aps >= pessimistic >= aps/2 and raises
    AssertionError, also under python -O, on a violation: that would be an
    implementation bug, not a property of the instance. The APS caps the
    pessimistic search, which raises at a split worth more.
    """
    p = proportional_share(valuation, b)
    t = tps(valuation, b)
    a = aps_exact(valuation, b).value
    pe = pessimistic_share_exact(valuation, b, a)
    if p < t:
        raise AssertionError(f"proportional {p} < tps {t}")
    if t < a:
        raise AssertionError(f"tps {t} < aps {a}")
    if a < pe:
        raise AssertionError(f"aps {a} < pessimistic {pe}")
    if 2 * pe < a:
        raise AssertionError(f"pessimistic {pe} below half of aps {a}")
    return {
        "proportional": p,
        "tps": t,
        "aps": a,
        "pessimistic": pe,
        "strict": {
            "proportional_tps": p > t,
            "tps_aps": t > Rat(a),
            "aps_pessimistic": a > pe,
            "pessimistic_half_aps": 2 * pe > a,
        },
    }
