"""Exact-rational domain model, instance I/O, and the ordered-instance reduction.

All quantities are either Python ints (item values) or `Rat` (entitlements,
bids, budgets, prices, weights). There is no floating point anywhere in the
package; every comparison that decides an outcome is exact.
"""

from __future__ import annotations

import json
import os
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

Rat = Fraction

DEFAULT_GUARD_LIMIT = 10**6


class InputError(ValueError):
    """Malformed input; the message starts with the offending field path."""


class GuardError(RuntimeError):
    """A solver refused an instance that exceeds its size guard."""

    def __init__(self, guard: str, limit: int, actual) -> None:
        self.guard = guard
        self.limit = limit
        self.actual = actual
        super().__init__(f"size guard '{guard}': {actual} exceeds limit {limit}")


def guard_limit() -> int:
    """Work limit for the exponential/pseudo-polynomial solvers.

    Overridable through the FAIRSHARE_GUARD_LIMIT environment variable.
    """
    raw = os.environ.get("FAIRSHARE_GUARD_LIMIT")
    if raw is None:
        return DEFAULT_GUARD_LIMIT
    try:
        value = int(raw)
    except ValueError:
        raise InputError(f"FAIRSHARE_GUARD_LIMIT: not an integer: {raw!r}") from None
    if value <= 0:
        raise InputError(f"FAIRSHARE_GUARD_LIMIT: must be positive, got {value}")
    return value


def rat_to_str(r: Rat) -> str:
    """Lowest-terms "p/q" rendering; integers render without the "/1"."""
    if r.denominator == 1:
        return str(r.numerator)
    return f"{r.numerator}/{r.denominator}"


def rat_from_str(text: str, path: str = "value") -> Rat:
    # strict wire format: optional sign, digits, optional /digits; no decimals
    if not isinstance(text, str) or not re.fullmatch(r"-?[0-9]+(?:/[0-9]+)?", text):
        raise InputError(f"{path}: not a rational 'p/q' or integer string: {text!r}")
    try:
        return Rat(text)
    except ZeroDivisionError:
        raise InputError(f"{path}: not a rational 'p/q' or integer string: {text!r}") from None
    except ValueError as exc:
        # more digits than Python's int-string limit allows
        raise InputError(f"{path}: {exc}") from None


@dataclass(frozen=True)
class Valuation:
    """Additive valuation: one non-negative integer per item in global order."""

    item_values: tuple[int, ...]

    def __post_init__(self) -> None:
        for j, v in enumerate(self.item_values):
            if isinstance(v, bool) or not isinstance(v, int) or v < 0:
                raise InputError(f"values[{j}]: expected a non-negative integer, got {v!r}")

    @property
    def m(self) -> int:
        return len(self.item_values)

    @property
    def total(self) -> int:
        return sum(self.item_values)

    def of(self, item: int) -> int:
        return self.item_values[item]

    def value(self, items: Iterable[int]) -> int:
        vals = self.item_values
        return sum(vals[j] for j in items)

    def ranked_items(self) -> list[int]:
        """Item indices sorted by value descending, ties by index ascending."""
        return sorted(range(self.m), key=lambda j: (-self.item_values[j], j))


def check_entitlement(b: Rat, path: str = "entitlement") -> Rat:
    """An entitlement as an exact rational 0 < b <= 1. Plain ints are
    promoted; floats, bools and strings are refused."""
    if isinstance(b, int) and not isinstance(b, bool):
        b = Rat(b)
    if not isinstance(b, Fraction):
        raise InputError(f"{path}: expected an exact rational, got {type(b).__name__}")
    if not (0 < b <= 1):
        raise InputError(f"{path}: must satisfy 0 < b <= 1, got {rat_to_str(b)}")
    return b


def _check_entitlements(entitlements: Iterable[Rat], path: str = "entitlement") -> tuple[Rat, ...]:
    """An entitlement profile: each entry through `check_entitlement`, with
    `path` formatted by its index, in order; the sum must be exactly 1."""
    ents = tuple(check_entitlement(b, path.format(i)) for i, b in enumerate(entitlements))
    total = sum(ents, Rat(0))
    if total != 1:
        raise InputError(f"entitlements: sum {rat_to_str(total)} != 1")
    return ents


@dataclass(frozen=True)
class Instance:
    valuations: tuple[Valuation, ...]
    entitlements: tuple[Rat, ...]
    agent_names: tuple[str, ...]
    item_names: tuple[str, ...]

    @property
    def n(self) -> int:
        return len(self.valuations)

    @property
    def m(self) -> int:
        return len(self.item_names)

    def agent_value(self, i: int, items: Iterable[int]) -> int:
        return self.valuations[i].value(items)

    def equal_entitlements(self) -> bool:
        return all(b == Rat(1, self.n) for b in self.entitlements)


def make_instance(
    values: list[list[int]],
    entitlements: list[Rat | str | int],
    agent_names: list[str] | None = None,
    item_names: list[str] | None = None,
) -> Instance:
    """Build a validated Instance. Entitlements must sum to exactly 1."""
    if not values:
        raise InputError("agents: expected at least one agent")
    if len(entitlements) != len(values):
        raise InputError("entitlements: one entitlement per agent required")
    m = len(values[0])
    vals = []
    for i, row in enumerate(values):
        if len(row) != m:
            raise InputError(f"agents[{i}].values: expected {m} values, got {len(row)}")
        try:
            vals.append(Valuation(tuple(row)))
        except InputError as exc:
            raise InputError(f"agents[{i}].{exc}") from None
    path = "agents[{}].entitlement"
    ents = _check_entitlements(
        (rat_from_str(b, path.format(i)) if isinstance(b, str) else b for i, b in enumerate(entitlements)), path
    )
    names = tuple(agent_names) if agent_names else tuple(f"agent{i}" for i in range(len(values)))
    if len(names) != len(values):
        raise InputError("agents: name count does not match agent count")
    items = tuple(item_names) if item_names else tuple(f"item{j}" for j in range(m))
    if len(items) != m:
        raise InputError(f"items: expected {m} names, got {len(items)}")
    return Instance(tuple(vals), ents, names, items)


def parse_instance(text: str) -> Instance:
    """Parse and validate the JSON instance document.

    Schema: {"items": [names...]?, "agents": [{"name"?: str,
    "entitlement": "p/q" or integer string, "values": [non-negative ints]}]}.
    Errors carry the field path of the offending element.
    """
    try:
        doc = json.loads(text)
    except ValueError as exc:
        # a JSONDecodeError, or an integer past Python's int-string limit
        raise InputError(f"$: malformed JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise InputError("$: expected a JSON object")
    agents = doc.get("agents")
    if not isinstance(agents, list) or not agents:
        raise InputError("agents: expected a non-empty array")
    item_names = None
    if "items" in doc:
        raw_items = doc["items"]
        if not isinstance(raw_items, list) or not all(isinstance(s, str) for s in raw_items):
            raise InputError("items: expected an array of strings")
        item_names = list(raw_items)
    values: list[list[int]] = []
    ents: list[Rat] = []
    names: list[str] = []
    for i, agent in enumerate(agents):
        if not isinstance(agent, dict):
            raise InputError(f"agents[{i}]: expected an object")
        if "entitlement" not in agent:
            raise InputError(f"agents[{i}].entitlement: missing")
        raw_b = agent["entitlement"]
        path = f"agents[{i}].entitlement"
        if isinstance(raw_b, str):
            b = rat_from_str(raw_b, path)
        elif isinstance(raw_b, int) and not isinstance(raw_b, bool):
            b = Rat(raw_b)
        else:
            raise InputError(f"{path}: expected a 'p/q' or integer string")
        ents.append(check_entitlement(b, path))
        row = agent.get("values")
        if not isinstance(row, list):
            raise InputError(f"agents[{i}].values: expected an array")
        for j, v in enumerate(row):
            if isinstance(v, bool) or not isinstance(v, int) or v < 0:
                raise InputError(f"agents[{i}].values[{j}]: expected a non-negative integer")
        values.append(row)
        name = agent.get("name")
        if name is not None and not isinstance(name, str):
            raise InputError(f"agents[{i}].name: expected a string")
        names.append(name or f"agent{i}")
    if item_names is not None and values and len(values[0]) != len(item_names):
        raise InputError(f"agents[0].values: expected {len(item_names)} values, got {len(values[0])}")
    return make_instance(values, ents, names, item_names)


def serialize_instance(inst: Instance) -> str:
    doc = {
        "items": list(inst.item_names),
        "agents": [
            {
                "name": inst.agent_names[i],
                "entitlement": rat_to_str(inst.entitlements[i]),
                "values": list(inst.valuations[i].item_values),
            }
            for i in range(inst.n)
        ],
    }
    return json.dumps(doc, indent=2)


@dataclass(frozen=True)
class Allocation:
    """Disjoint bundles of item indices, one per agent; stored sorted."""

    bundles: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        seen: set[int] = set()
        norm = []
        for i, bundle in enumerate(self.bundles):
            items = tuple(sorted(bundle))
            for j in items:
                if j in seen:
                    raise InputError(f"allocation[{i}]: item {j} allocated twice")
                seen.add(j)
            norm.append(items)
        object.__setattr__(self, "bundles", tuple(norm))

    @property
    def n(self) -> int:
        return len(self.bundles)

    def allocated(self) -> set[int]:
        return {j for bundle in self.bundles for j in bundle}

    def is_full(self, m: int) -> bool:
        items = self.allocated()
        return items == set(range(m))

    def require_full(self, m: int) -> None:
        items = self.allocated()
        unknown = sorted(items - set(range(m)))
        if unknown:
            raise InputError(f"allocation: unknown item index {unknown[0]}")
        if items != set(range(m)):
            missing = sorted(set(range(m)) - items)
            raise InputError(f"allocation: items {missing} unallocated")


@dataclass(frozen=True)
class OrderedReduction:
    """An instance with each agent's values sorted non-increasing, plus the
    per-agent map from ordered rank to original item index."""

    ordered_instance: Instance
    per_agent_permutation: tuple[tuple[int, ...], ...]


def is_ordered(inst: Instance) -> bool:
    for v in inst.valuations:
        row = v.item_values
        if any(row[j] < row[j + 1] for j in range(len(row) - 1)):
            return False
    return True


def ordered_version(inst: Instance) -> OrderedReduction:
    """Sort each agent's values non-increasing, independently per agent.

    Ties are broken by original item index, so the reduction is deterministic
    and idempotent on already-ordered instances.
    """
    perms = []
    rows = []
    for v in inst.valuations:
        order = v.ranked_items()
        perms.append(tuple(order))
        rows.append([v.item_values[j] for j in order])
    ordered = make_instance(
        rows,
        list(inst.entitlements),
        list(inst.agent_names),
        [f"rank{r + 1}" for r in range(inst.m)],
    )
    return OrderedReduction(ordered, tuple(perms))


def lift_allocation(inst: Instance, ordered_alloc: Allocation) -> Allocation:
    """Map an allocation of the ordered instance back to the original items.

    Runs the choosing sequence: at rank r the agent holding the r-th ordered
    item picks her highest-value remaining original item. Guarantees, for
    every agent, original value of the lifted bundle >= ordered value of the
    ordered bundle.
    """
    m = inst.m
    ordered_alloc.require_full(m)
    if ordered_alloc.n != inst.n:
        raise InputError(f"allocation: expected {inst.n} bundles, got {ordered_alloc.n}")
    holder = [0] * m
    for i, bundle in enumerate(ordered_alloc.bundles):
        for r in bundle:
            holder[r] = i
    remaining = set(range(m))
    lifted: list[list[int]] = [[] for _ in range(inst.n)]
    for r in range(m):
        i = holder[r]
        vals = inst.valuations[i].item_values
        pick = min(remaining, key=lambda j: (-vals[j], j))
        remaining.remove(pick)
        lifted[i].append(pick)
    return Allocation(tuple(tuple(b) for b in lifted))
