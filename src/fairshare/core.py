"""Exact-rational domain model, the JSON wire format, and the ordered-instance reduction.

All quantities are either Python ints (item values) or `Rat` (entitlements,
bids, budgets, prices, weights). There is no floating point anywhere in the
package; every comparison that decides an outcome is exact.

Every input document (instance, allocation, prices, the APS certificates and
bidding transcripts) is read through the `_json_*` readers here, one per JSON
shape, so each shape is checked one way and every fault raises `InputError`
naming its field path. A rational is a `"p/q"` or integer string of ASCII
digits, or a JSON integer. Every output document is written by `_json_text`,
which gives the bytes of `json.dumps(doc, indent=2)`.
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

    Overridable through FAIRSHARE_GUARD_LIMIT, read as ASCII digits.
    """
    raw = os.environ.get("FAIRSHARE_GUARD_LIMIT")
    if raw is None:
        return DEFAULT_GUARD_LIMIT
    try:
        value = _int_from_str(raw)
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


# The strict wire format of a rational: optional sign, ASCII digits, optional
# /digits; no decimals. The groups are the numerator and the denominator.
_RATIONAL = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")


def rat_from_str(text: str, path: str = "value") -> Rat:
    match = _RATIONAL.fullmatch(text) if isinstance(text, str) else None
    if match is None:
        raise InputError(f"{path}: not a rational 'p/q' or integer string: {text!r}")
    num, den = match.groups()
    try:
        return Rat(int(num), 1 if den is None else int(den))
    except ZeroDivisionError:
        raise InputError(f"{path}: not a rational 'p/q' or integer string: {text!r}") from None
    except ValueError as exc:
        # more digits than Python's int-string limit allows
        raise InputError(f"{path}: {exc}") from None


def _int_from_str(text: str) -> int:
    """`int(text)` for ASCII digits only, as `rat_from_str` reads them; raises
    ValueError, as `int` does, on anything else."""
    match = _RATIONAL.fullmatch(text)
    if match is None or match.group(2) is not None:
        raise ValueError(f"not an integer string: {text!r}")
    return int(text)


def _json_doc(text: str, what: str):
    try:
        return json.loads(text)
    except ValueError as exc:
        # a JSONDecodeError, or an integer past Python's int-string limit
        raise InputError(f"{what}: malformed JSON: {exc}") from None


def _json_unwrap(doc, key: str, read, bare: str | None = None):
    """`read(value, path)` for the parsed document `doc`, which holds its
    value bare or under `key`: `doc[key]` at path `key` when `doc` is an
    object with that key, else `doc` itself at path `bare` (default `key`)."""
    if isinstance(doc, dict) and key in doc:
        return read(doc[key], key)
    return read(doc, key if bare is None else bare)


def _json_field(doc, key: str, read, at: str = ""):
    """`read(doc[key], path)` for the object `doc` at field path `at`."""
    path = f"{at}.{key}" if at else key
    if not isinstance(doc, dict) or key not in doc:
        raise InputError(f"{path}: missing")
    return read(doc[key], path)


def _json_list(value, path: str) -> list:
    if not isinstance(value, list):
        raise InputError(f"{path}: expected an array, got {value!r}")
    return value


def _json_int(value, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise InputError(f"{path}: expected an integer, got {value!r}")
    return value


def _json_str(value, path: str) -> str:
    if not isinstance(value, str):
        raise InputError(f"{path}: expected a string, got {value!r}")
    return value


def _json_rat(value, path: str) -> Rat:
    if isinstance(value, int) and not isinstance(value, bool):
        return Rat(value)
    if not isinstance(value, str):
        raise InputError(f"{path}: expected a 'p/q' or integer string, got {value!r}")
    return rat_from_str(value, path)


def _json_each(read):
    """The reader of an array whose entries each pass `read`, as a tuple."""
    return lambda value, path: tuple(read(x, f"{path}[{i}]") for i, x in enumerate(_json_list(value, path)))


_json_items = _json_each(_json_int)
_json_bundles = _json_each(_json_items)
_json_rats = _json_each(_json_rat)
_json_strs = _json_each(_json_str)


_escape = json.encoder.encode_basestring_ascii


def _json_text(value, newline: str = "\n") -> str:
    """`json.dumps(value, indent=2)`, byte for byte, for the documents the
    package writes: dicts with str keys, lists, tuples, str, int, bool and
    None; anything else, floats included, raises TypeError. `newline` opens
    each line at the depth of `value` itself."""
    if isinstance(value, str):
        return _escape(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    inner = newline + "  "
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        return "[" + inner + ("," + inner).join([_json_text(x, inner) for x in value]) + newline + "]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        for key in value:
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
        fields = [_escape(key) + ": " + _json_text(x, inner) for key, x in value.items()]
        return "{" + inner + ("," + inner).join(fields) + newline + "}"
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


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

    def value(self, items: Iterable[int]) -> int:
        return sum(map(self.item_values.__getitem__, items))

    def ranked_items(self) -> list[int]:
        """Item indices sorted by value descending, ties by index ascending."""
        return _ranking(self.item_values, range(self.m))


def _ranking(scores, items: Iterable[int]) -> list[int]:
    """`items` by score descending, ties to the lowest index: the one item
    order of the package, for plain values and for the capped values of the
    bidders alike."""
    return sorted(items, key=lambda j: (-scores[j], j))


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
    # Item names, when given, fix the item count that every row must match.
    m = len(values[0]) if item_names is None else len(item_names)
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
    items = tuple(item_names) if item_names is not None else tuple(f"item{j}" for j in range(m))
    return Instance(tuple(vals), ents, names, items)


def parse_instance(text: str) -> Instance:
    """Parse and validate the JSON instance document.

    Schema: {"items": [names...]?, "agents": [{"name"?: str,
    "entitlement": rational, "values": [non-negative ints]}]}.
    Errors carry the field path of the offending element.
    """
    doc = _json_doc(text, "$")
    agents = _json_field(doc, "agents", _json_list)
    item_names = _json_strs(doc["items"], "items") if "items" in doc else None
    values, ents, names = [], [], []
    for i, agent in enumerate(agents):
        at = f"agents[{i}]"
        ents.append(_json_field(agent, "entitlement", _json_rat, at))
        values.append(_json_field(agent, "values", _json_list, at))
        name = agent.get("name")
        if name is not None:
            _json_str(name, f"{at}.name")
        names.append(name or f"agent{i}")
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
    return _json_text(doc)


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

    def require_full(self, m: int) -> None:
        items = self.allocated()
        unknown = sorted(items - set(range(m)))
        if unknown:
            raise InputError(f"allocation: unknown item index {unknown[0]}")
        if items != set(range(m)):
            missing = sorted(set(range(m)) - items)
            raise InputError(f"allocation: items {missing} unallocated")


def _check_fits(inst: Instance, alloc: Allocation) -> None:
    """`alloc` is an allocation of `inst`: every item once, one bundle per agent."""
    alloc.require_full(inst.m)
    if alloc.n != inst.n:
        raise InputError(f"allocation: expected {inst.n} bundles, got {alloc.n}")


def is_ordered(inst: Instance) -> bool:
    for v in inst.valuations:
        row = v.item_values
        if any(row[j] < row[j + 1] for j in range(len(row) - 1)):
            return False
    return True


def ordered_version(inst: Instance) -> Instance:
    """Sort each agent's values non-increasing, independently per agent; rank
    r of agent i is item `inst.valuations[i].ranked_items()[r]`. Idempotent on
    already-ordered instances."""
    return make_instance(
        [sorted(v.item_values, reverse=True) for v in inst.valuations],
        list(inst.entitlements),
        list(inst.agent_names),
        [f"rank{r + 1}" for r in range(inst.m)],
    )


def lift_allocation(inst: Instance, ordered_alloc: Allocation) -> Allocation:
    """Map an allocation of the ordered instance back to the original items.

    Runs the choosing sequence: at rank r the agent holding the r-th ordered
    item picks her highest-value remaining original item, the first item of
    her ranking not yet taken. Guarantees, for every agent, original value of
    the lifted bundle >= ordered value of the ordered bundle.
    """
    _check_fits(inst, ordered_alloc)
    holder = [0] * inst.m
    for i, bundle in enumerate(ordered_alloc.bundles):
        for r in bundle:
            holder[r] = i
    # Taken items stay taken, so each agent's walk resumes where it stopped.
    walks = [iter(v.ranked_items()) for v in inst.valuations]
    taken: set[int] = set()
    lifted: list[list[int]] = [[] for _ in range(inst.n)]
    for i in holder:
        pick = next(j for j in walks[i] if j not in taken)
        taken.add(pick)
        lifted[i].append(pick)
    return Allocation(tuple(tuple(b) for b in lifted))
