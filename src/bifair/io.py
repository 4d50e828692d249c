"""Instance and allocation files plus seeded instance generators.

Instance files are versioned JSON. The value pair may be given directly as
``c`` or as original ``a``/``b`` values with ``a | b``; the latter are
rescaled at parse time and the scale is carried through to outputs so
reported utilities can be mapped back by multiplying with ``a``. Unknown
fields are rejected everywhere so typos fail loudly, and explicit rank
tables are audited against the rank axioms at load.
"""

from __future__ import annotations

import gc
import itertools
import json
import random
import threading
from json.encoder import encode_basestring_ascii as quote
from pathlib import Path
from typing import Iterable

from .allocation import Allocation, Decomposition, utility_vector
from .errors import MalformedMatroidError, ValidationError
from .valuation import (
    BivaluedValuation,
    ExplicitMatroid,
    Instance,
    MarkedMatroid,
    Matroid,
    PartitionMatroid,
    TransversalMatroid,
    UniformMatroid,
    check_c,
    rescale_pair,
    validate_explicit,
)

INSTANCE_VERSION = 1
ALLOCATION_VERSION = 1

GENERATOR_FAMILIES = ("marked", "uniform", "partition", "transversal")

_STR, _INT, _LIST = {str}, {int}, {list}
_AGENT_KEYS = {"name", "matroid"}


def _require_keys(obj: dict, allowed: set[str], required: set[str], where: str) -> None:
    if not isinstance(obj, dict):
        raise ValidationError(f"{where}: expected an object")
    if not allowed.issuperset(obj):
        raise ValidationError(f"{where}: unknown fields {sorted(obj.keys() - allowed)}")
    if not required.issubset(obj):
        raise ValidationError(f"{where}: missing fields {sorted(required - obj.keys())}")


_KINDS = {int: "an integer", str: "a string", list: "a list", dict: "an object"}


def _typed(value, kind: type, where: str, what: str):
    """``value`` if it is of JSON type ``kind``; else bad input.

    Nothing is coerced, and a bool is not an integer.
    """
    if not isinstance(value, kind) or isinstance(value, bool):
        raise ValidationError(f"{where}: {what} must be {_KINDS[kind]}, got {value!r}")
    return value


def _good_indices(names: list[str], index: dict[str, int], where: str) -> frozenset[int]:
    """The ids of a list of good names, looked up in one pass; the first bad name is named."""
    try:
        return frozenset(map(index.__getitem__, _typed(names, list, where, "good names")))
    except (KeyError, TypeError):
        bad = next(name for name in names if not isinstance(name, str) or name not in index)
        raise ValidationError(f"{where}: unknown good {bad!r}") from None


def _construct(where: str, cls: type, *args):
    """``cls(*args)``; an error it raises keeps its class and gains the ``where`` prefix."""
    try:
        return cls(*args)
    except ValidationError as exc:
        raise type(exc)(f"{where}: {exc}") from None


def _check_key_names(goods: Iterable[str], where: str) -> None:
    """Explicit rank keys are comma-joined names, so none may be empty or hold a comma."""
    for name in goods:
        if not name or "," in name:
            raise ValidationError(f"{where}: good {name!r} cannot appear in an explicit rank key")


def _parse_matroid(obj: dict, m: int, index: dict[str, int], where: str) -> Matroid:
    if not isinstance(obj, dict) or "type" not in obj:
        raise ValidationError(f"{where}: matroid needs a type")
    kind = obj["type"]
    if kind == "uniform":
        _require_keys(obj, {"type", "cap"}, {"cap"}, where)
        return _construct(where, UniformMatroid, m, _typed(obj["cap"], int, where, "cap"))
    if kind == "partition":
        _require_keys(obj, {"type", "parts", "caps"}, {"parts", "caps"}, where)
        parts = tuple(
            _good_indices(part, index, where)
            for part in _typed(obj["parts"], list, where, "parts")
        )
        caps = tuple(
            _typed(cap, int, where, "cap")
            for cap in _typed(obj["caps"], list, where, "caps")
        )
        return _construct(where, PartitionMatroid, m, parts, caps)
    if kind == "marked":
        _require_keys(obj, {"type", "marked"}, {"marked"}, where)
        # Ids read from the index lie in the ground set, which is all the constructor checks.
        return MarkedMatroid(m, _good_indices(obj["marked"], index, where))
    if kind == "transversal":
        _require_keys(obj, {"type", "slots", "edges"}, {"slots", "edges"}, where)
        slots = _typed(obj["slots"], int, where, "slots")
        adjacency = [frozenset()] * m
        for name, slot_list in _typed(obj["edges"], dict, where, "edges").items():
            if name not in index:
                raise ValidationError(f"{where}: unknown good {name!r} in edges")
            adjacency[index[name]] = frozenset(
                _typed(s, int, where, "slot id")
                for s in _typed(slot_list, list, where, f"edges of {name!r}")
            )
        return _construct(where, TransversalMatroid, m, slots, tuple(adjacency))
    if kind == "explicit":
        _require_keys(obj, {"type", "rank"}, {"rank"}, where)
        _check_key_names(index, where)
        ranks: dict[int, int] = {}  # subset bitmask -> rank
        key_of: dict[int, str] = {}
        for key, value in _typed(obj["rank"], dict, where, "rank").items():
            names = [part for part in key.split(",") if part]
            subset = _good_indices(names, index, where)
            if len(subset) != len(names):
                raise ValidationError(f"{where}: rank key {key!r} names a good twice")
            mask = sum(1 << g for g in subset)
            if mask in key_of:
                raise ValidationError(
                    f"{where}: rank keys {key_of[mask]!r} and {key!r} name the same subset"
                )
            key_of[mask] = key
            ranks[mask] = _typed(value, int, where, f"rank of {key!r}")
        # A complete table holds every mask below 2^m once, so sorting lays it out.
        table = tuple(ranks[mask] for mask in sorted(ranks))
        return _construct(where, ExplicitMatroid, m, table)
    raise ValidationError(f"{where}: unknown matroid type {kind!r}")


def _check_explicit(valuation: BivaluedValuation, goods: tuple[str, ...], where: str) -> None:
    """Reject an explicit rank table that breaks a rank axiom, naming the first breach."""
    violations = validate_explicit(valuation)
    if violations:
        v = violations[0]
        subset = ",".join(goods[g] for g in v.subset)
        extra = ",".join(goods[g] for g in v.goods)
        raise MalformedMatroidError(
            f"{where}: explicit rank table breaks {v.axiom} at subset "
            f"{{{subset}}} with goods {{{extra}}}: {v.detail}"
        )


def parse_instance(data: dict) -> Instance:
    """Build a validated :class:`Instance` from decoded instance JSON."""
    _require_keys(
        data,
        {"version", "c", "a", "b", "goods", "agents"},
        {"version", "goods", "agents"},
        "instance",
    )
    if _typed(data["version"], int, "instance", "version") != INSTANCE_VERSION:
        raise ValidationError(f"unsupported instance version {data['version']!r}")
    goods = tuple(_typed(data["goods"], list, "instance", "goods"))
    if not all(map(isinstance, goods, itertools.repeat(str))):
        raise ValidationError("instance: goods must be a list of strings")
    index = dict(zip(goods, range(len(goods))))

    scale = 1
    if "c" in data:
        if "a" in data or "b" in data:
            raise ValidationError("give either c or the pair a/b, not both")
        c = data["c"]
        check_c(c)
    elif "a" in data and "b" in data:
        c = rescale_pair(data["a"], data["b"])
        scale = data["a"]
    else:
        raise ValidationError("instance needs c, or both a and b")

    valuations = []
    names = []
    m, lookup = len(goods), index.__getitem__
    for idx, agent in enumerate(_typed(data["agents"], list, "instance", "agents"), start=1):
        # A valid agent passes these checks inline; ``_require_keys``, ``_typed`` and
        # ``_parse_matroid`` see only the agents they reject or that are not marked.
        if not (agent.__class__ is dict and "matroid" in agent and _AGENT_KEYS.issuperset(agent)):
            _require_keys(agent, _AGENT_KEYS, {"matroid"}, f"agent {idx}")
        name = agent["name"] if "name" in agent else f"agent{idx}"
        if name.__class__ is not str:
            _typed(name, str, f"agent {idx}", "name")
        names.append(name)
        obj, matroid = agent["matroid"], None
        if obj.__class__ is dict and len(obj) == 2 and obj.get("type") == "marked":
            marked = obj.get("marked")
            if marked.__class__ is list:
                try:
                    marked = frozenset(map(lookup, marked))
                except (KeyError, TypeError):
                    pass
                else:
                    matroid = MarkedMatroid(m, marked)
        if matroid is None:
            matroid = _parse_matroid(obj, m, index, f"agent {idx}")
            if isinstance(matroid, ExplicitMatroid):
                _check_explicit(BivaluedValuation(c, matroid), goods, f"agent {idx}")
        valuations.append(BivaluedValuation(c, matroid))
    return Instance(goods, c, tuple(valuations), tuple(names), scale)


def emit_matroid(matroid: Matroid, goods: tuple[str, ...]) -> dict:
    def names(ids: Iterable[int]) -> list[str]:
        return [goods[g] for g in sorted(ids)]

    if isinstance(matroid, UniformMatroid):
        return {"type": "uniform", "cap": matroid.cap}
    if isinstance(matroid, PartitionMatroid):
        return {
            "type": "partition",
            "parts": [names(part) for part in matroid.parts],
            "caps": list(matroid.caps),
        }
    if isinstance(matroid, MarkedMatroid):
        return {"type": "marked", "marked": names(matroid.marked)}
    if isinstance(matroid, TransversalMatroid):
        return {
            "type": "transversal",
            "slots": matroid.slots,
            "edges": {
                goods[g]: sorted(matroid.adjacency[g])
                for g in range(matroid.m)
                if matroid.adjacency[g]
            },
        }
    if isinstance(matroid, ExplicitMatroid):
        _check_key_names(goods, "cannot serialize explicit rank table")
        return {
            "type": "explicit",
            "rank": {
                ",".join(names(subset)): matroid.ranks[sum(1 << g for g in subset)]
                for size in range(matroid.m + 1)
                for subset in itertools.combinations(range(matroid.m), size)
            },
        }
    raise ValidationError(f"cannot serialize matroid {type(matroid).__name__}")


def emit_instance(instance: Instance) -> dict:
    data: dict = {
        "version": INSTANCE_VERSION,
        "goods": list(instance.goods),
        "agents": [
            {
                "name": instance.agent_names[i - 1],
                "matroid": emit_matroid(instance.valuation(i).matroid, instance.goods),
            }
            for i in instance.agents
        ],
    }
    if instance.scale != 1:
        data["a"] = instance.scale
        data["b"] = instance.scale * instance.c
    else:
        data["c"] = instance.c
    return data


def emit_allocation(
    instance: Instance,
    allocation: Allocation,
    decomposition: Decomposition | None = None,
    criterion: str | None = None,
    utilities: Iterable[int] | None = None,
) -> dict:
    """Allocation file contents; ``utilities``, when given, must be the bundles' values."""
    goods = instance.goods
    ordered = [sorted(bundle) for bundle in allocation.bundles]
    utilities = list(utility_vector(instance, allocation) if utilities is None else utilities)
    data: dict = {
        "version": ALLOCATION_VERSION,
        "unallocated": [goods[g] for g in ordered[0]],
        "bundles": [[goods[g] for g in bundle] for bundle in ordered[1:]],
        "utilities": utilities,
        "sorted_utilities": sorted(utilities),
        "scale": instance.scale,
    }
    if criterion is not None:
        data["criterion"] = criterion
    if decomposition is not None:
        for key, parts in (("clean", decomposition.clean),
                           ("supplementary", decomposition.supplementary)):
            data[key] = [[goods[g] for g in ordered[i] if g in parts[i]]
                         for i in instance.agents]
    return data


def parse_allocation(data: dict, instance: Instance) -> Allocation:
    """Read an allocation file back into bundles; informational fields ignored."""
    _require_keys(
        data,
        {
            "version", "unallocated", "bundles", "utilities",
            "sorted_utilities", "clean", "supplementary", "criterion", "scale",
        },
        {"version", "unallocated", "bundles"},
        "allocation",
    )
    if _typed(data["version"], int, "allocation", "version") != ALLOCATION_VERSION:
        raise ValidationError(f"unsupported allocation version {data['version']!r}")
    if len(_typed(data["bundles"], list, "allocation", "bundles")) != instance.n:
        raise ValidationError(
            f"allocation has {len(data['bundles'])} bundles for {instance.n} agents"
        )
    index = {name: g for g, name in enumerate(instance.goods)}
    bundles = [_good_indices(data["unallocated"], index, "unallocated")]
    for idx, bundle in enumerate(data["bundles"], start=1):
        bundles.append(_good_indices(bundle, index, f"bundle {idx}"))
    return Allocation.from_bundles(instance, bundles)


def _read_json(path: str | Path):
    """Decode a JSON file; one that cannot be read or decoded is bad input.

    ``ValueError`` covers text that is not UTF-8 or not JSON and integers
    past Python's digit limit; ``RecursionError`` covers nesting past the
    decoder's depth.
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except (OSError, ValueError, RecursionError) as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from None


_gc_lock = threading.Lock()
_gc_loads, _gc_was_enabled = 0, False  # loads under way; GC state before the first


def _without_gc(load):
    """``load()`` with cyclic GC paused: a load frees nothing, so each collection only
    rescans. GC is process-wide, so concurrent loads share one pause."""
    global _gc_loads, _gc_was_enabled
    with _gc_lock:
        if not _gc_loads:
            _gc_was_enabled = gc.isenabled()
            gc.disable()
        _gc_loads += 1
    try:
        return load()
    finally:
        with _gc_lock:
            _gc_loads -= 1
            if not _gc_loads and _gc_was_enabled:
                gc.enable()


def load_instance(path: str | Path) -> Instance:
    """Read and validate an instance file, with cyclic GC paused for the whole process."""
    return _without_gc(lambda: parse_instance(_read_json(path)))


def load_allocation(path: str | Path, instance: Instance) -> Allocation:
    """Read and validate an allocation file, with cyclic GC paused for the whole process."""
    return _without_gc(lambda: parse_allocation(_read_json(path), instance))


def dumps_canonical(data: dict) -> str:
    """Exactly ``json.dumps(data, indent=2, sort_keys=True) + "\\n"``, ASCII-escaped.

    Every JSON file bifair writes is these bytes. ``indent`` sends that call
    to its pure-Python encoder, so lists, tuples, ``str``-keyed dicts,
    strings and exact ints are written here; any other value (a float, bool,
    None, an empty container, or a dict with other keys) is written by the
    call itself. The pieces are joined once, so no level copies the text below it.
    """
    out: list[str] = []
    _canonical(data, "\n", out)
    out.append("\n")
    return "".join(out)


def _canonical(value, newline: str, out: list[str]) -> None:
    """Append ``value``'s text to ``out`` in pieces; ``newline`` breaks and indents its lines."""
    kind = value.__class__
    inner = newline + "  "
    if kind is str:
        out.append(quote(value))
    elif kind is int:
        out.append(str(value))
    elif (kind is list or kind is tuple) and value:
        kinds = set(map(type, value))
        if kinds == _STR:
            items = map(quote, value)
        elif kinds == _INT:
            items = map(str, value)
        elif kinds == _LIST and set(map(type, itertools.chain.from_iterable(value))) <= _STR:
            # Lists of good names (bundles, parts) take no call per list.
            deeper = inner + "  "
            sep = "," + deeper
            items = [f"[{deeper}{sep.join(map(quote, names))}{inner}]" if names else "[]"
                     for names in value]
        else:
            out.append("[")
            seps = itertools.chain((inner,), itertools.repeat("," + inner))
            for sep, item in zip(seps, value):
                out.append(sep)
                _canonical(item, inner, out)
            out += (newline, "]")
            return
        out += ("[", inner, ("," + inner).join(items), newline, "]")
    elif kind is dict and value and set(map(type, value)) <= _STR:
        out.append("{")
        seps = itertools.chain((inner,), itertools.repeat("," + inner))
        for sep, key in zip(seps, sorted(value)):
            out += (sep, quote(key), ": ")
            _canonical(value[key], inner, out)
        out += (newline, "}")
    else:
        out.append(json.dumps(value, indent=2, sort_keys=True).replace("\n", newline))


def _random_matroid(family: str, m: int, rng: random.Random) -> Matroid:
    if family == "marked":
        marked = frozenset(g for g in range(m) if rng.random() < 0.5)
        return MarkedMatroid(m, marked)
    if family == "uniform":
        return UniformMatroid(m, rng.randint(0, m))
    if family == "partition":
        part_count = rng.randint(1, max(1, m))
        # Group the goods by a drawn label; label part_count leaves them uncovered.
        members: list[list[int]] = [[] for _ in range(part_count + 1)]
        for g in range(m):
            members[rng.randint(0, part_count)].append(g)
        parts, caps = [], []
        for part in members[:-1]:
            if part:
                parts.append(frozenset(part))
                caps.append(rng.randint(0, len(part)))
        return PartitionMatroid(m, tuple(parts), tuple(caps))
    if family == "transversal":
        slots = rng.randint(1, max(1, m))
        adjacency = tuple(
            frozenset(s for s in range(slots) if rng.random() < 0.5)
            for _ in range(m)
        )
        return TransversalMatroid(m, slots, adjacency)
    raise ValidationError(
        f"unknown family {family!r}; pick one of {', '.join(GENERATOR_FAMILIES)}"
    )


def random_instance(
    family: str, n: int, m: int, c: int, seed: int | random.Random
) -> Instance:
    """Seed-deterministic random instance of one matroid family."""
    if n < 1 or m < 0:
        raise ValidationError(f"need n >= 1 agents and m >= 0 goods, got n={n}, m={m}")
    rng = seed if isinstance(seed, random.Random) else random.Random(seed)
    goods = tuple(f"g{g + 1}" for g in range(m))
    valuations = tuple(
        BivaluedValuation(c, _random_matroid(family, m, rng)) for _ in range(n)
    )
    return Instance(goods, c, valuations)
