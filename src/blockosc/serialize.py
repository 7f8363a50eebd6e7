"""JSON parsers for every input type, and one encoder for reports.

Rationals travel as exact "p/q" strings (plain integers allowed on input),
never as floats.  Parsers track a JSON-pointer-ish path so schema errors
point at the offending field.
"""

from __future__ import annotations

import dataclasses
import json
from fractions import Fraction
from typing import Any

from .barriers import (
    Associated,
    BarrierDescriptor,
    Cube,
    Quotient,
    Restrict,
    Schreier,
    Sum,
)
from .blocks import Block, BlockFamily
from .errors import InvalidArgumentError, SchemaError
from .models import BarrierSequenceDescriptor
from .normspace import LpNorm, SupFamily, SupNorm, SupTerm, mn_norm_spec, \
    even_pair_fixture, section6_spec, NormSpec, Vector
from .oscillation import ToleranceSchedule
from .ramsey import Coloring, builtin_coloring
from .sets import Arithmetic, CofiniteAfter, FiniteSet, PrefixThen, SetGenerator

SCHEMA_VERSION = 1

# Parsing, and then walking, a descriptor or generator recurses once or more
# per level: one 600 levels deep exhausts Python's recursion limit, while no
# real input comes near 100 levels.
_MAX_NESTING = 100


class _at_path:
    """Reports a library error raised inside as a :class:`SchemaError` at
    ``path``; a SchemaError from a nested parser keeps its deeper path."""

    def __init__(self, path: str):
        self.path = path

    def __enter__(self) -> None:
        pass

    def __exit__(self, kind, exc, tb) -> None:
        if isinstance(exc, InvalidArgumentError) and not isinstance(exc, SchemaError):
            raise SchemaError(self.path, str(exc))


def _put(table: dict, key: Any, value: Any, path: str) -> None:
    """Enter one table entry; a key given twice is refused at its second path."""
    if key in table:
        raise SchemaError(path, f"{key} repeats an earlier entry")
    table[key] = value


# ---------------------------------------------------------------------------
# Scalars and small containers


def parse_rational(data: Any, path: str = "$") -> Fraction:
    if isinstance(data, bool):
        raise SchemaError(path, "expected a rational, got a boolean")
    if isinstance(data, int):
        return Fraction(data)
    if isinstance(data, str):
        try:
            return Fraction(data)
        except (ValueError, ZeroDivisionError):
            raise SchemaError(path, f"not a p/q rational: {data!r}")
    raise SchemaError(path, f"expected a rational, got {type(data).__name__}")


def parse_finite_set(data: Any, path: str = "$") -> FiniteSet:
    if not isinstance(data, list):
        raise SchemaError(path, "expected an array of integers")
    for i, x in enumerate(data):
        if isinstance(x, bool) or not isinstance(x, int):
            raise SchemaError(f"{path}[{i}]", "expected an integer")
    with _at_path(path):
        return FiniteSet(data)


def parse_placements(data: Any, path: str = "$") -> list[FiniteSet]:
    if not isinstance(data, list):
        raise SchemaError(path, "--placements expects an array of integer arrays")
    return [parse_finite_set(p, f"{path}[{i}]") for i, p in enumerate(data)]


def parse_block(data: Any, path: str = "$") -> Block:
    if not isinstance(data, list) or not data:
        raise SchemaError(path, "expected a nonempty array of integer arrays")
    parts = tuple(
        parse_finite_set(p, f"{path}[{i}]") for i, p in enumerate(data)
    )
    with _at_path(path):
        return Block(parts)


# ---------------------------------------------------------------------------
# Set generators


def _need_obj(data: Any, path: str, what: str) -> dict:
    if path.count(".") + path.count("[") > _MAX_NESTING:  # one .key or [i] per level
        raise SchemaError(path, f"nested more than {_MAX_NESTING} levels deep")
    if not isinstance(data, dict):
        raise SchemaError(path, f"expected a {what} object")
    return data


def _need_int(data: dict, key: str, path: str) -> int:
    if key not in data:
        raise SchemaError(f"{path}.{key}", "missing")
    v = data[key]
    if isinstance(v, bool) or not isinstance(v, int):
        raise SchemaError(f"{path}.{key}", "expected an integer")
    return v


def parse_generator(data: Any, path: str = "$") -> SetGenerator:
    obj = _need_obj(data, path, "generator")
    kind = obj.get("kind")
    with _at_path(path):
        if kind == "naturals":
            return CofiniteAfter(0)
        if kind == "cofinite-after":
            return CofiniteAfter(_need_int(obj, "n", path))
        if kind == "arithmetic":
            return Arithmetic(_need_int(obj, "start", path),
                              _need_int(obj, "step", path))
        if kind == "prefix-then":
            return PrefixThen(
                parse_finite_set(obj.get("prefix"), f"{path}.prefix"),
                parse_generator(obj.get("tail"), f"{path}.tail"),
            )
    raise SchemaError(f"{path}.kind", f"unknown generator kind {kind!r}")


# ---------------------------------------------------------------------------
# Barrier descriptors, families, sequences


def parse_barrier(data: Any, path: str = "$") -> BarrierDescriptor:
    obj = _need_obj(data, path, "barrier descriptor")
    t = obj.get("type")
    with _at_path(path):
        if t == "cube":
            return Cube(_need_int(obj, "k", path))
        if t == "schreier":
            return Schreier()
        if t == "restrict":
            return Restrict(parse_barrier(obj.get("base"), f"{path}.base"),
                            parse_generator(obj.get("to"), f"{path}.to"))
        if t == "quotient":
            return Quotient(parse_barrier(obj.get("base"), f"{path}.base"),
                            parse_finite_set(obj.get("s"), f"{path}.s"))
        if t == "sum":
            parts = obj.get("parts")
            if not isinstance(parts, list) or not parts:
                raise SchemaError(f"{path}.parts", "expected a nonempty array")
            return Sum(tuple(parse_barrier(p, f"{path}.parts[{i}]")
                             for i, p in enumerate(parts)))
        if t == "associated":
            return Associated(parse_barrier(obj.get("base"), f"{path}.base"))
    raise SchemaError(f"{path}.type", f"unknown barrier type {t!r}")


def parse_family(data: Any, path: str = "$") -> BlockFamily:
    if not isinstance(data, list) or not data:
        raise SchemaError(path, "expected a nonempty array of descriptors")
    parts = tuple(parse_barrier(p, f"{path}[{i}]") for i, p in enumerate(data))
    with _at_path(path):
        return BlockFamily(parts)


def parse_sequence(data: Any, path: str = "$") -> BarrierSequenceDescriptor:
    obj = _need_obj(data, path, "barrier sequence")
    prefix = obj.get("prefix", [])
    if not isinstance(prefix, list):
        raise SchemaError(f"{path}.prefix", "expected an array")
    parsed = tuple(parse_barrier(p, f"{path}.prefix[{i}]")
                   for i, p in enumerate(prefix))
    if "tail" not in obj:
        raise SchemaError(f"{path}.tail", "missing")
    tail = parse_barrier(obj["tail"], f"{path}.tail")
    with _at_path(path):
        return BarrierSequenceDescriptor(parsed, tail)


# ---------------------------------------------------------------------------
# Norm specs and vectors


def parse_spec(data: Any, path: str = "$") -> NormSpec:
    obj = _need_obj(data, path, "norm spec")
    t = obj.get("type")
    with _at_path(path):
        if t == "sup":
            return SupNorm()
        if t == "lp":
            return LpNorm(_need_int(obj, "p", path))
        if t == "mn":
            return mn_norm_spec(_need_int(obj, "m", path),
                                _need_int(obj, "n", path))
        if t == "section6":
            return section6_spec()
        if t == "even-pair":
            return even_pair_fixture()
        if t == "supfamily":
            raw = obj.get("terms")
            if not isinstance(raw, list) or not raw:
                raise SchemaError(f"{path}.terms", "expected a nonempty array")
            terms = []
            for i, entry in enumerate(raw):
                e = _need_obj(entry, f"{path}.terms[{i}]", "term")
                w = parse_rational(e.get("w"), f"{path}.terms[{i}].w")
                m = _need_int(e, "m", f"{path}.terms[{i}]")
                flt = e.get("filter")
                if flt is not None and not isinstance(flt, str):
                    raise SchemaError(f"{path}.terms[{i}].filter",
                                      "expected a string")
                terms.append(SupTerm(w, m, flt))
            return SupFamily(tuple(terms))
    raise SchemaError(f"{path}.type", f"unknown spec type {t!r}")


def parse_vector(data: Any, path: str = "$") -> Vector:
    if isinstance(data, dict):
        entries = {}
        for key, val in data.items():
            if not (key.isascii() and key.isdigit()):  # int() also reads "+3", "1_0", "٣"
                raise SchemaError(f"{path}.{key}", "keys must be integer indices")
            _put(entries, int(key), parse_rational(val, f"{path}.{key}"), f"{path}.{key}")
        with _at_path(path):
            return Vector(entries)
    if isinstance(data, list):
        # Either [[index, value], ...] or a dense [value, ...] from slot 1.
        pairs = data and all(
            isinstance(e, list) and len(e) == 2 and isinstance(e[0], int)
            and not isinstance(e[0], bool) for e in data
        )
        entries = {}
        if pairs:
            for i, (idx, val) in enumerate(data):
                _put(entries, idx, parse_rational(val, f"{path}[{i}][1]"), f"{path}[{i}][0]")
        else:
            for i, val in enumerate(data):
                entries[i + 1] = parse_rational(val, f"{path}[{i}]")
        with _at_path(path):
            return Vector(entries)
    raise SchemaError(path, "expected a vector object or array")


def parse_coeffs(data: Any, path: str = "$") -> tuple[Fraction, ...]:
    if not isinstance(data, list) or not data:
        raise SchemaError(path, "expected a nonempty array of rationals")
    return tuple(parse_rational(x, f"{path}[{i}]") for i, x in enumerate(data))


# ---------------------------------------------------------------------------
# Colorings, values tables, schedules


def _writable(color: Any, path: str) -> None:
    """Refuse a colour no report could encode: one holding a lone surrogate."""
    try:
        json.dumps(color, ensure_ascii=False).encode("utf-8")
    except UnicodeEncodeError:
        raise SchemaError(path, "a colour must not hold a lone surrogate")


def parse_coloring(data: Any, path: str = "$") -> Coloring:
    if isinstance(data, str):
        _writable(data, path)
        with _at_path(path):
            return builtin_coloring(data)
    if isinstance(data, list):
        table: dict = {}
        for i, entry in enumerate(data):
            e = _need_obj(entry, f"{path}[{i}]", "coloring entry")
            if "object" not in e or "color" not in e:
                raise SchemaError(f"{path}[{i}]", "needs object and color")
            raw = e["object"]
            if isinstance(raw, list) and raw and isinstance(raw[0], list):
                key: object = parse_block(raw, f"{path}[{i}].object")
            else:
                key = parse_finite_set(raw, f"{path}[{i}].object")
            _put(table, key, e["color"], f"{path}[{i}].object")
            _writable(e["color"], f"{path}[{i}].color")
        return Coloring.from_table(table)
    obj = _need_obj(data, path, "coloring")
    kind = obj.get("kind")
    if kind == "rule":
        name = obj.get("name")
        if not isinstance(name, str):
            raise SchemaError(f"{path}.name", "expected a rule name")
        return parse_coloring(name, f"{path}.name")
    if kind == "table":
        return parse_coloring(obj.get("entries"), f"{path}.entries")
    raise SchemaError(f"{path}.kind", f"unknown coloring kind {kind!r}")


def parse_values_table(data: Any, path: str = "$") -> dict[Block, Fraction]:
    if not isinstance(data, list):
        raise SchemaError(path, "expected an array of {block, value} entries")
    out: dict[Block, Fraction] = {}
    for i, entry in enumerate(data):
        e = _need_obj(entry, f"{path}[{i}]", "values entry")
        if "block" not in e or "value" not in e:
            raise SchemaError(f"{path}[{i}]", "needs block and value")
        b = parse_block(e["block"], f"{path}[{i}].block")
        _put(out, b, parse_rational(e["value"], f"{path}[{i}].value"), f"{path}[{i}].block")
    return out


def parse_schedule(data: Any, path: str = "$") -> ToleranceSchedule:
    obj = _need_obj(data, path, "schedule")
    kind = obj.get("kind", "geometric")
    if kind != "geometric":
        raise SchemaError(f"{path}.kind", f"unknown schedule kind {kind!r}")
    with _at_path(path):
        return ToleranceSchedule(
            parse_rational(obj.get("ratio", "1/2"), f"{path}.ratio"),
            parse_rational(obj.get("scale", 1), f"{path}.scale"),
        )


# ---------------------------------------------------------------------------
# Output helpers


def to_json(value: Any) -> Any:
    """The JSON form of a library result, field names as keys.

    A rational becomes its exact "p/q" string, a set its sorted array of
    elements and a block its array of parts; tuples and lists become arrays;
    a dataclass becomes an object of its fields plus each property its class
    defines (``vacuous``, ``holds``, ``all_pass``, ...).  Anything else (ints,
    bools, strings, None, JSON colours) passes through.  Inputs have parsers
    above but no encoder: no report carries one.
    """
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, FiniteSet):
        return list(value.elements)
    if isinstance(value, Block):
        return [list(p.elements) for p in value.parts]
    if isinstance(value, (tuple, list)):
        return [to_json(x) for x in value]
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        names = [f.name for f in dataclasses.fields(value)]
        names += [n for n, a in vars(type(value)).items() if isinstance(a, property)]
        return {n: to_json(getattr(value, n)) for n in names}
    return value


def dumps(payload: dict) -> str:
    """Canonical bytes for reports: sorted keys, two-space indent."""
    return json.dumps(payload, indent=2, sort_keys=True, ensure_ascii=False) + "\n"
