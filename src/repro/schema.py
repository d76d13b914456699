"""One checker for every result document ``repro`` writes.

Each document declares its fields once, in a field table beside its
emitter (:mod:`repro.cluster.result`, :mod:`repro.telemetry.series`,
:mod:`repro.trace.export`); :func:`check` walks a parsed JSON value
against it and returns the problems, never raising, whatever the value.

A kind is ``int``, ``float`` (any finite number: int or float, never a
bool — non-finite rates are serialised as null), ``str``, ``bool``,
``object`` (anything), ``[kind]`` (a list), a tuple of constants (one of
them, of the same type: ``True`` is not ``1``), or a class below.
A :class:`Table` is *closed*: an undeclared key is a problem, so a key
an emitter adds without declaring it fails validation, and a declared
key it stops emitting is reported missing.  A table's ``rule`` checks
what no single field can (ledgers, orderings); it runs only on an object
whose fields all checked clean, so it may index them freely.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Tuple

_NOUNS = {int: "an integer", float: "a finite number", str: "a string",
          bool: "a bool"}


@dataclass(frozen=True)
class Table:
    """A closed object: ``fields`` maps each key to the kind of its value;
    ``rule(obj, where)`` yields the problems no single field shows."""

    fields: Dict[str, object]
    rule: Optional[Callable[[Dict, str], Iterable[str]]] = None


@dataclass(frozen=True)
class Map:
    """An object whose keys are data; every value is of ``kind``."""

    kind: object = object


@dataclass(frozen=True)
class Tagged:
    """An object checked against the table its ``tag`` field selects."""

    tag: str
    tables: Dict[str, Table]


@dataclass(frozen=True)
class Opt:
    """A table field whose key may be absent."""

    kind: object


@dataclass(frozen=True)
class OrNull:
    """A value that may be null."""

    kind: object


def _scalar_ok(value, kind) -> bool:
    if kind is float:
        return type(value) is int or (type(value) is float
                                      and math.isfinite(value))
    return kind is object or type(value) is kind


def check(value, kind, where: str = "") -> List[str]:
    """The problems of ``value`` against ``kind`` (empty = valid)."""
    at = where or "document"
    if type(kind) is type:   # int, float, str, bool, object
        ok = _scalar_ok(value, kind)
        return [] if ok else [f"{at} must be {_NOUNS[kind]}"]
    if isinstance(kind, OrNull):
        return [] if value is None else check(value, kind.kind, where)
    if isinstance(kind, tuple):
        if any(type(v) is type(value) and v == value for v in kind):
            return []
        return [f"{at} must be {' or '.join(map(repr, kind))}"]
    if isinstance(kind, list):
        if not isinstance(value, list):
            return [f"{at} must be a list"]
        return [p for i, item in enumerate(value)
                for p in check(item, kind[0], f"{where}[{i}]")]
    if isinstance(kind, (Table, Map, Tagged)) and not isinstance(value, dict):
        return [f"{at} is not an object"]
    if isinstance(kind, Map):
        return [p for key, item in value.items()
                for p in check(item, kind.kind, f"{where}[{key!r}]")]
    if isinstance(kind, Tagged):
        tag = value.get(kind.tag)
        if type(tag) is str and tag in kind.tables:
            return check(value, kind.tables[tag], where)
        if kind.tag not in value:
            return [f"{at} missing {kind.tag!r}"]
        return check(tag, tuple(kind.tables), f"{where}.{kind.tag}")
    out: List[str] = []   # kind is a Table
    for name, sub in kind.fields.items():
        if name in value:
            sub = sub.kind if isinstance(sub, Opt) else sub
            if type(sub) is not type or not _scalar_ok(value[name], sub):
                out += check(value[name], sub,
                             f"{where}.{name}" if where else name)
        elif not isinstance(sub, Opt):
            out.append(f"{at} missing {name!r}")
    out += [f"{at} has undeclared key {key!r}"
            for key in value if key not in kind.fields]
    if not out and kind.rule is not None:
        out += kind.rule(value, at)
    return out


def parse_lines(lines) -> Tuple[List[Tuple[int, object]], List[str]]:
    """``(line number, record)`` per JSONL line and one problem per line
    that is not JSON; items that are not strings are already records."""
    records: List[Tuple[int, object]] = []
    problems: List[str] = []
    for n, item in enumerate(lines, start=1):
        if isinstance(item, str):
            try:
                item = json.loads(item)
            except ValueError:
                problems.append(f"line {n} is not valid JSON")
                continue
        records.append((n, item))
    return records, problems


def outage_window(rec: Dict, where: str) -> Iterable[str]:
    """The rule of both documents' outage windows."""
    if rec["t_up_ns"] < rec["t_down_ns"]:
        yield f"{where}: t_up_ns precedes t_down_ns"
