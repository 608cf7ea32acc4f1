"""One field table per document stanza, and one walker that checks them.

Each stanza is a :class:`Table` of :class:`Field` records (name, kind,
range or choices, default, one-line doc); :func:`check` returns every
problem of a document as a ``"path: message"`` string.  Dataclasses a
document sets carry their ranges as field metadata (:func:`described`),
read both by their constructors (:func:`range_problems`) and by
:func:`fields_table`: a document check and a constructor check are one rule.
"""

from __future__ import annotations

import dataclasses
import functools
import json
from collections.abc import Mapping
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, \
    Tuple

from repro.core.errors import SpecValidationError
from repro.core.units import ms, ns, us

__all__ = [
    "ANY", "BOOL", "INT", "NAME", "NUMBER", "STR", "Field", "Kind", "ListOf",
    "Obj", "Range", "Table", "Tagged", "Time", "check", "described",
    "fields_table", "kind_of", "load_json", "range_problems", "suggest",
]


def suggest(key: Any, candidates) -> str:
    """``" (did you mean 'x'?)"`` for the nearest candidate, else ``""``."""
    import difflib  # only a refused key pays for it

    matches = difflib.get_close_matches(str(key), sorted(map(str, candidates)),
                                        n=1)
    return f" (did you mean {matches[0]!r}?)" if matches else ""


def _join(path: str, key: Any) -> str:
    return f"{path}.{key}" if path else str(key)


_ABSENT = object()


def _is_object(value: Any) -> bool:
    return type(value) is dict or isinstance(value, Mapping)


@dataclasses.dataclass(frozen=True)
class Range:
    """``lo <= value <= hi`` (``lo < value`` if *lo_open*); ``None`` is
    unbounded."""

    lo: Optional[float] = None
    hi: Optional[float] = None
    lo_open: bool = False

    def problem(self, value) -> Optional[str]:
        if self.lo is not None and (
            value <= self.lo if self.lo_open else value < self.lo
        ) or self.hi is not None and value > self.hi:
            return f"must be {self}, got {value!r}"
        return None

    def __str__(self) -> str:
        if self.hi is None:
            return "positive" if self.lo_open and self.lo == 0 else \
                f"{'>' if self.lo_open else '>='} {self.lo}"
        return f"in {'(' if self.lo_open else '['}{self.lo}, {self.hi}]"


POSITIVE, NON_NEGATIVE, FRACTION = Range(0, lo_open=True), Range(0), \
    Range(0, 1)


def described(default: Any, bounds: Optional[Range] = None, doc: str = "",
              choices: Optional[tuple] = None) -> Any:
    """A dataclass field carrying its range or choices and doc as metadata."""
    return dataclasses.field(default=default, metadata={
        "range": bounds, "doc": doc, "choices": choices})


@functools.lru_cache(maxsize=None)
def _ranged_fields(cls) -> Tuple[Tuple[str, Range, tuple], ...]:
    return tuple((f.name, f.metadata["range"], f.metadata["choices"])
                 for f in dataclasses.fields(cls)
                 if f.metadata.get("range") or f.metadata.get("choices"))


def range_problems(instance) -> Iterator[str]:
    """``"name must be ..., got v"`` for each set field out of its range
    or choices."""
    for name, bounds, choices in _ranged_fields(type(instance)):
        value = getattr(instance, name)
        problem = f"must be one of {list(choices)}, got {value!r}" \
            if choices and value not in choices \
            else value is not None and bounds and bounds.problem(value)
        if problem:
            yield f"{name} {problem}"


class Kind:
    """What a value must be.  A mismatch names the value's type when
    *typed*; *container* kinds (objects, lists) recurse in :meth:`walk`."""

    container = time = False

    def __init__(self, label: str, accepts: Callable[[Any], bool],
                 typed: bool = True):
        self.label, self.accepts, self.typed = label, accepts, typed

    def walk(self, value: Any, path: str, terse: bool) -> List[str]:
        return []


INT = Kind("an integer", lambda v: type(v) is int)
NUMBER = Kind("a number", lambda v: type(v) in (int, float))
BOOL = Kind("a boolean", lambda v: type(v) is bool)
STR = Kind("a string", lambda v: isinstance(v, str))
NAME = Kind("a non-empty string", lambda v: isinstance(v, str) and v != "")
ANY = Kind("any value", lambda v: True)


def kind_of(default: Any) -> Kind:
    """The JSON kind of a default value (a tuple: a list of integers)."""
    if isinstance(default, tuple):
        return Kind(f"a list of {len(default)} integers", typed=False,
                    accepts=lambda v: isinstance(v, (list, tuple))
                    and len(v) == len(default)
                    and all(type(item) is int for item in v))
    for python_type, kind in ((bool, BOOL), (int, INT), (float, NUMBER),
                              (str, STR)):
        if isinstance(default, python_type):
            return kind
    return ANY


class Obj(Kind):
    """An object checked against *table*, or whose free keys (each of kind
    *key*) map to *values*, or else any object; the literals in *also*
    (``None`` for an optional stanza) pass as is."""

    container = True

    def __init__(self, table: Optional[Table] = None, also: tuple = (),
                 values: Optional[Field] = None, key: Kind = STR):
        super().__init__("an object", lambda v: _is_object(v)
                         or any(v is a or v == a for a in also))
        self.table, self.also, self.values, self.key = table, also, values, key

    def walk(self, value, path, terse):
        if not _is_object(value):
            return []
        if self.table is not None:
            return check(self.table, value, path)
        return [problem for key, item in value.items() if self.values
                for problem in (_value_problems(
                    self.values, item, _join(path, key), terse
                ) if self.key.accepts(key) else [
                    f"{_join(path, key)}: expected {self.key.label} as key"
                ])]


class Tagged(Kind):
    """An object whose *tag* key selects one of *tables*."""

    container = True

    def __init__(self, tag: str, tables: Mapping[str, Table]):
        super().__init__("an object", _is_object)
        self.tag = Field(tag, ANY, "selects the table", required=True,
                         choices=tuple(sorted(tables)))
        plain = dataclasses.replace(self.tag, choices=None)
        self.tables = {name: dataclasses.replace(
            table, fields=(plain, *table.fields)
        ) for name, table in tables.items()}

    def walk(self, value, path, terse):
        tag = value.get(self.tag.name)
        if type(tag) is str and tag in self.tables:
            return check(self.tables[tag], value, path)
        return _value_problems(self.tag, tag, _join(path, self.tag.name),
                               terse)


class ListOf(Kind):
    """A list of *item* values (anything when ``None``); a field's bounds
    apply to its length."""

    container = True

    def __init__(self, item: Optional[Field] = None):
        super().__init__("a list", lambda v: isinstance(v, (list, tuple)))
        self.item = item

    def walk(self, value, path, terse):
        return [problem for i, item in enumerate(value) if self.item
                for problem in _value_problems(self.item, item,
                                               f"{path}[{i}]", terse)]


_TO_NS = {"ns": ns, "us": us, "ms": ms}


class Time(Kind):
    """A time under one of the exclusive keys ``<name>_<unit>``: never
    negative, whole nanoseconds, and never zero when *positive*."""

    time = True

    def __init__(self, units: Sequence[str] = ("us", "ns"),
                 positive: bool = False):
        super().__init__("a number", NUMBER.accepts)
        self.units, self.positive = tuple(units), positive

    def field_problems(self, f: Field, data: Mapping, path: str
                       ) -> List[str]:
        keys = f.keys
        given = tuple(filter(data.__contains__, keys))
        if len(given) > 1:
            return [f"{path}: give either {given[0]!r} or {given[1]!r}, "
                    f"not both"]
        if not given:
            return [f"{_join(path, f.name)}: required ({' or '.join(keys)})"
                    ] if f.required else []
        key = given[0]
        where, value = f"{path}.{key}" if path else key, data[key]
        if not NUMBER.accepts(value):
            return [f"{where}: expected a number, got "
                    f"{type(value).__name__} {value!r}"]
        if value < 0:
            return [f"{where}: {NON_NEGATIVE.problem(value)}"]
        try:
            value_ns = _TO_NS[key.rpartition("_")[2]](value)
        except ValueError:
            return [f"{where}: {value!r} is not a whole number of "
                    f"nanoseconds"]
        if self.positive and value_ns == 0:
            # a pair of keys is one quantity: named at its object
            return [f"{path if len(keys) > 1 else where}: {f.name} must be "
                    f"positive"]
        return []

    def ns(self, name: str, data: Mapping) -> Optional[int]:
        """The checked time in *data* as integer ns (``None`` if absent)."""
        for unit in self.units:
            if f"{name}_{unit}" in data:
                return _TO_NS[unit](data[f"{name}_{unit}"])
        return None


@dataclasses.dataclass(frozen=True)
class Field:
    """One key.  *choices* may be a callable (read at check time).  The
    format strings *message* (a choice, range or length rejection) and
    *mismatch* (a kind mismatch, a missing required key) word a problem."""

    name: str
    kind: Kind
    doc: str = ""
    default: Any = None
    required: bool = False
    bounds: Optional[Range] = None
    choices: Any = None
    message: Optional[str] = None
    mismatch: Optional[str] = None

    @functools.cached_property
    def keys(self) -> Tuple[str, ...]:
        """The document keys: ``<name>_<unit>`` for a time."""
        units = self.kind.units if self.kind.time else ()
        return tuple(f"{self.name}_{unit}" for unit in units) or (self.name,)


@dataclasses.dataclass(frozen=True)
class Table:
    """One stanza.  *unknown* words an undeclared key (``{hint}``: the
    nearest key); *retired* words removed keys.  *terse* is the ``sched`` /
    ``faults`` wording: a mismatch shows the value (a container's type), a
    required scalar says so, and a required ``null`` reads as missing.
    *rules* (``(data, path) -> problems``) run once every field is well
    formed."""

    fields: Tuple[Field, ...]
    unknown: str = "unknown key{hint}"
    retired: Mapping[str, str] = dataclasses.field(default_factory=dict)
    terse: bool = False
    rules: Tuple[Callable[[Mapping, str], List[str]], ...] = ()

    @functools.cached_property
    def index(self) -> Dict[str, int]:
        """Each document key -> the position of its field."""
        return {key: i for i, f in enumerate(self.fields) for key in f.keys}

    @functools.cached_property
    def required(self) -> frozenset:
        return frozenset(i for i, f in enumerate(self.fields) if f.required)


def check(table: Table, data: Any, path: str = "") -> List[str]:
    """Every problem *data* has against *table*, as ``"path: message"``."""
    if not _is_object(data):
        return [f"{path or '$'}: expected an object, "
                f"got {type(data).__name__}"]
    index, terse = table.index, table.terse
    present = set(map(index.get, data))
    present.discard(None)
    unknown = set(data).difference(index)
    problems = [f"{_join(path, key)}: " + table.retired.get(
        key, table.unknown.format(hint=suggest(key, index))
    ) for key in sorted(unknown)] if unknown else []
    for position in sorted(present.union(table.required)):
        f = table.fields[position]
        value = data.get(f.name, _ABSENT)
        where = f"{path}.{f.name}" if path else f.name
        if f.kind.time:
            problems += f.kind.field_problems(f, data, path)
        elif value is not _ABSENT and not (terse and f.required
                                           and value is None):
            problems += _value_problems(f, value, where, terse)
        else:    # a required key is missing (or, terse, null)
            problems.append(f"{where}: " + (
                _mismatch(f, None, terse)
                if f.mismatch or terse and not f.kind.container
                else "required key is missing"
            ))
    if not problems:
        for rule in table.rules:
            problems += rule(data, path)
    return problems


def load_json(text: str, what: str) -> Any:
    """*text* decoded; malformed JSON raises
    :class:`~repro.core.errors.SpecValidationError` for *what* with one
    ``$:`` problem giving the decoder's message, line and column."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise SpecValidationError(what, [
            f"$: invalid JSON: {exc.msg} (line {exc.lineno}, column "
            f"{exc.colno})"]) from None


def _format(template: str, value: Any, choices=()) -> str:
    return template.format(value=value, choices=list(choices),
                           hint=suggest(value, choices))


def _mismatch(f: Field, value: Any, terse: bool) -> str:
    if f.mismatch:
        return _format(f.mismatch, value)
    kind = f.kind
    if isinstance(kind, Obj) and kind.table is not None:
        terse = kind.table.terse    # a stanza words its own mismatch
    if terse and kind.container:
        got = type(value).__name__
    elif terse or not kind.typed:
        got = repr(value)
    else:
        got = f"{type(value).__name__} {value!r}"
    required = "required, " if terse and f.required and not kind.container \
        else ""
    return f"{required}expected {kind.label}, got {got}"


def _value_problems(f: Field, value: Any, path: str, terse: bool
                    ) -> List[str]:
    kind = f.kind
    if not kind.accepts(value):
        return [f"{path}: {_mismatch(f, value, terse)}"]
    if f.choices is not None:
        choices = f.choices() if callable(f.choices) else f.choices
        if value not in choices or \
                type(choices[choices.index(value)]) is not type(value):
            return [f"{path}: " + _format(
                f.message or "expected one of {choices}, got {value!r}{hint}",
                value, choices,
            )]
    if f.bounds is not None:
        measure = len(value) if isinstance(value, (list, tuple)) else value
        problem = type(measure) in (int, float) and f.bounds.problem(measure)
        if problem:
            return [f"{path}: " + (_format(f.message, value) if f.message
                                   else problem)]
    return kind.walk(value, path, terse) if kind.container else []


def fields_table(cls, exclude: Sequence[str] = (), **options) -> Table:
    """A table of dataclass *cls*'s fields: kinds from their defaults,
    ranges and docs from their metadata (a dataclass default factory
    becomes a nested object)."""
    table_fields = []
    for f in dataclasses.fields(cls):
        nested = dataclasses.is_dataclass(f.default_factory)
        if f.name not in exclude:
            table_fields.append(Field(
                f.name, Obj(fields_table(f.default_factory)) if nested
                else kind_of(f.default), f.metadata.get("doc", ""),
                None if nested else f.default,
                bounds=f.metadata.get("range"),
                choices=f.metadata.get("choices"),
            ))
    return Table(tuple(table_fields), **options)
