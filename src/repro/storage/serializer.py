"""JSON serialization of values, schemas, relations and whole databases.

Encoding conventions (tagged objects, so plain values stay plain):

- ``{"$instant": "1982-12-15", "granularity": "day"}`` — finite instants;
  ``"$instant": "inf" / "-inf"`` for the unbounded endpoints;
- ``{"$period": [start, end]}`` — periods;
- *stamps* — the timestamps of Figure 8, a row's valid and transaction
  periods — are not values but chronons (§1): ``[start, end]`` as
  chronon integers, ``null`` for a −∞ start or a +∞ end, with the
  granularity's name appended unless it is day (``[s, e, "hour"]``).
  The clock position is a one-chronon stamp, ``[last]``.  An ``s1``
  result row's stamps are written the same way (:func:`period_stamp`).
  A value of an attribute keeps the tagged form, whatever its domain;
- schemas carry attribute name, domain descriptor and nullability, plus
  the key;
- domains serialize by descriptor: the built-ins by name, enumerations
  with their value lists, user-defined time with its display name and
  granularity.

``dump_database``/``load_database`` persist a whole database of any kind,
including rollback/temporal history, event-relation flags, the commit log
and the clock position, so a loaded database answers every query the
original did.  *Check constraints are not serialized* (they close over
arbitrary predicates); key constraints survive via the schema key.

Every stored row is written by one kernel (:func:`write_texts`), a
batch and a column at a time, into the text ``json.dumps`` writes of
the dump: a digest sorts and hashes these texts (:func:`canonical_dump`),
a checkpoint and a history file splice them in (:func:`_kept`,
:func:`spliced`), and a plain dump reads them back.  A store that keeps
transaction time is dumped whole, or — for a checkpoint, which writes
the immutable closed rows once, elsewhere — as its open partition only
(``dump_database(closed=False)``); :func:`restore_closed` puts the
closed rows back.  A load decodes a column at a time
(:func:`_decode_rows`), one period per distinct stamp, and builds no
date.

**Durability obligations.**  ``dump_database`` is the payload of every
checkpoint (:mod:`repro.storage.checkpoint`), so its completeness is
load-bearing for recovery: anything it dropped would silently vanish
across a checkpointed restart.  In particular the *clock position* must
round-trip — recovery replays the journal tail through the restored
clock, and a clock restored too early would stamp replayed commits onto
the wrong instants.  This module only produces and consumes JSON text;
*when* those bytes are durable is decided by :mod:`repro.storage.io`.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import operator
from json.encoder import encode_basestring
from typing import Any, Callable, Dict, Iterable, List, Mapping, Optional
from typing import Tuple as PyTuple

from repro.core import DATABASE_CLASSES, DatabaseKind
from repro.core.base import STORE_CLASSES
from repro.core.historical import HistoricalRelation, HistoricalRow
from repro.core.rollback import RollbackRelation, TransactionTimeRow
from repro.core.transaction_time import StateStore
from repro.core.temporal import BitemporalRow, TemporalRelation
from repro.errors import (ConstraintViolation, SchemaError, StorageError,
                          TimeError)
from repro.relational.domain import Domain
from repro.relational.relation import Relation
from repro.relational.schema import Attribute, Schema
from repro.relational.tuple import Tuple
from repro.time.chronon import Granularity
from repro.time.clock import SimulatedClock
from repro.time.instant import Instant, NEG_INF, POS_INF
from repro.time.period import Period

FORMAT_VERSION = 2

#: An unbounded start and end as a period's chronon numbers.
_NEG = -math.inf
_POS = math.inf
#: Granularities by name: the optional last item of a stamp.
_UNITS = {unit.value: unit for unit in Granularity}
#: The exact types a stamp's chronon may have (``bool`` and ``float``
#: compare equal to integers, and are refused).
_CHRONONS = frozenset({int, type(None)})

_BUILTIN_DOMAINS = {
    "string": Domain.STRING,
    "integer": Domain.INTEGER,
    "float": Domain.FLOAT,
    "boolean": Domain.BOOLEAN,
    "date": Domain.DATE,
    "any": Domain.ANY,
}


# ---------------------------------------------------------------------------
# Values
# ---------------------------------------------------------------------------

def encode_value(value: Any, memo: Optional[Dict[Instant, Any]] = None) -> Any:
    """Encode one value as JSON-compatible data.  A caller encoding many
    values passes one *memo*: each distinct instant is then formatted
    once, its occurrences sharing that (never mutated) encoding."""
    if value is None or isinstance(value, (str, int, float, bool)):
        return value
    if isinstance(value, Period):
        return {"$period": [encode_value(value.start, memo),
                            encode_value(value.end, memo)]}
    if not isinstance(value, Instant):
        raise StorageError(f"cannot serialize value {value!r}")
    if not value.is_finite:
        return {"$instant": "inf" if value.is_pos_inf else "-inf"}
    encoded = memo.get(value) if memo is not None else None
    if encoded is None:
        encoded = {"$instant": value.isoformat(),
                   "granularity": value.granularity.value}
        if memo is not None:
            memo[value] = encoded
    return encoded


#: What one load has decoded: instants by ``(literal, granularity)``,
#: periods by their stamp as a tuple (whose first item is never a str).
Memo = Dict[PyTuple[Any, ...], Any]


def decode_value(data: Any, memo: Optional[Memo] = None) -> Any:
    """Decode data produced by :func:`encode_value`.

    A caller decoding many values passes one *memo* for the whole load,
    and each distinct literal is parsed once.  (A row's stamps are not
    values: they are chronons, read by :func:`decode_stamp`.)
    """
    if not isinstance(data, dict):
        return data
    if "$instant" in data:
        literal = data["$instant"]
        if literal == "inf":
            return POS_INF
        if literal == "-inf":
            return NEG_INF
        unit = data.get("granularity", "day")
        found = memo.get((literal, unit)) if memo is not None else None
        if found is None:
            granularity = Granularity(unit)
            found = Instant.from_chronon(granularity.parse(literal),
                                         granularity)
            if memo is not None:
                memo[literal, unit] = found
        return found
    if "$period" in data:
        start, end = data["$period"]
        return Period(decode_value(start, memo), decode_value(end, memo))
    raise StorageError(f"unknown tagged value {data!r}")


def encode_stamp(*points: Instant) -> List[Any]:
    """A stamp: the chronons of *points* — a period's start and end, or
    the clock's one position — ``None`` for an infinity, then the
    granularity's name unless it is day."""
    unit = Granularity.DAY
    stamp: List[Any] = []
    for point in points:
        if point.is_finite:
            stamp.append(point.chronon)
            unit = point.granularity
        else:
            stamp.append(None)
    if unit is not Granularity.DAY:
        stamp.append(unit.value)
    return stamp


def _stamp_unit(stamp: Any, points: int) -> Granularity:
    """The granularity of *stamp*, a stamp of *points* chronons; anything
    else raises :class:`~repro.errors.StorageError`."""
    if (type(stamp) in (list, tuple) and points <= len(stamp) <= points + 1
            and _CHRONONS.issuperset(map(type, stamp[:points]))):
        if len(stamp) == points:
            return Granularity.DAY
        unit = stamp[points]
        if type(unit) is str and unit in _UNITS:
            return _UNITS[unit]
    raise StorageError(
        f"malformed stamp {stamp!r}: expected {points} integer chronon(s) "
        f"(null for an infinity), then optionally a granularity's name")


def decode_stamp(data: Any, memo: Optional[Memo] = None) -> Period:
    """The period a two-chronon stamp (:func:`encode_stamp`) names, built
    from its chronons (:meth:`~repro.time.period.Period.from_chronons`)
    once per distinct stamp per *memo*.  Anything else — a bool or float
    chronon, an unknown unit, a start not before its end — raises
    :class:`~repro.errors.StorageError`."""
    key = tuple(data) if type(data) is list else data
    try:
        found = memo.get(key) if memo is not None else None
    except TypeError:  # an unhashable item: no stamp
        found = None
    # A hit still checks the types: ``True`` and ``1.0`` hash as ``1``.
    if (found is None or type(key[0]) not in _CHRONONS
            or type(key[1]) not in _CHRONONS):
        found = _stamp_period(key, _stamp_unit(key, 2))
        if memo is not None:
            memo[key] = found
    return found


def _stamp_period(stamp: Any, unit: Granularity) -> Period:
    """``[start, end)`` from a stamp whose chronons' types are checked;
    an empty period raises :class:`~repro.errors.StorageError`."""
    start, end = stamp[0], stamp[1]
    try:
        return Period.from_chronons(_NEG if start is None else start,
                                    _POS if end is None else end, unit)
    except TimeError as exc:
        raise StorageError(f"stamp {list(stamp)!r}: {exc}") from exc


def _decode_clock(data: Any) -> Instant:
    """The clock position a one-chronon stamp names (never an infinity)."""
    unit = _stamp_unit(data, 1)
    if data[0] is None:
        raise StorageError(f"clock position {data!r} is not a chronon")
    return Instant.from_chronon(data[0], unit)


# ---------------------------------------------------------------------------
# Domains and schemas
# ---------------------------------------------------------------------------

def _domain_to_dict(domain: Domain) -> Dict[str, Any]:
    if domain.enum_values is not None:
        return {"kind": "enumeration", "name": domain.name,
                "values": list(domain.enum_values)}
    if domain.is_user_defined_time:
        return {"kind": "user_defined_time", "name": domain.name}
    for name, builtin in _BUILTIN_DOMAINS.items():
        if domain == builtin:
            return {"kind": "builtin", "name": name}
    raise StorageError(f"cannot serialize domain {domain!r}")


def _domain_from_dict(data: Dict[str, Any]) -> Domain:
    kind = data.get("kind")
    if kind == "builtin":
        try:
            return _BUILTIN_DOMAINS[data["name"]]
        except KeyError:
            raise StorageError(f"unknown builtin domain {data['name']!r}") from None
    if kind == "enumeration":
        return Domain.enumeration(data["name"], *data["values"])
    if kind == "user_defined_time":
        return Domain.user_defined_time(data["name"])
    raise StorageError(f"unknown domain descriptor {data!r}")


def schema_to_dict(schema: Schema) -> Dict[str, Any]:
    """Serialize a schema (attributes, domains, nullability, key)."""
    return {
        "attributes": [
            {"name": attribute.name,
             "domain": _domain_to_dict(attribute.domain),
             "nullable": attribute.nullable}
            for attribute in schema
        ],
        "key": list(schema.key),
    }


def schema_from_dict(data: Dict[str, Any]) -> Schema:
    """Deserialize a schema produced by :func:`schema_to_dict`."""
    attributes = [
        Attribute(item["name"], _domain_from_dict(item["domain"]),
                  nullable=item.get("nullable", False))
        for item in data["attributes"]
    ]
    return Schema(attributes, key=data.get("key") or None)


# ---------------------------------------------------------------------------
# Relations (all four storage shapes)
# ---------------------------------------------------------------------------

def period_stamp(period: Period) -> List[Any]:
    """*period*'s stamp (:func:`encode_stamp`), read off its chronons: the
    one stamp writer of ``s1`` result rows and of a stamp column that
    holds a unit other than day."""
    lo, hi, unit = period.lo, period.hi, period.unit
    stamp = [None if lo == _NEG else lo, None if hi == _POS else hi]
    if unit is not None and unit is not Granularity.DAY:
        stamp.append(unit.value)
    return stamp


#: JSON's ``(item, key)`` separators: a state digest hashes
#: ``json.dumps``'s own, and checkpoint and history files are compact.
SPACED, COMPACT = (", ", ": "), (",", ":")
#: A stamp end that is an infinity, as its text (a chronon stands as is).
_ENDS = {_NEG: "null", _POS: "null"}


class RowTexts(list):
    """A store's rows, each as its JSON text."""


def _texts(tuples: Any, stamps: Optional[List[Any]],
           encode: Callable[[Any], str], comma: str) -> RowTexts:
    """The row-text kernel: each of *tuples* (with *stamps*, a sequence of
    periods per stamp: ``[values, *stamps]``) as JSON text, a column at a
    time — ``str`` or ``int`` at C speed, else through *encode*; a stamp
    as its chronons (``null`` for an infinity), or :func:`period_stamp`
    for a column with a unit other than day — then one ``%`` a row."""
    columns: List[Any] = []
    for column in zip(*map(operator.attrgetter("values"), tuples)):
        kinds = set(map(type, column))
        columns.append(map(encode_basestring, column) if kinds == {str}
                       else column if kinds == {int}  # (``%s`` writes it)
                       else map(encode, column))
    template = "[" + comma.join(["%s"] * len(columns)) + "]"
    for periods in stamps or ():
        units = list(map(operator.attrgetter("unit"), periods))
        if units.count(Granularity.DAY) + units.count(None) < len(units):
            columns.append(map(encode, map(period_stamp, periods)))
            template += comma + "%s"
            continue
        for end in ("lo", "hi"):
            chronons = list(map(operator.attrgetter(end), periods))
            columns.append(map(_ENDS.get, chronons, chronons))
        template += comma + "[%s" + comma + "%s]"
    if stamps is not None:
        template = "[" + template + "]"
    return RowTexts(map(template.__mod__, zip(*columns)) if columns
                    else [template] * len(tuples))


def write_texts(items: Iterable[Any], field: str, memo: Dict[Instant, Any],
                separators: PyTuple[str, str]) -> RowTexts:
    """The one row writer: each of *items* — a store's ``rows`` or
    ``tuples`` — as ``json.dumps(..., sort_keys=True, ensure_ascii=False,
    separators=separators)`` writes it in a dump (:func:`_texts`; an
    instant encoded once per *memo*)."""
    items, comma = list(items), separators[0]
    encode = json.JSONEncoder(
        sort_keys=True, ensure_ascii=False, separators=separators,
        default=functools.partial(encode_value, memo=memo)).encode
    tuples, *stamps = zip(*items) if field == "rows" and items else [items]
    return _texts(tuples, stamps if field == "rows" else None, encode, comma)


def row_texts(rows: Iterable[Any], memo: Dict[Instant, Any]) -> RowTexts:
    """Each timestamped row's text as a state digest hashes it."""
    return write_texts(rows, "rows", memo, SPACED)


#: What a dump keeps of the rows it wrote: ``id(row) -> (row, text)``.
Texts = Dict[int, PyTuple[Any, str]]


def _kept(rows: Iterable[Any], field: str, known: Texts,
          kept: Texts) -> RowTexts:
    """*rows* as compact texts: the one *known* holds for the very row
    object (an immutable row, held by its entry, so its id is never
    reused), else written, with the other rows not known, in one
    :func:`write_texts`; *kept* gets every row's."""
    rows = list(rows)
    ids = list(map(id, rows))
    hits = list(map(known.get, ids))
    fresh = [row for row, hit in zip(rows, hits)
             if hit is None or hit[0] is not row]
    if fresh:
        written = dict(zip(map(id, fresh), zip(fresh, write_texts(
            fresh, field, {}, COMPACT))))
        hits = [written.get(key, hit) for key, hit in zip(ids, hits)]
    kept.update(zip(ids, hits))
    return RowTexts(map(operator.itemgetter(1), hits))


def spliced(value: Any, separators: PyTuple[str, str]) -> Iterable[str]:
    """*value* as ``json.dumps(value, sort_keys=True, ensure_ascii=False,
    separators=separators)`` writes it, in pieces, each
    :class:`RowTexts` spliced in as it stands (joined once, not copied at
    every level of nesting)."""
    comma, colon = separators
    if isinstance(value, RowTexts):
        yield "[" + comma.join(value) + "]"
    elif isinstance(value, dict):
        yield "{"
        for index, (key, item) in enumerate(sorted(value.items())):
            yield ((comma if index else "")
                   + json.dumps(key, ensure_ascii=False) + colon)
            yield from spliced(item, separators)
        yield "}"
    else:
        yield json.dumps(value, sort_keys=True, ensure_ascii=False,
                         separators=separators)


def _decode_rows(schema: Schema, data: Any, memo: Memo,
                 row_type: Any = None) -> List[Any]:
    """Stored tuples (or, given *row_type*, a dump's timestamped rows)
    back a column at a time: a value column is decoded only if it holds a
    tagged value, then checked against its attribute; a stamp column of
    plain ``[int | None, int | None]`` builds one period per distinct
    stamp per *memo*, any other goes through :func:`decode_stamp`."""
    stamps: List[Any] = []
    if row_type is not None:
        width = len(row_type._fields)
        if not (set(map(type, data)) <= {list}
                and set(map(len, data)) <= {width}):
            raise StorageError(f"a stored row is not a list of {width} items")
        data, *stamps = list(zip(*data)) or [()] * width
    attributes = schema._attributes
    if not set(map(type, data)) <= {list}:
        raise StorageError("a stored tuple's values are not a list")
    widths = set(map(len, data)) - {len(attributes)}
    if widths:
        raise SchemaError(
            f"expected {len(attributes)} values, got {min(widths)}")
    decode = functools.partial(decode_value, memo=memo)
    columns = [list(map(attribute.check, map(decode, column)
                        if dict in set(map(type, column)) else column))
               for attribute, column in zip(attributes, zip(*data))]
    rows = [list(map(Tuple.from_checked, itertools.repeat(schema),
                     zip(*columns)))]
    for column in stamps:
        if (set(map(type, column)) != {list} or set(map(len, column)) != {2}
                or not _CHRONONS.issuperset(map(
                    type, itertools.chain.from_iterable(column)))):
            rows.append([decode_stamp(stamp, memo) for stamp in column])
            continue
        keys = list(map(tuple, column))
        # Built in row order, not a set's: a scan of the rows (the first
        # read's tree build) then reads the periods in allocation order.
        for key in dict.fromkeys(keys):
            if key not in memo:
                memo[key] = _stamp_period(key, Granularity.DAY)
        rows.append(list(map(memo.__getitem__, keys)))
    # ``row_type._make`` without a Python frame per row.
    return rows[0] if row_type is None else list(map(
        tuple.__new__, itertools.repeat(row_type), zip(*rows)))


def store_to_dict(store: Any, closed: bool = True,
                  memo: Optional[Dict[Instant, Any]] = None,
                  texts: Optional[PyTuple[Texts, Texts]] = None
                  ) -> Dict[str, Any]:
    """Serialize a stored value by what it *is*, whichever database holds
    it (``closed=False``: a store keeping transaction time gives its open
    partition only); each row is its JSON text given a *memo* (as a digest
    hashes it) or *texts* (compact, and reused: :func:`_kept`)."""
    if isinstance(store, (TemporalRelation, RollbackRelation)):
        kind = "temporal" if isinstance(store, TemporalRelation) else "rollback"
        field, rows = "rows", store.rows if closed else store.open_rows()
    else:
        if isinstance(store, StateStore):
            store = store.current()  # a state without transaction time
        if isinstance(store, HistoricalRelation):
            kind, field, rows = "historical", "rows", store.rows
        elif isinstance(store, Relation):
            kind, field, rows = "static", "tuples", store
        else:
            raise StorageError(f"cannot dump store {store!r}")
    if texts is not None:
        rows = _kept(rows, field, *texts)
    elif memo is not None:  # a digest's, sorted as it hashes them
        rows = (row_texts(rows, memo) if field == "rows"
                else write_texts(rows, field, memo, SPACED))
        rows.sort()
    else:  # plain data: the texts read back
        rows = json.loads("[%s]" % ",".join(
            write_texts(rows, field, {}, COMPACT)))
    return {"kind": kind, "schema": schema_to_dict(store.schema), field: rows}


#: Dump ``kind`` of the three row-stamped shapes -> (store type, row type).
_ROW_SHAPES = {
    "historical": (HistoricalRelation, HistoricalRow),
    "rollback": (RollbackRelation, TransactionTimeRow),
    "temporal": (TemporalRelation, BitemporalRow),
}


def relation_from_dict(data: Dict[str, Any],
                       memo: Optional[Memo] = None):
    """Deserialize any store shape produced by :func:`store_to_dict`."""
    schema = schema_from_dict(data["schema"])
    kind = data.get("kind")
    memo = {} if memo is None else memo
    if kind == "static":
        return Relation(schema, _decode_rows(schema, data["tuples"], memo))
    if kind in _ROW_SHAPES:
        store_type, row_type = _ROW_SHAPES[kind]
        rows = _decode_rows(schema, data["rows"], memo, row_type)
        try:
            return store_type(schema, rows)
        except ConstraintViolation as exc:  # (an element open twice)
            raise StorageError(f"{kind} rows: {exc}") from exc
    raise StorageError(f"unknown relation kind {kind!r}")


# ---------------------------------------------------------------------------
# Whole databases
# ---------------------------------------------------------------------------

def _dump(database, closed: bool, memo: Optional[Dict[Instant, Any]] = None,
          texts: Optional[PyTuple[Texts, Texts]] = None) -> Dict[str, Any]:
    """A whole database's dump but the clock (see :func:`store_to_dict`)."""
    relations = {}
    for name in database.relation_names():
        relations[name] = entry = {
            "schema": schema_to_dict(database.schema(name)),
            "store": store_to_dict(database.store(name), closed, memo, texts)}
        if database.is_event_relation(name):
            entry["event"] = True
    return {"version": FORMAT_VERSION, "kind": database.kind.value,
            "relations": relations}


def dump_database(database, closed: bool = True,
                  texts: Optional[PyTuple[Texts, Texts]] = None
                  ) -> Dict[str, Any]:
    """Serialize a whole database (any kind) to plain data.

    Check constraints are not serialized; everything else — schemas, event
    flags, full stores including history, and the clock position — is.
    With ``closed=False`` a store that keeps transaction time contributes
    its open rows only: the dump is then O(current state), and is whole
    again once :func:`restore_closed` is given the rows left out.  Given
    *texts* ``(known, kept)`` — what the last such dump kept, and an empty
    dict — rows are compact JSON texts, reused from *known* for the very
    same (immutable) row objects; *kept* gets this dump's (:func:`_kept`).
    """
    data = _dump(database, closed, texts=texts)
    last = database.manager.clock.last
    data["clock_last"] = encode_stamp(last) if last is not None else None
    return data


def canonical_dump(database) -> Dict[str, Any]:
    """:func:`dump_database` as a state digest reads it: no clock, each
    store's rows their sorted texts, from a memo that dies with the call."""
    return _dump(database, True, memo={})


def restore_closed(data: Dict[str, Any],
                   closed: Mapping[str, List[List[Any]]]) -> None:
    """Put *closed* (relation name -> a dump's timestamped rows, in
    closing order) back in front of the open rows a
    ``dump_database(closed=False)`` kept, in place."""
    for name, rows in closed.items():
        store = data["relations"][name]["store"]
        store["rows"] = rows + store["rows"]


def load_database(data: Dict[str, Any], clock=None):
    """Reconstruct a database from :func:`dump_database` output.

    The returned database's clock resumes after the dumped position, so
    new commits keep strictly increasing transaction times.
    """
    if data.get("version") != FORMAT_VERSION:
        raise StorageError(
            f"unsupported dump version {data.get('version')!r}"
        )
    kind = data.get("kind")
    try:
        db_class = DATABASE_CLASSES[DatabaseKind(kind)]
    except ValueError:
        raise StorageError(f"unknown database kind {kind!r}") from None

    last = (_decode_clock(data["clock_last"])
            if data.get("clock_last") is not None else None)
    if clock is None:
        clock = SimulatedClock(last if last is not None else 1)

    database = db_class(clock=clock)

    # Rebuild private state directly; the dump is the source of truth.
    memo: Memo = {}
    for name, entry in data["relations"].items():
        schema = schema_from_dict(entry["schema"])
        database._schemas[name] = schema
        database._constraints[name] = []
        try:
            value = relation_from_dict(entry["store"], memo)
        except StorageError as exc:
            raise StorageError(f"relation {name!r}: {exc}") from exc
        # A state without transaction time goes back in its kind's store.
        database._store[name] = (
            value if isinstance(value, StateStore)
            else STORE_CLASSES[database.kind](schema, value))
        if entry.get("event"):
            database._event_relations.add(name)
    if last is not None:
        # Advance the transaction clock past the dumped position.
        database.manager.clock._last = last  # noqa: SLF001 - deliberate restore
    return database


def dumps_database(database, indent: Optional[int] = None) -> str:
    """:func:`dump_database` to a JSON string."""
    return json.dumps(dump_database(database), indent=indent,
                      ensure_ascii=False, sort_keys=True)


def loads_database(text: str, clock=None):
    """:func:`load_database` from a JSON string."""
    return load_database(json.loads(text), clock=clock)
