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

Every timestamped row goes through one codec (:func:`encode_rows`).  A
store that keeps transaction time is dumped whole, or — for a checkpoint,
which writes the immutable closed rows once, elsewhere — as its open
partition only (``dump_database(closed=False)``); :func:`restore_closed`
puts the closed rows back, giving the whole dump again.  A digest and a
checkpoint read the dump as text (:func:`canonical_dump`, :func:`_kept`,
:func:`spliced`), each row written once through the same encode_value,
each stamp straight from its period's chronons.  A load decodes a column
at a time (:func:`_decode_rows`), one period per distinct stamp, so the
valid period many rows share is one object, and it builds no date.

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
from json.encoder import c_make_encoder, encode_basestring
from typing import Any, Callable, Dict, Iterable, List, Mapping, Optional
from typing import Tuple as PyTuple

from repro.core.historical import (HistoricalDatabase, HistoricalRelation,
                                   HistoricalRow, HistoricalStore)
from repro.core.rollback import (INTERVAL, RollbackDatabase,
                                 RollbackRelation, StateSequence,
                                 TransactionTimeRow)
from repro.core.static import StaticDatabase, StaticStore
from repro.core.transaction_time import StateStore
from repro.core.temporal import BitemporalRow, TemporalDatabase, TemporalRelation
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

def _encode_tuples(tuples: Iterable[Tuple]) -> List[List[Any]]:
    return [[encode_value(value) for value in row.values] for row in tuples]


def _encode_states(states: Iterable[Any]) -> List[List[Any]]:
    return [[encode_value(time), _encode_tuples(state)]
            for time, state in states]


def encode_rows(rows: Iterable[Any]) -> List[List[Any]]:
    """The one codec of timestamped rows: ``[values, *stamps]`` each — a
    historical row's valid period, a rollback row's transaction period, a
    bitemporal row's both.  Each distinct instant of a value is formatted
    once; a stamp is the period's chronons (:func:`encode_stamp`)."""
    encode = functools.partial(encode_value, memo={})
    return [[list(map(encode, row[0].values)), *map(period_stamp, row[1:])]
            for row in rows]


def period_stamp(period: Period) -> List[Any]:
    """*period*'s stamp (:func:`encode_stamp`), read off its chronons: the
    one stamp writer of checkpoints and of ``s1`` result rows."""
    lo, hi, unit = period.lo, period.hi, period.unit
    stamp = [None if lo == _NEG else lo, None if hi == _POS else hi]
    if unit is not None and unit is not Granularity.DAY:
        stamp.append(unit.value)
    return stamp


#: JSON's ``(item, key)`` separators: a state digest hashes
#: ``json.dumps``'s own, and checkpoint files are compact.
SPACED, COMPACT = (", ", ": "), (",", ":")


class RowTexts(list):
    """A store's rows, each as its JSON text."""


#: Items laid out for :func:`_writer`: a timestamped row as encode_rows
#: writes it, a static store's tuple, a state sequence's ``(time, state)``.
_SHAPES = {
    encode_rows: lambda row: [row[0].values, *map(period_stamp, row[1:])],
    _encode_tuples: operator.attrgetter("values"),
    _encode_states: lambda pair: [pair[0], [row.values for row in pair[1]]]}


def _writer(memo: Dict[Instant, Any], shape: Callable[[Any], Any],
            separators: PyTuple[str, str] = SPACED) -> Callable[[Any], str]:
    """One stored item, as *shape* lays it out, as ``json.dumps(...,
    sort_keys=True, ensure_ascii=False, separators=separators)`` writes it
    (instants through *memo*), with a C encoder built once, not per call."""
    default = functools.partial(encode_value, memo=memo)
    if c_make_encoder is None:
        text = json.JSONEncoder(sort_keys=True, ensure_ascii=False,
                                check_circular=False, default=default,
                                separators=separators).encode
        return lambda item: text(shape(item))
    write = c_make_encoder(None, default, encode_basestring, None,
                           separators[1], separators[0], True, False, True)
    return lambda item: "".join(write(shape(item), 0))


def row_texts(rows: Iterable[Any], memo: Dict[Instant, Any]) -> RowTexts:
    """Each timestamped row's text as a state digest hashes it."""
    return RowTexts(map(_writer(memo, _SHAPES[encode_rows]), rows))


#: What a dump keeps of the rows it wrote: ``id(row) -> (row, text)``.
Texts = Dict[int, PyTuple[Any, str]]


def _kept(rows: Iterable[Any], write: Callable[[Any], str], known: Texts,
          kept: Texts) -> RowTexts:
    """*rows* as texts: the one *known* holds for the very row object (an
    immutable row, held by its entry, so its id is never reused), else
    what *write* makes of it; *kept* gets every row's."""
    texts = RowTexts()
    for row in rows:
        hit = known.get(id(row))
        if hit is None or hit[0] is not row:
            hit = row, write(row)
        kept[id(row)] = hit
        texts.append(hit[1])
    return texts


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
    """Stored tuples (or, given *row_type*, :func:`encode_rows` output)
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
        rows = store.rows if closed else store.open_rows()
        field, plain = "rows", encode_rows
    elif isinstance(store, StateSequence):
        kind, field, rows = "states", "states", store.states
        plain = _encode_states
    else:
        if isinstance(store, StateStore):
            store = store.current()  # a state without transaction time
        if isinstance(store, HistoricalRelation):
            kind, field, rows = "historical", "rows", store.rows
            plain = encode_rows
        elif isinstance(store, Relation):
            kind, field, rows, plain = "static", "tuples", store, _encode_tuples
        else:
            raise StorageError(f"cannot dump store {store!r}")
    if texts is not None:
        rows = _kept(rows, _writer({}, _SHAPES[plain], COMPACT), *texts)
    elif memo is not None:  # a digest's, sorted as it hashes them
        rows = (row_texts(rows, memo) if plain is encode_rows
                else RowTexts(map(_writer(memo, _SHAPES[plain]), rows)))
        rows.sort()
    else:
        rows = plain(rows)
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
    if kind == "states":
        return StateSequence(schema, (
            (decode_value(time, memo),
             Relation(schema, _decode_rows(schema, rows, memo)))
            for time, rows in data["states"]))
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

_DB_CLASSES = {
    "static": StaticDatabase,
    "static rollback": RollbackDatabase,
    "historical": HistoricalDatabase,
    "temporal": TemporalDatabase,
}


def _dump(database, closed: bool, memo: Optional[Dict[Instant, Any]] = None,
          texts: Optional[PyTuple[Texts, Texts]] = None) -> Dict[str, Any]:
    """A whole database's dump but the clock (see :func:`store_to_dict`)."""
    relations = {}
    is_event = getattr(database, "is_event_relation", None)
    for name in database.relation_names():
        relations[name] = entry = {
            "schema": schema_to_dict(database.schema(name)),
            "store": store_to_dict(database.store(name), closed, memo, texts)}
        if is_event is not None and is_event(name):
            entry["event"] = True
    return {"version": FORMAT_VERSION, "kind": database.kind.value,
            "representation": getattr(database, "representation", None),
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
    """Put *closed* (relation name -> :func:`encode_rows` output, in
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
        db_class = _DB_CLASSES[kind]
    except KeyError:
        raise StorageError(f"unknown database kind {kind!r}") from None

    last = (_decode_clock(data["clock_last"])
            if data.get("clock_last") is not None else None)
    if clock is None:
        clock = SimulatedClock(last if last is not None else 1)

    if db_class is RollbackDatabase:
        database = RollbackDatabase(
            clock=clock, representation=data.get("representation") or INTERVAL)
    else:
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
            HistoricalStore(schema, value.rows)
            if isinstance(value, HistoricalRelation) else
            StaticStore(schema, value) if isinstance(value, Relation)
            else value)
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
