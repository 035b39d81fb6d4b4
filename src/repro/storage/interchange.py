"""CSV interchange: moving relations in and out of the system.

Real adoption needs flat-file paths.  This module round-trips every
relation shape through CSV:

- static relations: one column per attribute;
- historical relations: plus ``valid_from`` / ``valid_to`` columns
  (``valid_at`` for event-style export);
- temporal relations: plus ``txn_start`` / ``txn_end``.

Values are written with each attribute's domain formatter and read back
with its parser, so enumerations, dates and user-defined time survive.
The infinities round-trip as ``∞`` / ``-∞``; nulls as empty cells.

**Not a durability mechanism.**  CSV export captures one relation's
*contents*, not the commit history that produced them — re-importing
yields new transactions at new commit times.  The crash-safe record of
a database is its journal and checkpoints (docs/DURABILITY.md); use
this module for getting data in and out, never for backup/restore.
"""

from __future__ import annotations

import csv
from typing import Any, Iterable, List, TextIO, Union

from repro.core.historical import HistoricalRelation, HistoricalRow
from repro.core.temporal import BitemporalRow, TemporalRelation
from repro.errors import StorageError
from repro.relational.relation import Relation
from repro.relational.schema import Schema
from repro.relational.tuple import Tuple
from repro.time.instant import Instant
from repro.time.period import Period

_VALID_COLUMNS = ("valid_from", "valid_to")
_EVENT_COLUMN = "valid_at"
_TT_COLUMNS = ("txn_start", "txn_end")

PathOrFile = Union[str, TextIO]


def _open_for(target: PathOrFile, mode: str):
    if isinstance(target, str):
        return open(target, mode, encoding="utf-8", newline=""), True
    return target, False


def _format_value(schema: Schema, name: str, value: Any) -> str:
    if value is None:
        return ""
    return schema.attribute(name).domain.format(value)


def _parse_value(schema: Schema, name: str, text: str) -> Any:
    if text == "":
        return None
    return schema.attribute(name).domain.parse(text)


def _check_reserved(schema: Schema) -> None:
    reserved = set(_VALID_COLUMNS) | set(_TT_COLUMNS) | {_EVENT_COLUMN}
    clash = reserved & set(schema.names)
    if clash:
        raise StorageError(
            f"schema attributes {sorted(clash)} collide with the reserved "
            f"temporal CSV columns"
        )


# ---------------------------------------------------------------------------
# Export
# ---------------------------------------------------------------------------

def _iso(period: Period) -> List[str]:
    return [period.start.isoformat(), period.end.isoformat()]


def _write_csv(schema: Schema, target: PathOrFile, extra: List[str],
               lines: Iterable[Any]) -> None:
    """The one CSV writer: a header of *schema*'s names then *extra*, and
    a line per ``(tuple, timestamp cells)`` of *lines*."""
    handle, owned = _open_for(target, "w")
    try:
        writer = csv.writer(handle)
        writer.writerow(list(schema.names) + extra)
        for data, stamps in lines:
            writer.writerow([_format_value(schema, name, data[name])
                             for name in schema.names] + stamps)
    finally:
        if owned:
            handle.close()


def export_csv(relation: Relation, target: PathOrFile) -> int:
    """Write a static relation as CSV; returns the number of rows."""
    _write_csv(relation.schema, target, [], ((row, []) for row in relation))
    return relation.cardinality


def export_historical_csv(relation: HistoricalRelation,
                          target: PathOrFile, event: bool = False) -> int:
    """Write a historical relation as CSV with its valid-time columns."""
    _check_reserved(relation.schema)
    _write_csv(relation.schema, target,
               [_EVENT_COLUMN] if event else list(_VALID_COLUMNS),
               ((row.data, _iso(row.valid)[:1 if event else 2])
                for row in relation.rows))
    return len(relation)


def export_temporal_csv(relation: TemporalRelation,
                        target: PathOrFile) -> int:
    """Write a bitemporal relation as CSV with all four timestamps."""
    _check_reserved(relation.schema)
    _write_csv(relation.schema, target,
               list(_VALID_COLUMNS) + list(_TT_COLUMNS),
               ((row.data, _iso(row.valid) + _iso(row.tt))
                for row in relation.rows))
    return len(relation)


# ---------------------------------------------------------------------------
# Import
# ---------------------------------------------------------------------------

def _read_rows(schema: Schema, source: PathOrFile,
               expected_extra: List[str]):
    handle, owned = _open_for(source, "r")
    try:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise StorageError("CSV file is empty (no header)") from None
        expected = list(schema.names) + expected_extra
        if header != expected:
            raise StorageError(
                f"CSV header {header!r} does not match the schema "
                f"(expected {expected!r})"
            )
        for line_number, cells in enumerate(reader, start=2):
            if not cells:
                continue
            if len(cells) != len(expected):
                raise StorageError(
                    f"CSV line {line_number} has {len(cells)} cells, "
                    f"expected {len(expected)}"
                )
            yield cells
    finally:
        if owned:
            handle.close()


def _tuple(schema: Schema, cells: List[str]) -> Tuple:
    """The tuple a line's leading cells hold."""
    return Tuple(schema, {name: _parse_value(schema, name, cell)
                          for name, cell in zip(schema.names, cells)})


def _period(start: str, end: str) -> Period:
    return Period(Instant.parse(start), Instant.parse(end))


def import_csv(schema: Schema, source: PathOrFile) -> Relation:
    """Read a static relation from CSV, parsing values per the schema."""
    return Relation(schema, [_tuple(schema, cells)
                             for cells in _read_rows(schema, source, [])])


def import_historical_csv(schema: Schema, source: PathOrFile,
                          event: bool = False) -> HistoricalRelation:
    """Read a historical relation from CSV written by the exporter."""
    _check_reserved(schema)
    extra = [_EVENT_COLUMN] if event else list(_VALID_COLUMNS)
    rows = []
    for cells in _read_rows(schema, source, extra):
        valid = (Period.at(Instant.parse(cells[-1])) if event
                 else _period(*cells[-2:]))
        rows.append(HistoricalRow(_tuple(schema, cells), valid))
    return HistoricalRelation(schema, rows)


def import_temporal_csv(schema: Schema,
                        source: PathOrFile) -> TemporalRelation:
    """Read a bitemporal relation from CSV written by the exporter."""
    _check_reserved(schema)
    extra = list(_VALID_COLUMNS) + list(_TT_COLUMNS)
    return TemporalRelation(schema, [BitemporalRow(
        _tuple(schema, cells), _period(*cells[-4:-2]), _period(*cells[-2:]))
        for cells in _read_rows(schema, source, extra)])
