"""Columnar chunks over the temporal stores: the vectorized access path.

The taxonomy makes the closed (transaction-time) partition of a rollback
or temporal relation append-only and immutable, so a *columnar* layout
over it is safe by construction: per-attribute value arrays plus packed
period columns (``valid start/end``, ``transaction start/end``) can be
built once per relation version and reused until the next commit.

This module provides:

- :class:`ColumnarChunk` — one relation version decomposed into packed
  float time columns (chronons, with unbounded endpoints mapped onto IEEE
  infinities exactly like :mod:`repro.core.indexing`) and lazily
  materialized per-attribute value columns.  The mask kernels —
  visibility stab, transaction-time overlap, valid-time ``when``
  comparison, attribute comparison — each owe strict result equivalence
  to the naive row-at-a-time scan they replace; the differential suite
  (``tests/tquel/test_differential.py``) and the kernel unit tests
  enforce it.
- :class:`ColumnarCache` — fresh-by-construction chunk cache for a live
  database, one slot per relation stamped with the relation *version*
  (the :class:`~repro.core.indexing.DatabaseIndexCache` pattern).  When
  successive relation versions share a storage lineage, the closed-prefix
  columns are *extended* instead of rebuilt: a commit re-packs only the
  new closed rows and the open partition, never the closed past.

NumPy is optional.  When importable, the time columns are ``float64``
ndarrays and the kernels are true vector operations; otherwise the same
columns are plain Python lists and the kernels are tight comprehension
loops over floats (still several times faster than evaluating
``Period``/``Instant`` objects per row).  CI runs without NumPy, so every
kernel has both shapes and the tests exercise both.
"""

from __future__ import annotations

import operator
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple as PyTuple

try:  # optional accelerator; the GitHub CI image has no numpy
    import numpy as _np
except ImportError:  # pragma: no cover - exercised via monkeypatching
    _np = None

from repro.core.historical import HistoricalRelation, HistoricalStore
from repro.core.temporal import TemporalRelation
from repro.core.transaction_time import TransactionTimeStore
from repro.obs import runtime as _obs
from repro.relational.expression import _COMPARATORS
from repro.errors import ExpressionError
from repro.time.chronon import require_same_granularity
from repro.time.instant import Instant
from repro.time.period import Period, chronon_number, first_unit

__all__ = ["ColumnarChunk", "ColumnarCache"]


#: Row → period accessors for packing the two axes.
_VALID = operator.attrgetter("valid")
_TT = operator.attrgetter("tt")


class _Axis:
    """One packed period column pair (starts, exclusive ends).

    ``starts``/``ends`` are parallel float sequences — ndarrays when NumPy
    is importable, plain lists otherwise.  The unit of the first period
    that has one is remembered and every probe is checked against it,
    mirroring what the per-row ``Period`` operations of the naive scan
    would have enforced.
    """

    __slots__ = ("starts", "ends", "granularity")

    def __init__(self, starts: List[float], ends: List[float],
                 granularity) -> None:
        if _np is not None:
            self.starts: Any = _np.asarray(starts, dtype=_np.float64)
            self.ends: Any = _np.asarray(ends, dtype=_np.float64)
        else:
            self.starts = starts
            self.ends = ends
        self.granularity = granularity

    @classmethod
    def pack(cls, rows: Sequence[Any],
             period_of: Callable[[Any], Period]) -> "_Axis":
        periods = list(map(period_of, rows))
        return cls([period.lo for period in periods],
                   [period.hi for period in periods], first_unit(periods))

    def extended(self, new_rows: Sequence[Any],
                 period_of: Callable[[Any], Period],
                 keep: int) -> "_Axis":
        """A fresh axis reusing the first *keep* packed endpoints.

        Only *new_rows* are walked as Python objects; the kept prefix is
        copied as raw floats (a memcpy under NumPy, a pointer-slice
        otherwise).  This is what makes chunk upkeep O(Δ + open) per
        commit instead of O(history).
        """
        tail = _Axis.pack(new_rows, period_of)
        granularity = self.granularity or tail.granularity
        fresh = _Axis.__new__(_Axis)
        fresh.granularity = granularity
        if _np is not None:
            fresh.starts = _np.concatenate((self.starts[:keep], tail.starts))
            fresh.ends = _np.concatenate((self.ends[:keep], tail.ends))
        else:
            fresh.starts = self.starts[:keep] + tail.starts
            fresh.ends = self.ends[:keep] + tail.ends
        return fresh


#: ``when``-comparison formulas over half-open periods, variable on the
#: LEFT: row period ``P = [vs, ve)`` against constant ``C = [lo, hi)``.
#: Each lambda is the float transliteration of the corresponding
#: :class:`~repro.time.period.Period` predicate (or its derivation in
#: :func:`repro.tquel.evaluator.eval_temporal_predicate`) — the
#: equivalence the differential tests enforce.
_WHEN_LEFT: Dict[str, Callable[[float, float, float, float], bool]] = {
    # P.overlaps(C): vs < hi and lo < ve
    "overlap": lambda vs, ve, lo, hi: vs < hi and lo < ve,
    # P.precedes(C): ve <= lo
    "precede": lambda vs, ve, lo, hi: ve <= lo,
    # P == C
    "equal": lambda vs, ve, lo, hi: vs == lo and ve == hi,
    # P.meets(C): ve == lo
    "meets": lambda vs, ve, lo, hi: ve == lo,
    # before = precedes and not meets: ve < lo  (half-open, so strict)
    "before": lambda vs, ve, lo, hi: ve < lo,
    # after = C precedes P and not C meets P: hi < vs
    "after": lambda vs, ve, lo, hi: hi < vs,
    # during = C.contains_period(P): lo <= vs and ve <= hi
    "during": lambda vs, ve, lo, hi: lo <= vs and ve <= hi,
    # starts = during and same start
    "starts": lambda vs, ve, lo, hi: vs == lo and ve <= hi,
    # finishes = during and same end
    "finishes": lambda vs, ve, lo, hi: lo <= vs and ve == hi,
}

#: Same formulas with the variable on the RIGHT: constant ``C = [lo, hi)``
#: compared against row period ``P = [vs, ve)``.
_WHEN_RIGHT: Dict[str, Callable[[float, float, float, float], bool]] = {
    "overlap": lambda vs, ve, lo, hi: lo < ve and vs < hi,
    "precede": lambda vs, ve, lo, hi: hi <= vs,
    "equal": lambda vs, ve, lo, hi: vs == lo and ve == hi,
    "meets": lambda vs, ve, lo, hi: hi == vs,
    "before": lambda vs, ve, lo, hi: hi < vs,
    "after": lambda vs, ve, lo, hi: ve < lo,
    "during": lambda vs, ve, lo, hi: vs <= lo and hi <= ve,
    "starts": lambda vs, ve, lo, hi: lo == vs and hi <= ve,
    "finishes": lambda vs, ve, lo, hi: vs <= lo and hi == ve,
}


def _vector_when(op: str, vs: Any, ve: Any, lo: float, hi: float,
                 var_on_left: bool) -> Any:
    """The ndarray shape of the ``when`` kernels (NumPy present only)."""
    if var_on_left:
        if op == "overlap":
            return (vs < hi) & (lo < ve)
        if op == "precede":
            return ve <= lo
        if op == "equal":
            return (vs == lo) & (ve == hi)
        if op == "meets":
            return ve == lo
        if op == "before":
            return ve < lo
        if op == "after":
            return vs > hi
        if op == "during":
            return (lo <= vs) & (ve <= hi)
        if op == "starts":
            return (vs == lo) & (ve <= hi)
        if op == "finishes":
            return (lo <= vs) & (ve == hi)
    else:
        if op == "overlap":
            return (lo < ve) & (vs < hi)
        if op == "precede":
            return vs >= hi
        if op == "equal":
            return (vs == lo) & (ve == hi)
        if op == "meets":
            return vs == hi
        if op == "before":
            return vs > hi
        if op == "after":
            return ve < lo
        if op == "during":
            return (vs <= lo) & (hi <= ve)
        if op == "starts":
            return (lo == vs) & (hi <= ve)
        if op == "finishes":
            return (vs <= lo) & (hi == ve)
    raise KeyError(op)


class ColumnarChunk:
    """One relation version in columnar form.

    ``rows`` keeps the original row objects (``BitemporalRow`` /
    ``HistoricalRow`` / ``TransactionTimeRow``) in store order — closed
    partition first — so a mask over the columns selects rows by
    position.  ``valid`` / ``tt`` are the packed period axes; either may
    be ``None`` when the database kind lacks that time axis.  Attribute
    value columns are materialized lazily per attribute and memoized for
    the chunk's lifetime (one relation version).

    Every kernel must return exactly the rows the corresponding naive
    predicate scan selects — no more, no fewer, in store order.
    """

    __slots__ = ("schema", "rows", "closed_len", "valid", "tt", "_columns",
                 "_lineage")

    def __init__(self, schema, rows: PyTuple[Any, ...], closed_len: int,
                 valid: Optional[_Axis], tt: Optional[_Axis],
                 lineage: object = None) -> None:
        self.schema = schema
        self.rows = rows
        #: How many leading rows came from the append-only closed log
        #: (reusable on extension); 0 when the source has no partition.
        self.closed_len = closed_len
        self.valid = valid
        self.tt = tt
        #: The source store's lineage token; extension is offered only to
        #: versions sharing it (so a drop/redefine always rebuilds).
        self._lineage = lineage
        self._columns: Dict[str, List[Any]] = {}

    def __len__(self) -> int:
        return len(self.rows)

    # -- construction ----------------------------------------------------------

    @classmethod
    def from_store(cls, relation: TransactionTimeStore) -> "ColumnarChunk":
        """A chunk over a transaction-time store; the valid axis is
        packed when its rows carry one (a temporal relation)."""
        rows = relation.rows
        valid = (_Axis.pack(rows, _VALID)
                 if isinstance(relation, TemporalRelation) else None)
        return cls(relation.schema, rows, relation._closed_len, valid,
                   _Axis.pack(rows, _TT), lineage=relation._lineage)

    @classmethod
    def from_historical(cls, relation: HistoricalRelation) -> "ColumnarChunk":
        rows = relation.rows
        return cls(relation.schema, rows, 0, _Axis.pack(rows, _VALID), None)

    # -- masks -----------------------------------------------------------------

    def _full(self) -> Any:
        if _np is not None:
            return _np.ones(len(self.rows), dtype=bool)
        return [True] * len(self.rows)

    def all_mask(self) -> Any:
        """Every row (the no-predicate mask)."""
        return self._full()

    def tt_stab_mask(self, when: Instant) -> Any:
        """Rows whose transaction time contains *when*.

        Equivalent to ``row.tt.contains(when)`` per row.
        """
        axis = self.tt
        assert axis is not None
        t = chronon_number(when, axis.granularity, "stab a columnar chunk")
        if _np is not None:
            return (axis.starts <= t) & (t < axis.ends)
        return [s <= t < e for s, e in zip(axis.starts, axis.ends)]

    def tt_overlap_mask(self, period: Period) -> Any:
        """Rows whose transaction time overlaps *period*.

        Equivalent to ``row.tt.overlaps(period)`` per row.
        """
        axis = self.tt
        assert axis is not None
        require_same_granularity(period.unit, axis.granularity,
                                 "probe a columnar chunk")
        lo, hi = period.lo, period.hi
        if _np is not None:
            return (axis.starts < hi) & (axis.ends > lo)
        return [s < hi and e > lo
                for s, e in zip(axis.starts, axis.ends)]

    def valid_stab_mask(self, when: Instant) -> Any:
        """Rows whose valid time contains *when* (the timeslice kernel)."""
        axis = self.valid
        assert axis is not None
        t = chronon_number(when, axis.granularity,
                           "timeslice a columnar chunk")
        if _np is not None:
            return (axis.starts <= t) & (t < axis.ends)
        return [s <= t < e for s, e in zip(axis.starts, axis.ends)]

    def when_mask(self, op: str, constant: Period, var_on_left: bool) -> Any:
        """Rows whose valid period satisfies ``P <op> C`` (or ``C <op> P``).

        *op* is one of the TQuel temporal comparison operators
        (``overlap``/``precede``/``equal``/``meets`` plus the derived
        ``before``/``after``/``during``/``starts``/``finishes``).  Must agree
        row-for-row with
        :func:`repro.tquel.evaluator.eval_temporal_predicate` applied to
        each candidate's derived valid period against the constant.
        """
        axis = self.valid
        assert axis is not None
        require_same_granularity(constant.unit, axis.granularity,
                                 "compare against a columnar chunk")
        lo, hi = constant.lo, constant.hi
        if _np is not None:
            return _vector_when(op, axis.starts, axis.ends, lo, hi,
                                var_on_left)
        formula = (_WHEN_LEFT if var_on_left else _WHEN_RIGHT)[op]
        return [formula(vs, ve, lo, hi)
                for vs, ve in zip(axis.starts, axis.ends)]

    # -- value columns and comparison pushdown ---------------------------------

    def column(self, name: str) -> List[Any]:
        """The values of attribute *name*, one per row, memoized."""
        col = self._columns.get(name)
        if col is None:
            index = self.schema.names.index(name)
            col = [row.data.values[index] for row in self.rows]
            self._columns[name] = col
        return col

    def compare_mask(self, name: str, op: str, value: Any,
                     attr_on_left: bool) -> Any:
        """Rows whose attribute satisfies the comparison.

        Preserves :class:`~repro.relational.expression.Comparison`
        semantics exactly: a ``None`` on either side is false, and an
        untypable comparison raises :class:`ExpressionError` with the
        message the per-row evaluation would have produced.
        """
        comparator = _COMPARATORS[op]
        column = self.column(name)
        if value is None:
            mask = [False] * len(column)
        else:
            try:
                if attr_on_left:
                    mask = [False if item is None else comparator(item, value)
                            for item in column]
                else:
                    mask = [False if item is None else comparator(value, item)
                            for item in column]
            except TypeError as exc:
                # Re-raise with the exact message Comparison.evaluate uses,
                # identifying the offending operands.
                for item in column:
                    if item is None:
                        continue
                    left, right = (item, value) if attr_on_left \
                        else (value, item)
                    try:
                        comparator(left, right)
                    except TypeError:
                        raise ExpressionError(
                            f"cannot compare {left!r} {op} {right!r}"
                        ) from exc
                raise  # pragma: no cover - defensive; loop always re-raises
        if _np is not None:
            return _np.asarray(mask, dtype=bool)
        return mask

    def compare_select(self, indices: Sequence[int], name: str, op: str,
                       value: Any, attr_on_left: bool) -> List[int]:
        """Filter *indices* by an attribute comparison, in order.

        The restriction to an index list (rather than a full-column mask)
        keeps the equivalence obligation exact: only rows the naive path
        would have *reached* are compared, so an untypable value in a row
        the temporal clauses exclude raises in neither path.  ``None``
        semantics and the :class:`ExpressionError` message match
        :meth:`repro.relational.expression.Comparison.evaluate` verbatim.
        """
        comparator = _COMPARATORS[op]
        column = self.column(name)
        if value is None:
            return []
        out: List[int] = []
        for i in indices:
            item = column[i]
            if item is None:
                continue
            left, right = (item, value) if attr_on_left else (value, item)
            try:
                ok = comparator(left, right)
            except TypeError as exc:
                raise ExpressionError(
                    f"cannot compare {left!r} {op} {right!r}"
                ) from exc
            if ok:
                out.append(i)
        return out

    def mask_indices(self, mask: Any) -> List[int]:
        """The selected row positions, ascending."""
        if _np is not None:
            return _np.flatnonzero(mask).tolist()
        return [i for i, keep in enumerate(mask) if keep]

    # -- mask algebra ----------------------------------------------------------

    @staticmethod
    def count(mask: Any) -> int:
        if _np is not None:
            return int(mask.sum())
        return sum(mask)

    def take(self, mask: Any) -> List[Any]:
        """The selected row objects, in store order."""
        rows = self.rows
        if _np is not None:
            return [rows[i] for i in _np.flatnonzero(mask)]
        return [row for row, keep in zip(rows, mask) if keep]

    # -- extension -------------------------------------------------------------

    def extended(self, relation: TransactionTimeStore
                 ) -> Optional["ColumnarChunk"]:
        """A chunk over a newer version of the store this one was built
        from, reusing the closed-prefix columns; ``None`` when the values
        are unrelated."""
        if (self._lineage is None
                or relation._lineage is not self._lineage
                or relation._closed_len < self.closed_len):
            return None  # unrelated values (drop/redefine): rebuild
        new_closed = tuple(relation._closed_log[
            self.closed_len:relation._closed_len])
        open_rows = tuple(relation._open.values())
        appended = new_closed + open_rows
        rows = self.rows[:self.closed_len] + appended
        valid = None if self.valid is None else \
            self.valid.extended(appended, _VALID, self.closed_len)
        tt = self.tt.extended(appended, _TT, self.closed_len)
        return ColumnarChunk(relation.schema, rows, relation._closed_len,
                             valid, tt, lineage=relation._lineage)


class ColumnarCache:
    """Fresh-by-construction chunk cache for a live database.

    One slot per relation name, stamped with the relation *version*
    (:meth:`~repro.core.base.Database.relation_version`) exactly like
    :class:`~repro.core.indexing.DatabaseIndexCache`: a commit to
    relation A never invalidates relation B's chunk.  On a version miss
    the previous chunk is extended in place of a rebuild whenever the
    storage lineage allows (the closed prefix is reused as packed
    floats).

    ``chunk(name)`` returns ``None`` for a static relation, which has no
    columnar form — a forced ``columnar`` plan then degrades to the naive
    scan.

    Plain counters (:attr:`hits`, :attr:`misses`, :attr:`extensions`) are
    always live; the same events are mirrored into the process
    instrumentation as ``columnar.cache.hits`` / ``columnar.cache.misses``
    / ``columnar.cache.extends``, plus a ``columnar.rows.<name>`` gauge
    per built chunk.
    """

    def __init__(self, database) -> None:
        self._db = database
        self._slots: Dict[str, PyTuple[int, ColumnarChunk]] = {}
        self.hits = 0
        self.misses = 0
        self.extensions = 0

    def _source(self, name: str):
        """(relation value, builder, extender) for *name*, or ``None``."""
        relation = self._db.store(name)
        if isinstance(relation, TransactionTimeStore):
            return (relation, ColumnarChunk.from_store,
                    lambda chunk: chunk.extended(relation))
        if isinstance(relation, HistoricalStore):
            return (relation.current(), ColumnarChunk.from_historical,
                    lambda chunk: None)
        return None  # a static relation

    def chunk(self, name: str) -> Optional[ColumnarChunk]:
        """The current chunk for *name*, or ``None`` when unsupported."""
        source = self._source(name)
        if source is None:
            return None
        relation, builder, extender = source
        metrics = _obs.current().metrics
        version = self._db.relation_version(name)
        slot = self._slots.get(name)
        if slot is not None:
            cached_version, chunk = slot
            if cached_version == version:
                self.hits += 1
                metrics.counter("columnar.cache.hits").inc()
                return chunk
            fresh = extender(chunk)
            if fresh is not None:
                self.extensions += 1
                self._slots[name] = (version, fresh)
                metrics.counter("columnar.cache.extends").inc()
                metrics.gauge(f"columnar.rows.{name}").set(len(fresh))
                return fresh
        self.misses += 1
        metrics.counter("columnar.cache.misses").inc()
        chunk = builder(relation)
        self._slots[name] = (version, chunk)
        metrics.gauge(f"columnar.rows.{name}").set(len(chunk))
        return chunk

    def describe(self) -> Dict[str, Any]:
        """Deterministic stats view for ``repro cache`` and ``.cache``."""
        return {
            "relations": sorted(self._slots),
            "rows": {name: len(chunk)
                     for name, (_, chunk) in sorted(self._slots.items())},
            "hits": self.hits,
            "misses": self.misses,
            "extensions": self.extensions,
        }
