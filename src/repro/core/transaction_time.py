"""Transaction time, written once (§4.2 and §4.4 of the paper).

Figure 10 classifies databases by two *orthogonal* capabilities: a static
rollback database is a static database plus transaction time, a temporal
database a historical database plus transaction time.  What transaction
time adds is the same in both: every *element* of the current state — a
data tuple for the former, a ``(data, valid period)`` fact for the latter
— is stamped with the period ``[start, end)`` during which it belonged to
the state, ``end = ∞`` while it still does.  Transaction time is
append-only: "once a transaction has completed, the static relations in
the static rollback relation may not be altered".

:class:`TransactionTimeStore` is that stamping, as an immutable value
*partitioned* along the transaction-time axis: rows whose period has
closed belong to the immutable past and live in an append-only log
shared structurally between successive versions, while the open rows —
exactly the current state — live in a map keyed by element, with an
index by schema-key value beside it.  The unit that flows through a
commit is the **element delta**: :meth:`TransactionTimeStore.advance`
closes the rows of the elements an operation removes and opens rows for
the ones it adds, both appended to the logs the next version shares with
this one (:mod:`repro.core.lineage`), so a commit costs O(Δ) plus two
C-speed dict copies — never O(current state) and never O(all rows ever
written).  :func:`naive_advance` keeps the original whole-relation diff
as the executable specification the delta path is property-tested
against.

:class:`~repro.core.rollback.RollbackRelation` and
:class:`~repro.core.temporal.TemporalRelation` are the two element types;
they add only their typed views of the rows.
"""

from __future__ import annotations

import itertools
import math
import operator
from collections import defaultdict
from typing import (Any, Callable, Collection, Dict, Iterable, Iterator,
                    KeysView, List, Mapping, Optional, Tuple as PyTuple)

from repro.core.base import InstantLike, Read
from repro.core.lineage import extend_log, withdraw
from repro.obs import runtime as _obs
from repro.relational.schema import Schema
from repro.time.instant import Instant, POS_INF, instant as _coerce
from repro.time.period import Period, chronon_number

#: The by-key index: schema-key value -> the open rows under it.
_KeyIndex = Dict[PyTuple[Any, ...], PyTuple[Any, ...]]

#: ``explain``'s words for a read under one key: now; ``as of``.
KEY_ACCESS = "key index: one probe of the open rows"
KEY_HISTORY_ACCESS = "key index: one key's closed chain and open rows"


def index_access(index: str, through: Optional[Instant]) -> str:
    """``explain``'s words for a stab of *index*, or a range overlap."""
    return index + (": transaction-time stab" if through is None
                    else ": transaction-time range overlap")


class TransactionTimeStore:
    """Rows stamped with transaction time: an immutable value object.

    Internally partitioned into an append-only *closed* log (rows whose
    transaction time has ended) and an *open* map keyed by state element
    (the current state).  Successive versions produced by :meth:`advance`
    share the closed log structurally, so a commit never copies the past;
    they also share an *opened* log of every row that ever entered the
    open map, so the difference between two versions is two list slices
    (:mod:`repro.core.lineage`).

    A subclass names its row type through three hooks: :attr:`_element`
    (row → element), :meth:`_stamp` (element, period → row) and
    :meth:`state_of` / :meth:`range_of` (rows → the value a rollback / an
    ``as of … through`` returns).
    """

    __slots__ = ("_schema", "_closed_log", "_closed_len", "_opened_log",
                 "_opened_len", "_open", "_by_key", "_open_extra", "_lineage",
                 "_rows_cache", "_current_cache", "_times_cache")

    #: row -> its state element.  A C-level callable
    #: (``operator.itemgetter``), not a method: the constructor runs it
    #: once per open row, and ``as of … through`` constructs a store from
    #: thousands of rows per read.
    _element: Callable[[Any], Any]

    @staticmethod
    def _stamp(element: Any, tt: Period) -> Any:
        """The row recording that *element* was in the state during *tt*."""
        raise NotImplementedError

    def state_of(self, rows: Iterable[Any]) -> Any:
        """The state *rows* amount to with transaction time projected away."""
        raise NotImplementedError

    def state_in_force(self, rows: Iterable[Any]) -> Any:
        """:meth:`state_of` rows holding each element at most once — the
        open map's, or those in force at one instant of a store a database
        maintains (:meth:`advance` closes an element's row before it opens
        the next) — so a subclass may skip the dedupe."""
        return self.state_of(rows)

    def range_of(self, rows: Iterable[Any]) -> Any:
        """What ``as of … through`` returns for the *rows* it selects."""
        raise NotImplementedError

    #: rows -> a TQuel read's candidates ``(data, valid, tt)``.
    as_candidates: Callable[[Collection[Any]], Collection[Any]]

    def __init__(self, schema: Schema, rows: Iterable[Any] = ()) -> None:
        element = self._element
        closed: List[Any] = []
        open_map: Dict[Any, Any] = {}
        extra: List[Any] = []
        for row in rows:
            if row.tt.hi == math.inf:
                key = element(row)
                if key in open_map:
                    extra.append(row)  # derived values may repeat an element
                else:
                    open_map[key] = row
            else:
                closed.append(row)
        self._init_parts(schema, closed, [], open_map, None, extra, object())

    def _init_parts(self, schema: Schema, closed_log: List[Any],
                    opened_log: List[Any], open_map: Dict[Any, Any],
                    by_key: Optional[_KeyIndex], extra: List[Any],
                    lineage: object) -> None:
        self._schema = schema
        # Versions descending from the same original value share a lineage
        # token and both logs; a version sees a prefix of each.
        self._closed_log = closed_log
        self._closed_len = len(closed_log)
        self._opened_log = opened_log
        self._opened_len = len(opened_log)
        self._open = open_map
        self._by_key = by_key  # built on first use, see _key_index
        self._open_extra = extra
        self._lineage = lineage
        self._rows_cache: Optional[PyTuple[Any, ...]] = None
        self._current_cache: Any = None
        self._times_cache: Optional[List[Instant]] = None

    # -- the open partition ------------------------------------------------------

    def open_rows(self) -> Iterator[Any]:
        """The rows of the current state (transaction end = ∞)."""
        return itertools.chain(self._open.values(), self._open_extra)

    @property
    def open_count(self) -> int:
        """How many rows the current state holds."""
        return len(self._open) + len(self._open_extra)

    @property
    def open_elements(self) -> KeysView:
        """The elements of the current state (a set-like view)."""
        return self._open.keys()

    def _key_index(self) -> Optional[_KeyIndex]:
        """The open rows by schema-key value; ``None`` without a key.

        Built once per lineage (the first use after a load or a
        recovery); every later version gets its predecessor's outer dict
        copied at C speed with only the touched keys' entries rebuilt.
        Readers reach the build without a lock: two racing threads each
        derive the same index from this immutable version's open map and
        one assignment wins — an idempotent value, never a torn one.
        """
        if self._by_key is None and self._schema.key:
            self._by_key = {key: tuple(rows) for key, rows
                            in self._by_key_of(self._open.values()).items()}
        return self._by_key

    def _by_key_of(self, rows: Collection[Any]
                   ) -> Dict[PyTuple[Any, ...], List[Any]]:
        """*rows* by schema-key value, in order, the keys read by C-level
        getters (a ``Tuple.key`` call per row is what a restart's first
        read would pay for every row it indexes)."""
        positions = [self._schema.position(name) for name in self._schema.key]
        keys = map(operator.itemgetter(*positions),
                   map(operator.attrgetter("data.values"), rows))
        groups: Dict[PyTuple[Any, ...], List[Any]] = defaultdict(list)
        for key, row in zip(zip(keys) if len(positions) == 1 else keys, rows):
            groups[key].append(row)
        return groups

    def _key_index_after(self, gone: Iterable[Any], opened: Iterable[Any]
                         ) -> Optional[_KeyIndex]:
        """The successor's key index: a C-speed copy of the outer dict
        with the entries of the keys that lost (*gone*, rows of this
        version's open map) or gained rows rebuilt."""
        index = self._key_index()
        if index is None:
            return None
        index = dict(index)
        for row in gone:
            key = row.data.key()
            rest = tuple(other for other in index[key] if other is not row)
            if rest:
                index[key] = rest
            else:
                del index[key]
        for row in opened:
            key = row.data.key()
            index[key] = index.get(key, ()) + (row,)
        return index

    def open_under_key(self, bound: Mapping[str, Any]
                       ) -> Optional[PyTuple[Any, ...]]:
        """The open rows whose schema-key value is the one *bound* names,
        by one probe of the key index — or ``None`` where a probe cannot
        answer: no schema key, a key attribute *bound* leaves out, a
        value no stored key can equal, or a derived value whose duplicate
        open rows the index does not hold."""
        index = None if self._open_extra else self._key_index()
        if index is None:
            return None
        try:
            return index.get(
                tuple(bound[name] for name in self._schema.key), ())
        except (KeyError, TypeError):
            return None

    def candidates(self, match: Optional[Mapping[str, Any]]
                   ) -> Collection[Any]:
        """The open rows an operation's equality *match* can touch.

        A match binding every key attribute (a keyed update, or the
        full-row match TQuel's ``replace`` expands to) is answered by
        :meth:`open_under_key`; a key-less or partial-key match scans the
        open map; no match at all (an insert) touches nothing.
        """
        if match is None:
            return ()
        found = self.open_under_key(match)
        return self._open.values() if found is None else found

    def _under_keys(self, keys: Iterable[PyTuple[Any, ...]]) -> Iterator[Any]:
        """The open rows whose schema-key value is one of *keys*."""
        index = self._key_index()
        return itertools.chain.from_iterable(
            index.get(key, ()) for key in keys)

    # -- accessors ---------------------------------------------------------------

    @property
    def schema(self) -> Schema:
        """The explicit (non-temporal) schema."""
        return self._schema

    @property
    def rows(self) -> PyTuple[Any, ...]:
        """Every timestamped row, past and current."""
        if self._rows_cache is None:
            self._rows_cache = tuple(self._iter_rows())
        return self._rows_cache

    def _iter_rows(self) -> Iterator[Any]:
        return itertools.chain(
            itertools.islice(self._closed_log, self._closed_len),
            self._open.values(), self._open_extra)

    # -- the closed partition ----------------------------------------------------

    def closed_mark(self) -> PyTuple[object, int]:
        """A name for this version's closed partition: ``(lineage, rows
        closed so far)``.  Opaque to callers; :meth:`closed_since` reads it."""
        return self._lineage, self._closed_len

    def closed_since(self, mark: Optional[PyTuple[object, int]] = None
                     ) -> Optional[List[Any]]:
        """The rows that closed between the version *mark* names and this
        one, in closing order (all of them for ``None``).

        The closed log is append-only within a lineage, so whoever holds a
        mark (a checkpoint that wrote the rows before it to disk) already
        holds every row this does not return.  ``None`` when *mark* is of
        another lineage — a redefined relation, a loaded or vacuumed value
        — and nothing can be said about what the holder has.
        """
        start = 0
        if mark is not None:
            lineage, start = mark
            if lineage is not self._lineage or start > self._closed_len:
                return None
        return self._closed_log[start:self._closed_len]

    def __len__(self) -> int:
        return self._closed_len + self.open_count

    def __iter__(self) -> Iterator[Any]:
        return self._iter_rows()

    # -- the transaction-time axis -----------------------------------------------

    def visible(self, as_of: InstantLike) -> List[Any]:
        """The rows whose transaction time contains *as_of*, by a scan (an
        index answers this and the next three methods from its tree)."""
        when = _coerce(as_of)
        return [row for row in self._iter_rows() if row.tt.contains(when)]

    def overlapping(self, period: Period) -> List[Any]:
        """The rows whose transaction time overlaps *period*, by a scan."""
        return [row for row in self._iter_rows() if row.tt.overlaps(period)]

    def read(self, index: Callable[[], Any], access: str, now: Instant,
             as_of: Optional[Instant], through: Optional[Instant], key: Any,
             indexed: bool) -> Optional[Read]:
        """:meth:`Database.read <repro.core.base.Database.read>` of this
        store, in *access*'s words: a stab at *as_of* (else *now*) or a
        range overlap, of the index *index* returns where *indexed*, else
        of the store's own rows.  Under *key*, the key's open rows by one
        probe, or under ``as of`` its rows then, from the index's chain."""
        if key is not None:
            found = (self.open_under_key(key) if as_of is None else
                     index().under_key(key, as_of, through))
            return None if found is None else Read(
                KEY_ACCESS if as_of is None else KEY_HISTORY_ACCESS, True,
                self.as_candidates(found))
        source = index() if indexed else self
        rows = (source.visible(now if as_of is None else as_of)
                if through is None else
                source.overlapping(Period.from_inclusive(as_of, through)))
        return Read(access, indexed, self.as_candidates(rows))

    def rollback(self, as_of: InstantLike) -> Any:
        """The state as of a transaction time (the paper's rollback)."""
        return self.state_of(self.visible(as_of))

    def current(self) -> Any:
        """The most recent state: exactly the open partition.

        O(current state), memoized (the value is immutable, so the memo
        is per version).  A commit never calls this.  Nothing is deduped
        unless a derived value repeats an open element.
        """
        if self._current_cache is None:
            self._current_cache = (
                self.state_of(self.open_rows()) if self._open_extra
                else self.state_in_force(self._open.values()))
        return self._current_cache

    def visible_during(self, period: Period) -> Any:
        """What belonged to *some* state during the period.

        Backs TQuel's ``as of t1 through t2``: the union of the rollback
        states over the transaction-time range.
        """
        return self.range_of(self.overlapping(period))

    def commit_times(self) -> List[Instant]:
        """Every transaction time at which this store changed, ascending."""
        if self._times_cache is None:
            # One instant per distinct chronon, not two per row.
            periods = [row.tt for row in self._iter_rows()]
            starts = {tt.lo: tt for tt in periods}.values()
            ends = {tt.hi: tt for tt in periods if tt.hi != math.inf}
            self._times_cache = sorted({tt.start for tt in starts}.union(
                tt.end for tt in ends.values()))
        return list(self._times_cache)

    def advance(self, removed: Collection[Any], added: Collection[Any],
                commit_time: Instant) -> "TransactionTimeStore":
        """The version in which *removed* left the state and *added*
        entered it at *commit_time* (both are collections of elements).

        The removed elements' rows are closed at *commit_time* (or
        withdrawn without trace, if this very transaction opened them),
        the added ones open at it, and both are appended to the logs the
        next version shares with this one.  Cost is O(Δ) plus C-speed
        copies of the open map and the key index.  Semantically identical
        to :func:`naive_advance` (property-tested), which also handles the
        one case the partition cannot: a derived value holding duplicate
        open rows.
        """
        metrics = _obs.current().metrics
        if self._open_extra:
            metrics.counter("commit.fallback_naive").inc()
            gone = set(removed)
            state = [element for element in self._open if element not in gone]
            return naive_advance(self, state + list(added), commit_time)
        if not removed and not added:
            return self
        open_map = dict(self._open)
        gone = [open_map.pop(element) for element in removed]
        from_now_on = Period(commit_time, POS_INF)
        # A row opened and superseded within one transaction was never
        # part of a committed state: withdrawn, not closed.
        withdrawn = [row for row in gone if row.tt == from_now_on]
        closed = [_closed(row, commit_time)
                  for row in gone if row.tt != from_now_on]
        opened = [self._stamp(element, from_now_on) for element in added]
        open_map.update(zip(added, opened))
        by_key = self._key_index_after(gone, opened)
        closed_log = extend_log(self._closed_log, self._closed_len, closed)
        opened_log = extend_log(self._opened_log, self._opened_len, opened)
        if withdrawn:
            withdraw(opened_log, withdrawn, from_now_on)
        metrics.counter("commit.rows_closed").inc(len(closed))
        metrics.counter("commit.rows_opened").inc(len(opened))
        successor = type(self).__new__(type(self))
        successor._init_parts(self._schema, closed_log, opened_log, open_map,
                              by_key, [], self._lineage)
        return successor

    # -- value semantics ----------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return (self._schema.names == other._schema.names
                and frozenset(self.rows) == frozenset(other.rows))

    def __hash__(self) -> int:
        return hash((self._schema.names, frozenset(self.rows)))

    def __repr__(self) -> str:
        return (f"{type(self).__name__}({', '.join(self._schema.names)}; "
                f"{len(self)} rows)")


def _closed(row: Any, commit_time: Instant) -> Any:
    """*row*, open since before *commit_time*, closed at it (at another
    granularity: :class:`~repro.errors.GranularityError`)."""
    end = chronon_number(commit_time, row.tt.unit, "build a period")
    return row._replace(tt=Period.from_chronons(row.tt.lo, end,
                                                commit_time.granularity))


def naive_advance(store: TransactionTimeStore, new_state: Iterable[Any],
                  commit_time: Instant) -> TransactionTimeStore:
    """The whole-relation advance: the executable specification.

    Records *new_state* (the elements of the state from *commit_time* on)
    by walking every row ever written and rebuilding the store — O(n) per
    commit.  Kept as the reference :meth:`TransactionTimeStore.advance` is
    property-tested against, and as its fallback for non-canonical values
    (duplicate open rows in a derived store).
    """
    element = store._element
    state = dict.fromkeys(new_state)
    carried = set()
    rows: List[Any] = []
    from_now_on = Period(commit_time, POS_INF)
    for row in store.rows:
        if row.tt.hi != math.inf:
            rows.append(row)  # already part of the immutable past
        elif element(row) in state:
            rows.append(row)  # survives this transaction
            carried.add(element(row))
        elif row.tt != from_now_on:
            rows.append(_closed(row, commit_time))
        # else: opened and superseded within one transaction
    rows.extend(store._stamp(new, from_now_on)
                for new in state if new not in carried)
    return type(store)(store.schema, rows)
