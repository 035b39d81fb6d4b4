"""The current state, and transaction time over it, written once (§4).

Figure 10 classifies databases by two *orthogonal* capabilities.  Every
kind keeps a current state of *elements* — data tuples, or ``(data,
valid period)`` facts — in one :class:`StateStore`: an open map keyed by
element, indexed by schema-key value.  A commit is an element delta:
:meth:`StateStore.advance` costs O(Δ) plus, once per transaction, a
C-speed copy of the open map and of the key index, and a replaced row
keeps its place in a printed table.

Transaction time adds stamps and the past: :class:`TransactionTimeStore`
stamps each element with the period ``[start, end)`` it belonged to the
state, ``end = ∞`` while it does, and keeps closed rows in an
append-only log the versions share ("once a transaction has completed,
the static relations in the static rollback relation may not be
altered"); an element is open at most once.  The whole-relation diff
the delta path is property-tested against is ``naive_advance`` in
``tests/core/whole_state_oracle.py``.  The four compositions —
:class:`~repro.core.static.StaticStore`,
:class:`~repro.core.historical.HistoricalStore`,
:class:`~repro.core.rollback.RollbackRelation`,
:class:`~repro.core.temporal.TemporalRelation` — add only their element
type and their typed views of the rows.
"""

from __future__ import annotations

import itertools
import math
import operator
from collections import defaultdict
from typing import (Any, Callable, Collection, Dict, Iterable, Iterator,
                    KeysView, List, Mapping, Optional, Tuple as PyTuple)

from repro.core.base import InstantLike, Read
from repro.errors import ConstraintViolation
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


def itself(row: Any) -> Any:
    """The element of a row that is its own element (no stamp)."""
    return row


class StateStore:
    """The current state of one relation: an immutable value object.

    An *open* map keyed by state element holds the state's rows, and an
    index by schema-key value lists them key by key, in the state's order
    (:attr:`_spliced`).  A subclass names its row type: :attr:`_element`
    (row → element), :attr:`_data` (row → data tuple), :meth:`state_of`
    and :attr:`as_candidates`, and what it keeps of the rows a commit
    removes and adds (:meth:`_record`).
    """

    __slots__ = ("_schema", "_open", "_by_key", "_current_cache",
                 "_rows_cache")

    #: row -> its state element: a C-level callable, not a method (a
    #: constructor runs it once per row).
    _element: Callable[[Any], Any]
    _data: Callable[[Any], Any] = operator.attrgetter("data")

    #: Row order: the whole-state path's (a commit's rows where the first
    #: row it removed was), or the open map's where a dump writes that.
    _spliced = True

    def state_of(self, rows: Iterable[Any]) -> Any:
        """The state *rows* amount to (transaction time projected away)."""
        raise NotImplementedError

    def state_in_force(self, rows: Iterable[Any]) -> Any:
        """:meth:`state_of` rows holding each element at most once — the
        open map's, or those in force at one instant of a store a database
        maintains (:meth:`advance` closes an element's row before it opens
        the next) — so a subclass may skip the dedupe."""
        return self.state_of(rows)

    #: rows -> a TQuel read's candidates ``(data, valid, tt)``.
    as_candidates: Callable[[Collection[Any]], Collection[Any]]

    def __init__(self, schema: Schema, rows: Iterable[Any] = ()) -> None:
        rows = list(rows)  # (a repeated element is an equal row here)
        self._init_parts(schema, dict(zip(map(self._element, rows), rows)),
                         None)

    def _init_parts(self, schema: Schema, open_map: Dict[Any, Any],
                    by_key: Optional[_KeyIndex]) -> None:
        self._schema = schema
        self._open = open_map
        self._by_key = by_key  # built on first use, see _key_index
        self._current_cache: Any = None
        self._rows_cache: Optional[PyTuple[Any, ...]] = None

    # -- the open partition ------------------------------------------------------

    @property
    def schema(self) -> Schema:
        """The explicit (non-temporal) schema."""
        return self._schema

    def open_rows(self) -> Iterator[Any]:
        """The rows of the current state (transaction end = ∞)."""
        return iter(self._open.values())

    @property
    def open_count(self) -> int:
        """How many rows the current state holds."""
        return len(self._open)

    @property
    def open_elements(self) -> KeysView:
        """The elements of the current state (a set-like view)."""
        return self._open.keys()

    def _key_index(self) -> Optional[_KeyIndex]:
        """The open rows by schema-key value; ``None`` without a key.

        Built once per lineage (the first use after a load), in open-map
        order; every later version changes a copy
        (:meth:`_key_index_after`).
        Readers reach the build without a lock: two racing threads derive
        the same index from this immutable version, and one assignment
        wins — an idempotent value, never a torn one.
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
                   map(operator.attrgetter("values"), map(self._data, rows)))
        groups: Dict[PyTuple[Any, ...], List[Any]] = defaultdict(list)
        for key, row in zip(zip(keys) if len(positions) == 1 else keys, rows):
            groups[key].append(row)
        return groups

    def _key_index_after(self, gone: Collection[Any],
                         opened: Collection[Any],
                         touched: Optional[Dict[Any, Any]]
                         ) -> Optional[_KeyIndex]:
        """This working copy's key index, changed in place: the keys that
        lost rows (*gone*) or gained them (*opened*) rebuilt, into
        *touched*; spliced, a key a commit produced or changed goes where
        the first key that lost a row was (a replace keeps its place)."""
        index = self._by_key
        if index is None:
            return None
        lost, gained = defaultdict(list), defaultdict(list)
        for rows, delta in ((lost, gone), (gained, opened)):
            for row in delta:  # (a `key()` call beats getters at Δ rows)
                rows[self._data(row).key()].append(row)
        if touched is not None:
            touched.update(lost)
            touched.update(gained)
        moved = [key for key in gained if key in lost or key not in index]
        for key, rows in lost.items():
            index[key] = self._placed(index[key], rows, gained.pop(key, ()))
        first = next(iter(lost), None)
        if self._spliced and first is not None and moved not in ([], [first]):
            keys = list(index)  # (a C-speed rebuild: a key moved)
            at = keys.index(first)
            keys[at:at] = moved
            keys = dict.fromkeys(keys)
            index = dict(zip(keys, map(index.get, keys, itertools.repeat(()))))
        for key, rows in gained.items():
            index[key] = index.get(key, ()) + tuple(rows)
        for key in lost:
            if not index[key]:
                del index[key]
        return index

    def _placed(self, rows: PyTuple[Any, ...], lost: List[Any],
                gained: List[Any]) -> PyTuple[Any, ...]:
        """*rows* without *lost*, and *gained* in the place of the first
        row lost — after them all where the order is the open map's."""
        if len(lost) == len(rows):  # (all of them)
            return tuple(gained)
        ids = set(map(id, lost))
        kept = tuple(row for row in rows if id(row) not in ids)
        at = (next(i for i, row in enumerate(rows) if id(row) in ids)
              if self._spliced else len(rows))
        return kept[:at] + tuple(gained) + kept[at:]

    def open_under_key(self, bound: Mapping[str, Any]
                       ) -> Optional[PyTuple[Any, ...]]:
        """The open rows under the schema-key value *bound* names, by one
        probe — ``None`` where none answers: no key, a key attribute left
        out, an unhashable value."""
        index = self._key_index()
        try:
            return None if index is None else index.get(
                tuple(bound[name] for name in self._schema.key), ())
        except (KeyError, TypeError):
            return None

    def candidates(self, match: Optional[Mapping[str, Any]]
                   ) -> Collection[Any]:
        """The open rows an operation's equality *match* can touch: one
        key's for a match binding the whole key, else all of them (in the
        state's order), none for an insert (no match)."""
        if match is None:
            return ()
        found = self.open_under_key(match)
        return list(self.in_order()) if found is None else found

    def probe(self, key: Mapping[str, Any]) -> Optional[Read]:
        """:meth:`Database.read <repro.core.base.Database.read>` under the
        schema-key value *key*: :meth:`open_under_key`'s rows, or None."""
        found = self.open_under_key(key)
        return None if found is None else Read(
            KEY_ACCESS, True, self.as_candidates(found))

    def in_order(self, keys: Optional[Iterable[PyTuple[Any, ...]]] = None
                 ) -> Iterator[Any]:
        """The open rows under the schema-key values *keys*, else all of
        them in the state's order (:attr:`_spliced`): the open map's where
        there is no index (no key)."""
        index = self._key_index()
        if index is None or keys is None and not self._spliced:
            return self.open_rows()
        return itertools.chain.from_iterable(
            index.values() if keys is None else map(index.get, keys,
                                                    itertools.repeat(())))

    def current(self) -> Any:
        """The most recent state: exactly the open partition, in
        :meth:`in_order`'s order.

        O(current state), memoized (the value is immutable, so the memo
        is per version).  A commit never calls this.  Nothing is deduped:
        each element is open once.
        """
        if self._current_cache is None:
            self._current_cache = self.state_in_force(self.in_order())
        return self._current_cache

    @property
    def rows(self) -> PyTuple[Any, ...]:
        """Every row the store holds."""
        if self._rows_cache is None:
            self._rows_cache = tuple(self._iter_rows())
        return self._rows_cache

    def _iter_rows(self) -> Iterator[Any]:
        return self.in_order()

    def __iter__(self) -> Iterator[Any]:
        return self._iter_rows()

    def pretty(self, title: Optional[str] = None, **style: Any) -> str:
        """Render the current state (Figure 2, or Figure 6's table)."""
        return self.current().pretty(title, **style)

    # -- the one commit path -----------------------------------------------------

    def advance(self, removed: Collection[Any], added: Collection[Any],
                commit_time: Instant, touched: Optional[Dict[Any, Any]] = None,
                mine: bool = False) -> "StateStore":
        """The version in which the elements *removed* left the state and
        *added* entered it at *commit_time*: O(Δ) plus C-speed copies of
        the open map and the key index — none where *mine* says this is
        its transaction's working copy already, changed in place (and
        :meth:`_record`'s work).  Keys whose rows changed go to *touched*."""
        if not removed and not added:
            return self
        successor = self if mine else self._copy()
        successor._key_index()  # (built before the open map changes)
        open_map = successor._open
        order = (tuple(open_map.values()) if removed and added
                 and self._spliced and not self._schema.key else None)
        gone = [open_map.pop(element) for element in removed]
        opened = self._record(successor, gone, added, commit_time)
        open_map.update(zip(added, opened))
        if order is not None:
            rows = self._placed(order, gone, opened)
            successor._open = dict(zip(map(self._element, rows), rows))
        successor._by_key = successor._key_index_after(gone, opened, touched)
        successor._current_cache = successor._rows_cache = None
        return successor

    def _copy(self) -> "StateStore":
        """A working copy of this version's open map and key index."""
        index = self._key_index()
        successor = type(self).__new__(type(self))
        successor._init_parts(self._schema, dict(self._open),
                              None if index is None else dict(index))
        return successor

    def _record(self, successor: "StateStore", gone: List[Any],
                added: Collection[Any], commit_time: Instant) -> List[Any]:
        """Keep in *successor* what this kind keeps of the rows *gone*
        from the state at *commit_time* (here nothing), and return the
        rows recording that the elements *added* entered it (here the
        elements themselves)."""
        return list(added)

    # -- value semantics ----------------------------------------------------------

    def __len__(self) -> int:
        return self.open_count

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


class TransactionTimeStore(StateStore):
    """Rows stamped with transaction time: an immutable value object.

    The current state's open map — one row per element — plus the
    *closed* log of rows whose transaction time has ended, shared by the
    versions :meth:`advance` derives (a commit never copies the past):
    versions descending from one original value share a *lineage* token
    and the log, and each sees a prefix of it.  A subclass adds
    :meth:`_stamp` (element, period → row) and :meth:`range_of` to
    :class:`StateStore`'s hooks.
    """

    __slots__ = ("_lineage", "_closed_log", "_closed_len", "_times_cache",
                 "_closing")

    _spliced = False  # (a dump writes the open map)

    @staticmethod
    def _stamp(element: Any, tt: Period) -> Any:
        """The row recording that *element* was in the state during *tt*."""
        raise NotImplementedError

    def range_of(self, rows: Iterable[Any]) -> Any:
        """What ``as of … through`` returns for the *rows* it selects."""
        raise NotImplementedError

    def __init__(self, schema: Schema, rows: Iterable[Any] = ()) -> None:
        element = self._element
        closed: List[Any] = []
        open_map: Dict[Any, Any] = {}
        for row in rows:
            if row.tt.hi == math.inf:
                key = element(row)
                if key not in open_map:
                    open_map[key] = row
                elif open_map[key] != row:  # (an equal row is the same row)
                    raise ConstraintViolation(
                        f"{self._data(row)} is open twice: an element is in "
                        "the current state at most once")
            else:
                closed.append(row)
        self._init_parts(schema, open_map, None)
        self._set_past(object(), closed)

    def _set_past(self, lineage: object, closed_log: List[Any]) -> None:
        self._lineage = lineage
        self._closed_log = closed_log
        self._closed_len = len(closed_log)
        self._times_cache: Optional[List[Instant]] = None
        #: ``(commit time, {element: (log position, open row)})``: the rows
        #: this version's commit closed, reopenable within its transaction.
        self._closing: Optional[PyTuple[Instant, Dict[Any, Any]]] = None

    # -- accessors ---------------------------------------------------------------

    def _iter_rows(self) -> Iterator[Any]:
        """Every timestamped row, past and current (:attr:`rows`)."""
        return itertools.chain(
            itertools.islice(self._closed_log, self._closed_len),
            self._open.values())

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
            if as_of is None:
                return self.probe(key)
            found = index().under_key(key, as_of, through)
            return None if found is None else Read(
                KEY_HISTORY_ACCESS, True, self.as_candidates(found))
        source = index() if indexed else self
        rows = (source.visible(now if as_of is None else as_of)
                if through is None else
                source.overlapping(Period.from_inclusive(as_of, through)))
        return Read(access, indexed, self.as_candidates(rows))

    def rollback(self, as_of: InstantLike) -> Any:
        """The state as of a transaction time (the paper's rollback)."""
        return self.state_of(self.visible(as_of))

    def visible_during(self, period: Period) -> Any:
        """What belonged to *some* state during the period.

        Backs TQuel's ``as of t1 through t2``: the union of the rollback
        states over the transaction-time range.
        """
        return self.range_of(self.overlapping(period))

    def states(self) -> List[PyTuple[Instant, Any]]:
        """The sequence of states (Figures 3 and 7): ``(t, rollback(t))``
        at every commit time, oldest first.  A view of the stamps, so a
        state per commit that stamped a row — every change; a transaction
        that left this store as it was stamps nothing."""
        return [(when, self.rollback(when)) for when in self.commit_times()]

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

    def _record(self, successor: "TransactionTimeStore", gone: List[Any],
                added: Collection[Any], commit_time: Instant) -> List[Any]:
        """The rows *gone* are closed at *commit_time* and appended to the
        log *successor* shares with this version — but a row opened and
        superseded within one transaction was never part of a committed
        state, and leaves no trace.  Each element *added* gets a row open
        from *commit_time* on — but one this transaction closed gets its
        row back, and the closed copy leaves the log (nothing changed, so
        nothing is stamped).  Semantically identical to the whole-relation
        ``naive_advance`` (property-tested)."""
        from_now_on = Period(commit_time, POS_INF)
        log = self._closed_log
        if len(log) != self._closed_len:
            # A sibling version — a batch that failed its constraint check,
            # a ``rehearse`` — wrote past this one's prefix: diverge onto a
            # private copy, so the installed version's view survives.
            log = log[:self._closed_len]
        closing = self._closing  # (None, or another transaction's: none)
        closing = ({} if closing is None or closing[0] != commit_time
                   else closing[1] if successor is self else dict(closing[1]))
        element, appended = self._element, len(log)
        for row in gone:
            if row.tt != from_now_on:
                closing[element(row)] = (len(log), row)
                log.append(_closed(row, commit_time))
        rows_closed, rows_opened = _obs.current().metrics.handles(
            "commit.rows_closed", lambda metrics: (
                metrics.counter("commit.rows_closed"),
                metrics.counter("commit.rows_opened")))
        rows_closed.inc(len(log) - appended)
        opened = []
        for new in added:
            if new not in closing:
                opened.append(self._stamp(new, from_now_on))
                continue
            at, row = closing.pop(new)
            last = log.pop()  # (swapped into the reopened row's place)
            if at < len(log):
                log[at] = last
                closing[element(last)] = (at, closing[element(last)][1])
            opened.append(row)
        rows_opened.inc(len(opened))
        successor._set_past(self._lineage, log)
        successor._closing = (commit_time, closing)
        return opened


def _closed(row: Any, commit_time: Instant) -> Any:
    """*row*, open since before *commit_time*, closed at it (at another
    granularity: :class:`~repro.errors.GranularityError`)."""
    end = chronon_number(commit_time, row.tt.unit, "build a period")
    return row._replace(tt=Period.from_chronons(row.tt.lo, end,
                                                commit_time.granularity))
