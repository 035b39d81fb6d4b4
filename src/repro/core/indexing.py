"""Temporal indexing: interval trees over valid and transaction time.

The value types in :mod:`repro.core` answer ``timeslice`` and ``rollback``
by scanning their rows.  That is fine at paper scale; at workload scale
the natural accelerator is a *stabbing* index over the periods.  This
module provides:

- :class:`IntervalTree` — a classic centered interval tree over periods
  (including unbounded ones), answering "which intervals contain this
  instant" in ``O(log n + k)``, with a small *delta overlay* so
  insertions and removals cost O(1)/O(Δ) amortized between
  threshold-triggered rebuilds;
- :class:`HistoricalIndex` — a timeslice accelerator for one historical
  state (a :class:`~repro.core.historical.HistoricalStore`, or a
  temporal relation's open rows);
- :class:`TransactionTimeIndex` — a rollback accelerator for one
  :class:`~repro.core.transaction_time.TransactionTimeStore` (a
  :class:`~repro.core.rollback.RollbackRelation` or a
  :class:`~repro.core.temporal.TemporalRelation`).  Transaction time is
  append-only, so this index is too: it holds the *closed* rows only —
  a tree, and per key a chain in closing order — and reads the open
  rows from the store.

Indexes are built over the *immutable* relation values, so a wrapper can
never silently go stale: the database kinds hand out fresh values per
commit, and :class:`DatabaseIndexCache` hands out a fresh wrapper per
relation *version*.  When successive versions share a storage lineage
(the incremental commit path), the cache patches the previous version's
structures with what the commit changed (``update``: the rows it closed,
or those that left and entered a historical state) instead of rebuilding.

The benchmark ``bench_indexing.py`` measures the win; the property suites
check index answers against the naive scans they replace.
"""

from __future__ import annotations

import bisect
import copy
import math
import threading
from collections import Counter
from operator import attrgetter, itemgetter
from typing import (Any, Dict, Generic, Iterable, List, Mapping, Optional,
                    Tuple as PyTuple, TypeVar, Union)

from repro.core.historical import HistoricalRelation, HistoricalStore
from repro.core.lineage import version_delta
from repro.core.temporal import TemporalRelation
from repro.core.transaction_time import TransactionTimeStore
from repro.obs import runtime as _obs
from repro.relational.relation import Relation
from repro.time.chronon import require_same_granularity
from repro.time.instant import instant as _coerce
from repro.time.period import Period, chronon_number, first_unit

Payload = TypeVar("Payload")

#: Unbounded endpoints are mapped onto IEEE infinities so plain numeric
#: comparison orders them against integer chronons.
_NEG = -math.inf
_POS = math.inf
#: A stored ``(lo, hi, payload)`` triple's start and exclusive end.
_START = itemgetter(0)
_END = itemgetter(1)
#: A stored row's transaction-time end: a closed chain's sort key.
_TT_END = attrgetter("tt.hi")


def _spend(dead: Dict[Any, int], triple: Any) -> bool:
    """Use up one of *triple*'s tombstones in *dead*, a query's working
    copy: each dead duplicate suppresses exactly one matching entry."""
    count = dead[triple]
    dead[triple] = count - 1
    return count > 0


class _Node(Generic[Payload]):
    __slots__ = ("center", "by_start", "by_end", "left", "right")

    def __init__(self, center: float) -> None:
        self.center = center
        # Intervals containing the center, sorted two ways for the
        # classic asymmetric stabbing scans.
        self.by_start: List[PyTuple[float, float, Payload]] = []
        self.by_end: List[PyTuple[float, float, Payload]] = []
        self.left: Optional["_Node[Payload]"] = None
        self.right: Optional["_Node[Payload]"] = None


class IntervalTree(Generic[Payload]):
    """A centered interval tree over half-open periods.

    Built from ``(period, payload)`` pairs; :meth:`stab` returns the
    payloads of every period containing a given instant.  Handles
    unbounded periods (``-∞`` / ``∞`` endpoints) transparently.

    Mutation happens through a delta overlay: :meth:`insert` appends to a
    small side list, :meth:`discard` tombstones a tree entry; queries
    consult both.  Once the overlay exceeds a fraction of the tree
    (:attr:`REBUILD_FRACTION`, floor :attr:`REBUILD_MIN`), the live
    intervals are folded into a fresh balanced tree — so a long edit
    stream costs O(Δ log n) amortized, never O(n log n) per edit.
    """

    #: Rebuild when pending edits exceed base_size / REBUILD_FRACTION ...
    REBUILD_FRACTION = 8
    #: ... but never before this many edits accumulate.
    REBUILD_MIN = 32

    def __init__(self, items: Iterable[PyTuple[Period, Payload]]) -> None:
        # The unit the naive scans' Period operations would enforce (the
        # first period's that has one), checked on every query.
        items = list(items)
        self._granularity = first_unit(period for period, _ in items)
        self._reset([(period.lo, period.hi, payload)
                     for period, payload in items])

    def _reset(self, triples: List[PyTuple[float, float, Payload]]) -> None:
        self._base = triples
        # Built by the first discard, the one reader: it hashes every row.
        self._base_counts: Optional[Counter] = None
        self._extra: List[PyTuple[float, float, Payload]] = []
        self._dead: Dict[PyTuple[float, float, Payload], int] = {}
        self._pending = 0
        self._size = len(triples)
        self._root = self._build(triples)

    @property
    def size(self) -> int:
        """The number of live indexed intervals."""
        return self._size

    @property
    def pending_edits(self) -> int:
        """Overlay edits (inserts + tombstones) since the last rebuild."""
        return self._pending

    def _build(self, triples: List[PyTuple[float, float, Payload]]
               ) -> Optional[_Node[Payload]]:
        if not triples:
            return None
        # Median of the finite endpoints keeps the tree balanced even with
        # many unbounded intervals: sort them all, bisect off the infinities.
        endpoints = [lo for lo, _, _ in triples]
        endpoints += [hi for _, hi, _ in triples]
        endpoints.sort()
        first = bisect.bisect_right(endpoints, _NEG)
        last = bisect.bisect_left(endpoints, _POS)
        if first < last:
            center = endpoints[first + (last - first) // 2]
        else:
            center = 0.0  # every interval is (-∞, ∞); all land here
        node = _Node(center)
        left_items: List[PyTuple[float, float, Payload]] = []
        right_items: List[PyTuple[float, float, Payload]] = []
        for triple in triples:
            lo, hi, _ = triple
            if hi <= center:
                left_items.append(triple)
            elif lo > center:
                right_items.append(triple)
            else:
                node.by_start.append(triple)
        # Guard against degenerate splits that would not shrink (possible
        # only when every interval shares the median endpoint structure).
        if len(left_items) == len(triples) or len(right_items) == len(triples):
            node.by_start.extend(left_items + right_items)
            left_items, right_items = [], []
        node.by_start.sort(key=_START)
        # Stable either way: equal ends keep their by_start order.
        node.by_end = sorted(node.by_start, key=_END, reverse=True)
        node.left = self._build(left_items)
        node.right = self._build(right_items)
        return node

    # -- incremental maintenance -----------------------------------------------

    def insert(self, period: Period, payload: Payload) -> None:
        """Add one interval through the overlay (O(1) amortized)."""
        self._granularity = self._granularity or period.unit
        self._extra.append((period.lo, period.hi, payload))
        self._size += 1
        self._pending += 1
        self._maybe_rebuild()

    def discard(self, period: Period, payload: Payload) -> bool:
        """Remove one interval; False if it is not in the index.

        A tree-resident interval is tombstoned (queries filter it out);
        an overlay interval is removed outright.  Duplicate identical
        intervals are respected: one call removes one copy.
        """
        triple = (period.lo, period.hi, payload)
        if self._base_counts is None:
            self._base_counts = Counter(self._base)
        live_in_base = (self._base_counts.get(triple, 0)
                        - self._dead.get(triple, 0))
        if live_in_base > 0:
            self._dead[triple] = self._dead.get(triple, 0) + 1
            self._size -= 1
            self._pending += 1
            self._maybe_rebuild()
            return True
        try:
            self._extra.remove(triple)
        except ValueError:
            return False
        self._size -= 1
        return True

    def _maybe_rebuild(self) -> None:
        threshold = max(self.REBUILD_MIN,
                        len(self._base) // self.REBUILD_FRACTION)
        if self._pending <= threshold:
            return
        _obs.current().metrics.counter("index.tree.fold_rebuilds").inc()
        dead = dict(self._dead)
        self._reset([triple for triple in self._base if triple not in dead
                     or not _spend(dead, triple)] + self._extra)

    # -- queries --------------------------------------------------------------

    def stab(self, when) -> List[Payload]:
        """Payloads of every interval containing *when* (an instant)."""
        point = chronon_number(_coerce(when), self._granularity,
                               "stab a temporal index")
        dead = dict(self._dead) if self._dead else None  # (see _spend)
        found: List[Payload] = []
        node = self._root
        while node is not None:
            if point < node.center:
                # Only intervals starting at or before the point can match.
                for triple in node.by_start:
                    lo, hi, payload = triple
                    if lo > point:
                        break
                    if point < hi and (dead is None or triple not in dead
                                       or not _spend(dead, triple)):
                        found.append(payload)
                node = node.left
            else:
                # point >= center: every stored interval starts <= center
                # <= point, so filter on the (descending) exclusive ends.
                for triple in node.by_end:
                    lo, hi, payload = triple
                    if hi <= point:
                        break
                    if (dead is None or triple not in dead
                            or not _spend(dead, triple)):
                        found.append(payload)
                node = node.right
        for lo, hi, payload in self._extra:
            if lo <= point < hi:
                found.append(payload)
        return found

    def overlapping(self, period: Period) -> List[Payload]:
        """Payloads of every interval sharing a chronon with *period*.

        Implemented by walking the whole relevant subtree span: an
        interval overlaps ``[lo, hi)`` iff it starts before ``hi`` and
        ends after ``lo``.  Backs transaction-time range queries
        (``as of ... through``) at index speed.
        """
        require_same_granularity(period.unit, self._granularity,
                                 "stab a temporal index")
        lo, hi = period.lo, period.hi
        dead = dict(self._dead) if self._dead else None
        found: List[Payload] = []
        stack = [self._root]
        while stack:
            node = stack.pop()
            if node is None:
                continue
            if hi <= node.center:
                # Query lies left of the center: stored intervals need
                # start < hi to overlap.
                for triple in node.by_start:
                    start, end, payload = triple
                    if start >= hi:
                        break
                    if end > lo and (dead is None or triple not in dead
                                     or not _spend(dead, triple)):
                        found.append(payload)
                stack.append(node.left)
            elif lo > node.center:
                # Query lies right: stored intervals need end > lo.
                for triple in node.by_end:
                    start, end, payload = triple
                    if end <= lo:
                        break
                    if start < hi and (dead is None or triple not in dead
                                       or not _spend(dead, triple)):
                        found.append(payload)
                stack.append(node.right)
            else:
                # The query straddles the center: every stored interval
                # contains the center, hence overlaps; recurse both ways.
                for triple in node.by_start:
                    start, end, payload = triple
                    if start < hi and end > lo and (
                            dead is None or triple not in dead
                            or not _spend(dead, triple)):
                        found.append(payload)
                stack += (node.left, node.right)
        for start, end, payload in self._extra:
            if start < hi and end > lo:
                found.append(payload)
        return found

    def __len__(self) -> int:
        return self._size


_HistoricalState = Union[HistoricalRelation, HistoricalStore,
                         TemporalRelation]


class HistoricalIndex:
    """Timeslice acceleration for one historical state.

    The state is a :class:`HistoricalRelation` value, or the open
    partition of a :class:`HistoricalStore` or a :class:`TemporalRelation`
    (its current historical state, indexed in place rather than
    materialised per version).
    """

    def __init__(self, relation: _HistoricalState) -> None:
        self._relation = relation
        rows = (relation.rows if isinstance(relation, HistoricalRelation)
                else relation.in_order())
        self._tree: IntervalTree = IntervalTree(
            (row.valid, row.data) for row in rows)

    @property
    def relation(self) -> _HistoricalState:
        """The indexed (immutable) relation value."""
        return self._relation

    @property
    def size(self) -> int:
        """The number of live indexed intervals."""
        return self._tree.size

    def timeslice(self, valid_at) -> Relation:
        """Same result as ``relation.timeslice``, via the interval tree."""
        return Relation(self._relation.schema, self._tree.stab(valid_at))

    def update(self, new_relation: _HistoricalState
               ) -> Optional["HistoricalIndex"]:
        """A fresh index over *new_relation*, patching this index's tree.

        The tree is edited with the rows that left and entered the state
        between the two versions, read off the lineage's log slices
        (O(Δ log n) amortized; a row that did both cancels out), and
        handed to a new wrapper; the stale wrapper must not be queried
        afterwards.  Returns ``None`` when the values are unrelated — the
        caller then rebuilds.
        """
        delta = version_delta(self._relation, new_relation)
        if delta is None:
            return None
        left, entered = delta
        net = Counter((row.valid, row.data) for row in entered)
        net.subtract((row.valid, row.data) for row in left)
        for (valid, data), change in net.items():
            if change > 0:
                self._tree.insert(valid, data)
            elif change < 0 and not self._tree.discard(valid, data):
                return None
        fresh = copy.copy(self)
        fresh._relation = new_relation
        return fresh


def _in_force(rows: Iterable[Any], first: float, last: float) -> List[Any]:
    """The *rows* in the state at some chronon ``first`` … ``last``."""
    return [row for row in rows if row.tt.lo <= last and first < row.tt.hi]


class TransactionTimeIndex:
    """Rollback acceleration for one transaction-time store.

    Transaction time is append-only (Figure 12): a closed row never
    changes.  So the index holds the **closed** rows only, insert-only, in
    two forms each built by the first read that needs it and patched from
    ``closed_since``: an :class:`IntervalTree`, and per schema-key value
    the key's rows in closing order, where one bisect finds those closed
    after a pin.  The open rows are the store's own (in force at a pin iff
    started by it); the store says what state the rows amount to.
    """

    def __init__(self, relation: TransactionTimeStore) -> None:
        self._relation = relation
        self._tree: Optional[IntervalTree] = None
        self._chains: Optional[Dict[PyTuple[Any, ...], List[Any]]] = None

    @property
    def relation(self) -> TransactionTimeStore:
        """The indexed (immutable) store value."""
        return self._relation

    @property
    def size(self) -> int:
        """The number of rows, closed and open, the index answers for."""
        return len(self._relation)

    def _closed_tree(self) -> IntervalTree:
        if self._tree is None:
            self._tree = IntervalTree(
                (row.tt, row) for row in self._relation.closed_since())
        return self._tree

    def _key_chains(self) -> Dict[PyTuple[Any, ...], List[Any]]:
        if self._chains is None:  # (a loaded store's rows: file order)
            self._chains = self._relation._by_key_of(
                sorted(self._relation.closed_since(), key=_TT_END))
        return self._chains

    def _bounds(self, when=None, period=None) -> PyTuple[float, float]:
        """A pin *when*, or a *period*, as its first and last chronon
        numbers, in the unit of the store's rows (if it has any)."""
        first = next(iter(self._relation), None)
        unit, context = first and first.tt.unit, "stab a temporal index"
        if period is not None:
            require_same_granularity(period.unit, unit, context)
            return period.lo, period.hi - 1
        point = chronon_number(_coerce(when), unit, context)
        return point, point

    def visible(self, as_of) -> List[Any]:
        """The stored rows whose transaction time contains *as_of*."""
        return self._closed_tree().stab(as_of) + _in_force(
            self._relation.open_rows(), *self._bounds(as_of))

    def rollback(self, as_of):
        """Same result as ``relation.rollback``, via the index (which
        serves a database's stores: ``state_in_force``)."""
        return self._relation.state_in_force(self.visible(as_of))

    def overlapping(self, period: Period) -> List[Any]:
        """The stored rows whose transaction time overlaps *period*."""
        return self._closed_tree().overlapping(period) + _in_force(
            self._relation.open_rows(), *self._bounds(period=period))

    def visible_during(self, period: Period):
        """Same result as ``relation.visible_during``, via the index."""
        return self._relation.range_of(self.overlapping(period))

    def under_key(self, bound: Mapping[str, Any], as_of, through=None
                  ) -> Optional[List[Any]]:
        """The rows of the key *bound* names in force as of *as_of* (or up
        to *through*, inclusive): one bisect of the key's closed chain plus
        its open rows; ``None`` where ``open_under_key`` cannot answer."""
        open_rows = self._relation.open_under_key(bound)
        if open_rows is None:
            return None
        first, last = self._bounds(as_of, None if through is None else
                                   Period.from_inclusive(as_of, through))
        chain = self._key_chains().get(
            tuple(bound[name] for name in self._relation.schema.key), [])
        return _in_force(chain[bisect.bisect_right(chain, first, key=_TT_END):]
                         + list(open_rows), first, last)

    def timeslice(self, valid_at, as_of) -> Relation:
        """Same result as ``relation.timeslice(valid_at, as_of)`` (stores
        with valid time only): the state as of *as_of*, sliced."""
        return self.rollback(as_of).timeslice(valid_at)

    def update(self, new_relation: TransactionTimeStore
               ) -> Optional["TransactionTimeIndex"]:
        """A fresh index over *new_relation*: this one's tree and chains,
        patched with the rows closed in between (inserts only; the stale
        wrapper must not be queried after).  ``None`` across lineages."""
        closed = new_relation.closed_since(self._relation.closed_mark())
        if closed is None:
            return None
        if self._tree is not None:
            for row in closed:
                self._tree.insert(row.tt, row)
        if self._chains is not None:
            for key, rows in new_relation._by_key_of(closed).items():
                self._chains[key] += rows
        fresh = TransactionTimeIndex(new_relation)
        fresh._tree, fresh._chains = self._tree, self._chains
        return fresh


class DatabaseIndexCache:
    """Fresh-by-construction index cache for a live database.

    One slot per ``(relation name, index flavor)``, stamped with the
    relation's *version* (:meth:`~repro.core.base.Database.
    relation_version`): a commit that touches relation A no longer
    invalidates relation B's index, and DDL on other relations is
    invisible too.  On a version miss the previous index is *patched*
    with the commit delta when the storage lineage allows (O(Δ log n));
    only unrelated values force a full rebuild.

    The plain-int counters (:attr:`hits`, :attr:`misses`,
    :attr:`incremental_updates`) are always live for tests and benchmarks;
    the same events are mirrored into the process instrumentation
    (:mod:`repro.obs`) as ``index.cache.hits`` / ``index.cache.misses`` /
    ``index.cache.patches``, plus an ``index.tree.size.<name>.<flavor>``
    gauge per served index, whenever recording is on.
    """

    def __init__(self, database) -> None:
        self._db = database
        self._slots: Dict[PyTuple[str, str], PyTuple[int, Any]] = {}
        self.hits = self.misses = self.incremental_updates = 0
        self._lock = threading.Lock()

    def _get(self, name: str, flavor: str, index_type):
        """The *flavor* index over the store of *name*, current as of the
        relation's version: served, patched from the previous version's,
        or built."""
        metrics = _obs.current().metrics
        version = self._db.relation_version(name)
        key = (name, flavor)
        with self._lock:  # (readers run on threads; versions share trees)
            cached_version, index = self._slots.get(key, (None, None))
            if cached_version == version:
                self.hits += 1
                metrics.counter("index.cache.hits").inc()
                return index
            fresh = index and index.update(self._db.store(name))
            if fresh is not None:
                self.incremental_updates += 1
                metrics.counter("index.cache.patches").inc()
            else:
                self.misses += 1
                metrics.counter("index.cache.misses").inc()
                fresh = index_type(self._db.store(name))
            self._slots[key] = (version, fresh)
            metrics.gauge(f"index.tree.size.{name}.{flavor}").set(fresh.size)
            return fresh

    def historical(self, name: str) -> HistoricalIndex:
        """A current HistoricalIndex over ``database.history(name)``.

        A temporal database's history is the open partition of its
        bitemporal relation, indexed in place.
        """
        return self._get(name, "historical", HistoricalIndex)

    def rollback(self, name: str) -> TransactionTimeIndex:
        """A current index over the interval store of *name*."""
        return self._get(name, "rollback", TransactionTimeIndex)

    def bitemporal(self, name: str) -> TransactionTimeIndex:
        """A current index over ``database.temporal(name)``."""
        return self._get(name, "bitemporal", TransactionTimeIndex)
