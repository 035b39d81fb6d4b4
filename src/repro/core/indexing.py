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
- :class:`HistoricalIndex` — a timeslice accelerator for one
  :class:`~repro.core.historical.HistoricalRelation`;
- :class:`TransactionTimeIndex` — a rollback accelerator for one
  :class:`~repro.core.transaction_time.TransactionTimeStore` (a
  :class:`~repro.core.rollback.RollbackRelation` or a
  :class:`~repro.core.temporal.TemporalRelation`): a transaction-time
  tree, and for the latter per-state valid-time slices under it.

Indexes are built over the *immutable* relation values, so a wrapper can
never silently go stale: the database kinds hand out fresh values per
commit, and :class:`DatabaseIndexCache` hands out a fresh wrapper per
relation *version*.  When successive versions share a storage lineage
(the incremental commit path), the cache patches the previous version's
tree with the row delta (``update``) instead of rebuilding from scratch —
a commit costs O(Δ log n) index upkeep.

The benchmark ``bench_indexing.py`` measures the win; the property suite
checks index answers against the naive scans they replace.
"""

from __future__ import annotations

import bisect
import math
from collections import Counter
from operator import itemgetter
from typing import (Any, Dict, Generic, Iterable, List, Optional, Sequence,
                    Tuple as PyTuple, TypeVar, Union)

from repro.core.historical import HistoricalRelation
from repro.core.lineage import version_delta
from repro.core.temporal import TemporalRelation
from repro.core.transaction_time import TransactionTimeStore
from repro.obs import runtime as _obs
from repro.relational.relation import Relation
from repro.time.chronon import require_same_granularity
from repro.time.instant import Instant, POS_INF, instant as _coerce
from repro.time.period import Period

Payload = TypeVar("Payload")

#: Unbounded endpoints are mapped onto IEEE infinities so plain numeric
#: comparison orders them against integer chronons.
_NEG = -math.inf
_POS = math.inf
#: A stored ``(lo, hi, payload)`` triple's start and exclusive end.
_START = itemgetter(0)
_END = itemgetter(1)


def _lo(period: Period) -> float:
    return period.start.chronon if period.start.is_finite else _NEG


def _hi(period: Period) -> float:
    """Exclusive upper bound as a number."""
    return period.end.chronon if period.end.is_finite else _POS


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
        # The probe-time granularity the naive scans would have enforced
        # through Instant comparison; remembered from the first finite
        # endpoint and checked on every query.
        self._granularity = None
        triples = []
        for period, payload in items:
            self._note_granularity(period)
            triples.append((_lo(period), _hi(period), payload))
        self._reset(triples)

    def _note_granularity(self, period: Period) -> None:
        if self._granularity is None:
            if period.start.is_finite:
                self._granularity = period.start.granularity
            elif period.end.is_finite:
                self._granularity = period.end.granularity

    def _check_instant(self, when: Instant) -> None:
        if when.is_finite and self._granularity is not None:
            require_same_granularity(when.granularity, self._granularity,
                                     "stab a temporal index")

    def _check_period(self, period: Period) -> None:
        self._check_instant(period.start)
        self._check_instant(period.end)

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
        node = _Node[Payload](center)
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
        self._note_granularity(period)
        self._extra.append((_lo(period), _hi(period), payload))
        self._size += 1
        self._pending += 1
        self._maybe_rebuild()

    def discard(self, period: Period, payload: Payload) -> bool:
        """Remove one interval; False if it is not in the index.

        A tree-resident interval is tombstoned (queries filter it out);
        an overlay interval is removed outright.  Duplicate identical
        intervals are respected: one call removes one copy.
        """
        triple = (_lo(period), _hi(period), payload)
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
        live: List[PyTuple[float, float, Payload]] = []
        remaining = dict(self._dead)
        for triple in self._base:
            count = remaining.get(triple, 0)
            if count:
                remaining[triple] = count - 1
                continue
            live.append(triple)
        live.extend(self._extra)
        self._reset(live)

    # -- queries --------------------------------------------------------------

    def stab(self, when) -> List[Payload]:
        """Payloads of every interval containing *when* (an instant)."""
        point_instant = _coerce(when)
        self._check_instant(point_instant)
        if point_instant.is_finite:
            point: float = point_instant.chronon
        elif point_instant.is_pos_inf:
            point = _POS
        else:
            point = _NEG
        # Tombstones are filtered against a local working copy so each
        # dead duplicate suppresses exactly one matching tree entry.
        dead = dict(self._dead) if self._dead else None
        found: List[Payload] = []
        node = self._root
        while node is not None:
            if point < node.center:
                # Only intervals starting at or before the point can match.
                for triple in node.by_start:
                    lo, hi, payload = triple
                    if lo > point:
                        break
                    if point < hi:
                        if dead is not None:
                            count = dead.get(triple, 0)
                            if count:
                                dead[triple] = count - 1
                                continue
                        found.append(payload)
                node = node.left
            else:
                # point >= center: every stored interval starts <= center
                # <= point, so filter on the (descending) exclusive ends.
                for triple in node.by_end:
                    lo, hi, payload = triple
                    if hi <= point:
                        break
                    if dead is not None:
                        count = dead.get(triple, 0)
                        if count:
                            dead[triple] = count - 1
                            continue
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
        self._check_period(period)
        lo, hi = _lo(period), _hi(period)
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
                    if end > lo:
                        if dead is not None:
                            count = dead.get(triple, 0)
                            if count:
                                dead[triple] = count - 1
                                continue
                        found.append(payload)
                stack.append(node.left)
            elif lo > node.center:
                # Query lies right: stored intervals need end > lo.
                for triple in node.by_end:
                    start, end, payload = triple
                    if end <= lo:
                        break
                    if start < hi:
                        if dead is not None:
                            count = dead.get(triple, 0)
                            if count:
                                dead[triple] = count - 1
                                continue
                        found.append(payload)
                stack.append(node.right)
            else:
                # The query straddles the center: every stored interval
                # contains the center, hence overlaps; recurse both ways.
                for triple in node.by_start:
                    start, end, payload = triple
                    if start < hi and end > lo:
                        if dead is not None:
                            count = dead.get(triple, 0)
                            if count:
                                dead[triple] = count - 1
                                continue
                        found.append(payload)
                stack.append(node.left)
                stack.append(node.right)
        for start, end, payload in self._extra:
            if start < hi and end > lo:
                found.append(payload)
        return found

    def __len__(self) -> int:
        return self._size


def _partition_delta(old, new):
    """``(removed, added)`` rows between two versions of one
    :class:`~repro.core.transaction_time.TransactionTimeStore`.

    Read off the lineage's two log slices, O(Δ) with no look at either
    state: every row closed in between is added, and its open form is
    removed — unless it was also *opened* in between, in which case the
    open form was never indexed and is simply not added.  Returns
    ``None`` when the versions are unrelated (different storage lineage,
    e.g. after a drop/redefine, a deserialized overwrite or a derived
    value), in which case the caller rebuilds from scratch.
    """
    delta = version_delta(old, new)
    if delta is None:
        return None
    closed, opened = delta
    entered = dict.fromkeys(opened)
    removed = []
    for row in closed:
        was_open = row._replace(tt=Period(row.tt.start, POS_INF))
        if was_open in entered:
            del entered[was_open]
        else:
            removed.append(was_open)
    return removed, closed + list(entered)


_HistoricalState = Union[HistoricalRelation, TemporalRelation]


class HistoricalIndex:
    """Timeslice acceleration for one historical state.

    The state is a :class:`HistoricalRelation` value, or the open
    partition of a :class:`TemporalRelation` (its current historical
    state, indexed in place rather than materialised per version).
    """

    def __init__(self, relation: _HistoricalState) -> None:
        self._relation = relation
        rows = (relation.rows if isinstance(relation, HistoricalRelation)
                else relation.open_rows())
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
        net: Dict[PyTuple[Period, Any], int] = {}
        for rows, change in ((entered, 1), (left, -1)):
            for row in rows:
                interval = (row.valid, row.data)
                net[interval] = net.get(interval, 0) + change
        tree = self._tree
        for (valid, data), change in net.items():
            if change > 0:
                tree.insert(valid, data)
            elif change < 0 and not tree.discard(valid, data):
                return None
        fresh = HistoricalIndex.__new__(HistoricalIndex)
        fresh._relation = new_relation
        fresh._tree = tree
        return fresh


class TransactionTimeIndex:
    """Rollback acceleration for one transaction-time store.

    A transaction-time tree finds the rows visible as of ``t``; the store
    says what state they amount to (a static relation for a rollback
    store, a historical one for a temporal relation).  For the latter a
    valid-time tree over *those* rows answers the bitemporal timeslice;
    these are memoized per distinct rollback instant actually queried,
    which matches the access pattern of audit workloads (few distinct
    as-of instants, many valid-time probes each).
    """

    def __init__(self, relation: TransactionTimeStore) -> None:
        self._relation = relation
        self._tree: IntervalTree = IntervalTree(
            (row.tt, row) for row in relation.rows)
        self._state_indexes: Dict[Instant, HistoricalIndex] = {}

    @property
    def relation(self) -> TransactionTimeStore:
        """The indexed (immutable) store value."""
        return self._relation

    @property
    def size(self) -> int:
        """The number of live indexed intervals."""
        return self._tree.size

    def visible(self, as_of) -> List[Any]:
        """The stored rows whose transaction time contains *as_of*."""
        return self._tree.stab(as_of)

    def rollback(self, as_of):
        """Same result as ``relation.rollback``, via the tree."""
        return self._relation.state_of(self._tree.stab(as_of))

    def overlapping(self, period: Period) -> List[Any]:
        """The stored rows whose transaction time overlaps *period*."""
        return self._tree.overlapping(period)

    def visible_during(self, period: Period):
        """Same result as ``relation.visible_during``, via the tree."""
        return self._relation.range_of(self._tree.overlapping(period))

    def timeslice(self, valid_at, as_of) -> Relation:
        """Same result as ``relation.timeslice(valid_at, as_of)`` (stores
        with valid time only)."""
        when = _coerce(as_of)
        index = self._state_indexes.get(when)
        if index is None:
            index = HistoricalIndex(self.rollback(when))
            self._state_indexes[when] = index
        return index.timeslice(valid_at)

    def update(self, new_relation: TransactionTimeStore
               ) -> Optional["TransactionTimeIndex"]:
        """A fresh index over *new_relation*, patching this index's tree.

        Uses the structural partition delta — O(Δ log n) amortized per
        commit, independent of how many rows the store has accumulated.
        ``None`` when the two values do not share a storage lineage (the
        caller rebuilds from scratch).
        """
        delta = _partition_delta(self._relation, new_relation)
        if delta is None:
            return None
        removed, added = delta
        tree = self._tree
        for row in removed:
            if not tree.discard(row.tt, row):
                return None
        for row in added:
            tree.insert(row.tt, row)
        fresh = TransactionTimeIndex.__new__(TransactionTimeIndex)
        fresh._relation = new_relation
        fresh._tree = tree
        # Per-as-of valid-time slices are rebuilt lazily on demand; the
        # memo keys (instants) would survive, but dropping them keeps the
        # wrapper's lifetime bounded by what is actually queried.
        fresh._state_indexes = {}
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
        self.hits = 0
        self.misses = 0
        self.incremental_updates = 0

    def _get(self, name: str, flavor: str, index_type, source):
        """The *flavor* index over ``source(name)``, current as of the
        relation's version: served, patched from the previous version's,
        or built."""
        metrics = _obs.current().metrics
        version = self._db.relation_version(name)
        slot = self._slots.get((name, flavor))
        if slot is not None:
            cached_version, index = slot
            if cached_version == version:
                self.hits += 1
                metrics.counter("index.cache.hits").inc()
                return index
            fresh = index.update(source(name))
            if fresh is not None:
                self.incremental_updates += 1
                self._slots[(name, flavor)] = (version, fresh)
                metrics.counter("index.cache.patches").inc()
                metrics.gauge(f"index.tree.size.{name}.{flavor}").set(
                    fresh.size)
                return fresh
        self.misses += 1
        metrics.counter("index.cache.misses").inc()
        index = index_type(source(name))
        self._slots[(name, flavor)] = (version, index)
        metrics.gauge(f"index.tree.size.{name}.{flavor}").set(index.size)
        return index

    def historical(self, name: str) -> HistoricalIndex:
        """A current HistoricalIndex over ``database.history(name)``.

        A temporal database's history is the open partition of its
        bitemporal relation, indexed in place.
        """
        return self._get(name, "historical", HistoricalIndex, self._db.store)

    def rollback(self, name: str) -> TransactionTimeIndex:
        """A current index over the interval store of *name*."""
        return self._get(name, "rollback", TransactionTimeIndex,
                         self._db.store)

    def bitemporal(self, name: str) -> TransactionTimeIndex:
        """A current index over ``database.temporal(name)``."""
        return self._get(name, "bitemporal", TransactionTimeIndex,
                         self._db.store)
