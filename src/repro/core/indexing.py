"""Temporal indexing: an interval tree over transaction time.

Transaction time is append-only (Figure 12): a row whose transaction
period has closed never changes again.  So the past of a
:class:`~repro.core.transaction_time.TransactionTimeStore` (a
:class:`~repro.core.rollback.RollbackRelation` or a
:class:`~repro.core.temporal.TemporalRelation`) can be indexed once and
only ever grow.  This module provides:

- :class:`IntervalTree` — a classic centered interval tree over periods
  (including unbounded ones), answering "which intervals contain this
  instant" in ``O(log n + k)``, with a small insert overlay folded into a
  fresh balanced tree at a threshold, so a long insert stream costs
  O(log n) amortized per row;
- :class:`TransactionTimeIndex` — a rollback accelerator for one
  transaction-time store: it holds the *closed* rows only — a tree, and
  per key a chain in closing order — and reads the open rows from the
  store;
- :class:`DatabaseIndexCache` — one index per relation *version*: when
  successive versions share a closed log (the commit path), the previous
  version's structures are patched with the rows the commit closed
  instead of rebuilt.

Valid time allows arbitrary modification, so it has no index: a
timeslice of the current state is one pass over its rows
(:meth:`~repro.core.historical.HistoricalRelation.timeslice`).

The benchmark ``bench_indexing.py`` measures the win; the property suites
check index answers against the naive scans they replace.
"""

from __future__ import annotations

import bisect
import math
import threading
from operator import attrgetter, itemgetter
from typing import (Any, Dict, Generic, Iterable, List, Mapping, Optional,
                    Tuple as PyTuple, TypeVar)

from repro.core.transaction_time import TransactionTimeStore
from repro.obs import runtime as _obs
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
    """A centered interval tree over half-open periods, insert-only.

    Built from ``(period, payload)`` pairs; :meth:`stab` returns the
    payloads of every period containing a given instant.  Handles
    unbounded periods (``-∞`` / ``∞`` endpoints) transparently.

    :meth:`insert` appends to a small overlay list that queries scan too.
    Once the overlay exceeds a fraction of the tree
    (:attr:`REBUILD_FRACTION`, floor :attr:`REBUILD_MIN`), every interval
    is folded into a fresh balanced tree — so a long insert stream costs
    O(log n) amortized, never O(n log n) per insert.  One thread inserts
    (a caller's lock); queries may run on others meanwhile: the tree and
    its overlay are swapped in one assignment, so a query reads one
    consistent pair.
    """

    #: Rebuild when the overlay exceeds base_size / REBUILD_FRACTION ...
    REBUILD_FRACTION = 8
    #: ... but never before this many inserts accumulate.
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
        #: ``(root, overlay)``: what a query reads, as one value.
        self._parts: PyTuple[Optional[_Node[Payload]],
                             List[PyTuple[float, float, Payload]]] = (
            self._build(triples), [])

    @property
    def size(self) -> int:
        """The number of indexed intervals."""
        return len(self._base) + len(self._parts[1])

    @property
    def pending_edits(self) -> int:
        """Overlay inserts since the last rebuild."""
        return len(self._parts[1])

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

    def insert(self, period: Period, payload: Payload) -> None:
        """Add one interval through the overlay (O(1) amortized)."""
        self._granularity = self._granularity or period.unit
        extra = self._parts[1]
        extra.append((period.lo, period.hi, payload))
        if len(extra) > max(self.REBUILD_MIN,
                            len(self._base) // self.REBUILD_FRACTION):
            _obs.current().metrics.counter("index.tree.fold_rebuilds").inc()
            self._reset(self._base + extra)

    # -- queries --------------------------------------------------------------

    def stab(self, when) -> List[Payload]:
        """Payloads of every interval containing *when* (an instant)."""
        point = chronon_number(_coerce(when), self._granularity,
                               "stab a temporal index")
        node, extra = self._parts
        found: List[Payload] = []
        while node is not None:
            if point < node.center:
                # Only intervals starting at or before the point can match.
                for lo, hi, payload in node.by_start:
                    if lo > point:
                        break
                    if point < hi:
                        found.append(payload)
                node = node.left
            else:
                # point >= center: every stored interval starts <= center
                # <= point, so filter on the (descending) exclusive ends.
                for lo, hi, payload in node.by_end:
                    if hi <= point:
                        break
                    found.append(payload)
                node = node.right
        for lo, hi, payload in extra:
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
        root, extra = self._parts
        found: List[Payload] = []
        stack = [root]
        while stack:
            node = stack.pop()
            if node is None:
                continue
            if hi <= node.center:
                # Query lies left of the center: stored intervals need
                # start < hi to overlap.
                for start, end, payload in node.by_start:
                    if start >= hi:
                        break
                    if end > lo:
                        found.append(payload)
                stack.append(node.left)
            elif lo > node.center:
                # Query lies right: stored intervals need end > lo.
                for start, end, payload in node.by_end:
                    if end <= lo:
                        break
                    if start < hi:
                        found.append(payload)
                stack.append(node.right)
            else:
                # The query straddles the center: every stored interval
                # contains the center, hence overlaps; recurse both ways.
                for start, end, payload in node.by_start:
                    if start < hi and end > lo:
                        found.append(payload)
                stack += (node.left, node.right)
        for start, end, payload in extra:
            if start < hi and end > lo:
                found.append(payload)
        return found

    def __len__(self) -> int:
        return self.size


def _in_force(rows: Iterable[Any], first: float, last: float) -> List[Any]:
    """The *rows* in the state at some chronon ``first`` … ``last``."""
    return [row for row in rows if row.tt.lo <= last and first < row.tt.hi]


class _ClosedRows:
    """One lineage's closed rows, in the two forms an index reads: shared
    by the wrappers of successive versions and patched forward, insert
    only.  ``head`` is ``(closed log, length)`` of the newest version
    patched in; each form is built from it by the first read needing it."""

    __slots__ = ("head", "tree", "chains", "lock")

    def __init__(self, store: TransactionTimeStore) -> None:
        self.head = (store._closed_log, store._closed_len)
        self.tree: Optional[IntervalTree] = None
        self.chains: Optional[Dict[PyTuple[Any, ...], List[Any]]] = None
        self.lock = threading.Lock()  # (a patch against a first build)


class TransactionTimeIndex:
    """Rollback acceleration for one transaction-time store version.

    Transaction time is append-only (Figure 12): a closed row never
    changes.  So the index holds the **closed** rows only, insert-only, in
    two forms each built by the first read that needs it and patched from
    ``closed_since``: an :class:`IntervalTree`, and per schema-key value
    the key's rows in closing order, where one bisect finds those closed
    after a pin.  The open rows are the store's own (in force at a pin iff
    started by it); the store says what state the rows amount to.

    The forms are shared with the wrappers of later versions, so a wrapper
    answers from its own version's closed prefix: where the forms have
    moved on, the rows closed since are dropped from what they return.
    """

    def __init__(self, relation: TransactionTimeStore) -> None:
        self._relation = relation
        self._closed = _ClosedRows(relation)

    @property
    def relation(self) -> TransactionTimeStore:
        """The indexed (immutable) store value."""
        return self._relation

    def _closed_tree(self) -> IntervalTree:
        closed = self._closed
        with closed.lock:
            if closed.tree is None:
                log, length = closed.head
                closed.tree = IntervalTree(
                    (row.tt, row) for row in log[:length])
        return closed.tree

    def _key_chains(self) -> Dict[PyTuple[Any, ...], List[Any]]:
        closed = self._closed
        with closed.lock:
            if closed.chains is None:  # (a loaded store: file order)
                log, length = closed.head
                closed.chains = self._relation._by_key_of(
                    sorted(log[:length], key=_TT_END))
        return closed.chains

    def _own(self, rows: List[Any]) -> List[Any]:
        """*rows* read from the shared forms, less those closed after this
        version (read after the forms: a patch moves the head first)."""
        log, length = self._closed.head
        mine = self._relation._closed_len
        if length == mine:
            return rows
        later = set(map(id, log[mine:length]))
        return [row for row in rows if id(row) not in later]

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
        return self._own(self._closed_tree().stab(as_of)) + _in_force(
            self._relation.open_rows(), *self._bounds(as_of))

    def rollback(self, as_of):
        """Same result as ``relation.rollback``, via the index (which
        serves a database's stores: ``state_in_force``)."""
        return self._relation.state_in_force(self.visible(as_of))

    def overlapping(self, period: Period) -> List[Any]:
        """The stored rows whose transaction time overlaps *period*."""
        return self._own(self._closed_tree().overlapping(period)) + _in_force(
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
        return _in_force(self._own(
            chain[bisect.bisect_right(chain, first, key=_TT_END):])
            + list(open_rows), first, last)

    def update(self, new_relation: TransactionTimeStore
               ) -> Optional["TransactionTimeIndex"]:
        """An index over *new_relation* sharing this one's forms, patched
        with the rows closed in between (inserts only).  ``None`` across
        lineages.  The caller serializes patches."""
        closed = new_relation.closed_since(self._relation.closed_mark())
        if closed is None:
            return None
        forms = self._closed
        with forms.lock:
            forms.head = (new_relation._closed_log, new_relation._closed_len)
            if forms.tree is not None:
                for row in closed:
                    forms.tree.insert(row.tt, row)
            if forms.chains is not None:
                for key, rows in new_relation._by_key_of(closed).items():
                    forms.chains[key] += rows
        fresh = TransactionTimeIndex.__new__(TransactionTimeIndex)
        fresh._relation, fresh._closed = new_relation, forms
        return fresh


class DatabaseIndexCache:
    """Fresh-by-construction index cache for a live database.

    One slot per relation name, stamped with the relation's *version*
    (:meth:`~repro.core.base.Database.relation_version`): a commit or
    DDL on relation A leaves relation B's index valid.  On a version
    miss the previous index is *patched* with the rows closed since (O(Δ
    log n)); only values of another lineage force a rebuild.

    The plain-int counters (:attr:`hits`, :attr:`misses`,
    :attr:`incremental_updates`) are always live for tests and benchmarks;
    the same events are mirrored into the process instrumentation
    (:mod:`repro.obs`) as ``index.cache.hits`` / ``index.cache.misses`` /
    ``index.cache.patches``, plus an ``index.tree.size.<name>`` gauge per
    served index, whenever recording is on.
    """

    def __init__(self, database) -> None:
        self._db = database
        self._slots: Dict[str, PyTuple[int, TransactionTimeIndex]] = {}
        self.hits = self.misses = self.incremental_updates = 0
        self._lock = threading.Lock()

    def transaction_time(self, name: str) -> TransactionTimeIndex:
        """The index over the transaction-time store of *name*, current
        as of the relation's version: served, patched from the previous
        version's, or built."""
        metrics = _obs.current().metrics
        version = self._db.relation_version(name)
        with self._lock:  # (readers run on threads; versions share trees)
            cached_version, index = self._slots.get(name, (None, None))
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
                fresh = TransactionTimeIndex(self._db.store(name))
            self._slots[name] = (version, fresh)
            metrics.gauge(f"index.tree.size.{name}").set(len(fresh.relation))
            return fresh
