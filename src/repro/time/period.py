"""Periods (half-open intervals) and Allen's interval relations.

A :class:`Period` is a non-empty half-open interval ``[start, end)`` over
instants of one granularity.  The paper's ``(from, to)`` / ``(start, end)``
column pairs map directly: a tuple valid *from* 12/01/82 *to* ∞ is the
period ``[1982-12-01, ∞)``.

Allen's thirteen relations (:class:`AllenRelation`) are provided in full —
for any two periods exactly one relation holds, a property the test suite
checks exhaustively — and TQuel's coarser ``when`` predicates (``overlap``,
``precede``, ``start of``, ``end of``, ``extend``) are defined on top of
them, following the TQuel paper's semantics.
"""

from __future__ import annotations

import enum
from typing import Iterable, Iterator, List, Optional, Union

from repro.errors import InvalidPeriodError
from repro.time.chronon import Granularity, require_same_granularity
from repro.time.instant import Instant, NEG_INF, POS_INF, instant as _coerce


class AllenRelation(enum.Enum):
    """Allen's thirteen basic interval relations.

    Named from the perspective of the first operand: ``a.allen(b) is
    BEFORE`` means *a* ends strictly before *b* begins.  The six inverse
    relations carry the ``_INV`` suffix.
    """

    BEFORE = "before"
    MEETS = "meets"
    OVERLAPS = "overlaps"
    STARTS = "starts"
    DURING = "during"
    FINISHES = "finishes"
    EQUALS = "equals"
    FINISHES_INV = "finished-by"
    DURING_INV = "contains"
    STARTS_INV = "started-by"
    OVERLAPS_INV = "overlapped-by"
    MEETS_INV = "met-by"
    AFTER = "after"

    @property
    def inverse(self) -> "AllenRelation":
        """The relation that holds with the operands swapped."""
        return _INVERSES[self]


_INVERSES = {
    AllenRelation.BEFORE: AllenRelation.AFTER,
    AllenRelation.MEETS: AllenRelation.MEETS_INV,
    AllenRelation.OVERLAPS: AllenRelation.OVERLAPS_INV,
    AllenRelation.STARTS: AllenRelation.STARTS_INV,
    AllenRelation.DURING: AllenRelation.DURING_INV,
    AllenRelation.FINISHES: AllenRelation.FINISHES_INV,
    AllenRelation.EQUALS: AllenRelation.EQUALS,
    AllenRelation.FINISHES_INV: AllenRelation.FINISHES,
    AllenRelation.DURING_INV: AllenRelation.DURING,
    AllenRelation.STARTS_INV: AllenRelation.STARTS,
    AllenRelation.OVERLAPS_INV: AllenRelation.OVERLAPS,
    AllenRelation.MEETS_INV: AllenRelation.MEETS,
    AllenRelation.AFTER: AllenRelation.BEFORE,
}

InstantLike = Union[Instant, str, int]


class Period:
    """A non-empty half-open interval ``[start, end)`` on the timeline.

    ``start`` must be strictly earlier than ``end``; empty periods are
    rejected at construction so every stored period denotes at least one
    chronon.  Periods are immutable and hashable.
    """

    __slots__ = ("_start", "_end", "_hash")

    def __init__(self, start: InstantLike, end: InstantLike,
                 granularity: Granularity = Granularity.DAY) -> None:
        start_i = _coerce(start, granularity)
        end_i = _coerce(end, granularity)
        if start_i.is_finite and end_i.is_finite:
            require_same_granularity(start_i.granularity, end_i.granularity,
                                     "build a period")
        if not start_i < end_i:
            raise InvalidPeriodError(
                f"period start {start_i} must precede end {end_i} "
                f"(periods are half-open and non-empty)"
            )
        self._start = start_i
        self._end = end_i
        self._hash = None

    # -- constructors --------------------------------------------------------

    @classmethod
    def at(cls, when: InstantLike,
           granularity: Granularity = Granularity.DAY) -> "Period":
        """The single-chronon period containing *when* (used by event relations)."""
        point = _coerce(when, granularity)
        return cls(point, point + 1)

    @classmethod
    def always(cls) -> "Period":
        """The whole timeline, ``[-∞, ∞)``."""
        return cls(NEG_INF, POS_INF)

    @classmethod
    def from_inclusive(cls, first: InstantLike, last: InstantLike,
                       granularity: Granularity = Granularity.DAY) -> "Period":
        """Build from inclusive endpoints: ``[first, last]`` as chronons."""
        last_i = _coerce(last, granularity)
        return cls(_coerce(first, granularity),
                   last_i + 1 if last_i.is_finite else last_i)

    # -- accessors -------------------------------------------------------------

    @property
    def start(self) -> Instant:
        """The inclusive lower endpoint."""
        return self._start

    @property
    def end(self) -> Instant:
        """The exclusive upper endpoint."""
        return self._end

    @property
    def last(self) -> Instant:
        """The last chronon inside the period (``end - 1``)."""
        return self._end - 1

    @property
    def is_instantaneous(self) -> bool:
        """True if the period covers exactly one chronon."""
        return (self._start.is_finite and self._end.is_finite
                and self._end - self._start == 1)

    def duration(self) -> Optional[int]:
        """The number of chronons covered, or ``None`` if unbounded."""
        if self._start.is_finite and self._end.is_finite:
            return self._end - self._start
        return None

    # -- membership and relations ------------------------------------------------

    def contains(self, when: InstantLike) -> bool:
        """True if the instant lies inside ``[start, end)``."""
        point = _coerce(when)
        return self._start <= point < self._end

    def contains_period(self, other: "Period") -> bool:
        """True if *other* lies entirely inside this period."""
        return self._start <= other._start and other._end <= self._end

    def overlaps(self, other: "Period") -> bool:
        """True if the two periods share at least one chronon.

        This is TQuel's ``overlap`` predicate.
        """
        return self._start < other._end and other._start < self._end

    def precedes(self, other: "Period") -> bool:
        """True if this period ends at or before the other starts.

        This is TQuel's ``precede`` predicate: every chronon of ``self``
        comes before every chronon of ``other`` (meeting is allowed).
        """
        return self._end <= other._start

    def meets(self, other: "Period") -> bool:
        """True if this period ends exactly where the other starts."""
        return self._end == other._start

    def adjacent(self, other: "Period") -> bool:
        """True if the periods meet in either direction (no gap, no overlap)."""
        return self.meets(other) or other.meets(self)

    def allen(self, other: "Period") -> AllenRelation:
        """Classify the pair under Allen's thirteen relations.

        Exactly one relation holds for any two periods (tested exhaustively
        in the property suite).
        """
        if self._end < other._start:
            return AllenRelation.BEFORE
        if self._end == other._start:
            return AllenRelation.MEETS
        if other._end < self._start:
            return AllenRelation.AFTER
        if other._end == self._start:
            return AllenRelation.MEETS_INV
        # The periods overlap in at least one chronon.
        if self._start == other._start:
            if self._end == other._end:
                return AllenRelation.EQUALS
            if self._end < other._end:
                return AllenRelation.STARTS
            return AllenRelation.STARTS_INV
        if self._end == other._end:
            if self._start > other._start:
                return AllenRelation.FINISHES
            return AllenRelation.FINISHES_INV
        if self._start < other._start:
            if self._end > other._end:
                return AllenRelation.DURING_INV
            return AllenRelation.OVERLAPS
        if self._end < other._end:
            return AllenRelation.DURING
        return AllenRelation.OVERLAPS_INV

    # -- set-like operations -------------------------------------------------------

    def intersect(self, other: "Period") -> Optional["Period"]:
        """The common sub-period, or ``None`` if the periods are disjoint."""
        start = max(self._start, other._start)
        end = min(self._end, other._end)
        if start < end:
            return Period(start, end)
        return None

    def union(self, other: "Period") -> Optional["Period"]:
        """The merged period if the two overlap or meet, else ``None``."""
        if self.overlaps(other) or self.adjacent(other):
            return Period(min(self._start, other._start),
                          max(self._end, other._end))
        return None

    def difference(self, other: "Period") -> List["Period"]:
        """The parts of this period not covered by *other* (0, 1 or 2 pieces)."""
        pieces: List[Period] = []
        if other._start > self._start:
            left_end = min(other._start, self._end)
            if self._start < left_end:
                pieces.append(Period(self._start, left_end))
        if other._end < self._end:
            right_start = max(other._end, self._start)
            if right_start < self._end:
                pieces.append(Period(right_start, self._end))
        if not pieces and not self.overlaps(other):
            pieces.append(self)
        return pieces

    def clamp(self, bounds: "Period") -> Optional["Period"]:
        """Alias for :meth:`intersect`, reading better at call sites."""
        return self.intersect(bounds)

    def chronons(self) -> Iterator[Instant]:
        """Iterate the chronons of a bounded period (error if unbounded)."""
        if not (self._start.is_finite and self._end.is_finite):
            raise InvalidPeriodError(f"cannot enumerate unbounded period {self}")
        current = self._start
        while current < self._end:
            yield current
            current = current + 1

    # -- TQuel endpoint operators ------------------------------------------------

    def start_of(self) -> "Period":
        """TQuel's ``start of``: the single-chronon period at the start."""
        if not self._start.is_finite:
            raise InvalidPeriodError(f"start of {self} is unbounded")
        return Period(self._start, self._start + 1)

    def end_of(self) -> "Period":
        """TQuel's ``end of``: the single-chronon period at the last chronon."""
        if not self._end.is_finite:
            raise InvalidPeriodError(f"end of {self} is unbounded")
        return Period(self._end - 1, self._end)

    def extend(self, other: "Period") -> "Period":
        """TQuel's ``extend``: the smallest period covering both operands."""
        return Period(min(self._start, other._start),
                      max(self._end, other._end))

    # -- dunder ----------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Period):
            return NotImplemented
        return self._start == other._start and self._end == other._end

    def __hash__(self) -> int:
        value = self._hash
        if value is None:
            value = self._hash = hash((self._start, self._end))
        return value

    def __lt__(self, other: "Period") -> bool:
        """Order by start, then end — the order used for coalescing."""
        if not isinstance(other, Period):
            return NotImplemented
        if self._start != other._start:
            return self._start < other._start
        return self._end < other._end

    def __contains__(self, when: object) -> bool:
        if isinstance(when, Period):
            return self.contains_period(when)
        return self.contains(when)  # type: ignore[arg-type]

    def __str__(self) -> str:
        return f"[{self._start}, {self._end})"

    def __repr__(self) -> str:
        return f"Period({self._start.isoformat()!r}, {self._end.isoformat()!r})"


def coalesce(periods: Iterable[Period]) -> List[Period]:
    """Merge overlapping and adjacent periods into a minimal sorted list.

    The result is the canonical form used by
    :class:`~repro.time.element.TemporalElement`: sorted, pairwise disjoint,
    with no two periods adjacent.  Coalescing is idempotent and insensitive
    to input order (property-tested).
    """
    ordered = sorted(periods)
    merged: List[Period] = []
    for period in ordered:
        if merged:
            combined = merged[-1].union(period)
            if combined is not None:
                merged[-1] = combined
                continue
        merged.append(period)
    return merged
