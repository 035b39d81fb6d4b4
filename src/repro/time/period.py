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

A period is two chronons plus a unit (§1's discrete timeline): ``lo`` and
``hi`` are its ends as chronon numbers, ``-inf`` for an unbounded start and
``inf`` for an unbounded end, and ``unit`` is the granularity of its
finite ends (``None`` for ``[-∞, ∞)``).  Every operation runs on those
numbers; ``start`` / ``end`` are the same ends as
:class:`~repro.time.instant.Instant` objects, built on first read when
the period was made from chronons (a restart's stamps).  Any
binary operation between two periods of different units raises
:class:`~repro.errors.GranularityError` (``==`` is then ``False``).
"""

from __future__ import annotations

import enum
import math
from typing import Iterable, Iterator, List, Optional, Union

from repro.errors import InvalidPeriodError
from repro.time.chronon import Granularity, require_same_granularity
from repro.time.instant import (Instant, NEG_INF, POS_INF, _Kind,
                                instant as _coerce)


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

#: An unbounded start and end as chronon numbers.
_NEG = -math.inf
_POS = math.inf
_FINITE = _Kind.FINITE


class Period:
    """A non-empty half-open interval ``[start, end)`` on the timeline.

    ``start`` must be strictly earlier than ``end``; empty periods are
    rejected at construction so every stored period denotes at least one
    chronon.  Periods are immutable and hashable; ``lo`` / ``hi`` /
    ``unit`` are the ends as chronon numbers (see the module docstring).
    """

    __slots__ = ("lo", "hi", "unit", "_start", "_end", "_hash")

    def __init__(self, start: InstantLike, end: InstantLike,
                 granularity: Granularity = Granularity.DAY) -> None:
        start_i = _coerce(start, granularity)
        end_i = _coerce(end, granularity)
        # An instant's slots, not its properties: every commit builds periods.
        finite = end_i if end_i._kind is _FINITE else start_i
        unit = finite._granularity if finite._kind is _FINITE else None
        lo = chronon_number(start_i, unit, "build a period")
        hi = chronon_number(end_i)
        if not lo < hi:
            raise InvalidPeriodError(
                f"period start {start_i} must precede end {end_i} "
                f"(periods are half-open and non-empty)")
        self.lo, self.hi, self.unit, self._hash = lo, hi, unit, None
        self._start, self._end = start_i, end_i

    # -- constructors --------------------------------------------------------

    @classmethod
    def from_chronons(cls, lo: float, hi: float,
                      unit: Optional[Granularity]) -> "Period":
        """``[lo, hi)`` from chronon numbers at *unit* (``-inf`` / ``inf``
        for an unbounded end), trusted to be of the right types; only
        ``lo < hi`` is checked.  Its ends are built on first read."""
        if not lo < hi:
            raise InvalidPeriodError(f"period [{lo}, {hi}) is empty")
        period = cls.__new__(cls)
        period.lo, period.hi, period._hash = lo, hi, None
        period.unit = None if lo == _NEG and hi == _POS else unit
        period._start = period._end = None
        return period

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
        return cls(_coerce(first, granularity),
                   _coerce(last, granularity) + 1)

    # -- accessors -------------------------------------------------------------

    # Racing first reads build equal instants, like ``_hash``.
    @property
    def start(self) -> Instant:
        """The first chronon as an instant (``NEG_INF`` if unbounded)."""
        if self._start is None:
            self._start = (NEG_INF if self.lo == _NEG
                           else Instant(self.lo, self.unit))
        return self._start

    @property
    def end(self) -> Instant:
        """The chronon after the last (``POS_INF`` if unbounded)."""
        if self._end is None:
            self._end = (POS_INF if self.hi == _POS
                         else Instant(self.hi, self.unit))
        return self._end

    @property
    def last(self) -> Instant:
        """The last chronon inside the period (``end - 1``)."""
        return self.end - 1

    @property
    def is_instantaneous(self) -> bool:
        """True if the period covers exactly one chronon."""
        return self.hi - self.lo == 1

    def duration(self) -> Optional[int]:
        """The number of chronons covered, or ``None`` if unbounded."""
        span = self.hi - self.lo
        return None if span == _POS else span

    # -- membership and relations ------------------------------------------------

    def contains(self, when: InstantLike) -> bool:
        """True if the instant lies inside ``[start, end)``."""
        return self.lo <= chronon_number(_coerce(when), self.unit) < self.hi

    def contains_period(self, other: "Period") -> bool:
        """True if *other* lies entirely inside this period."""
        _common_unit(self, other)
        return self.lo <= other.lo and other.hi <= self.hi

    def overlaps(self, other: "Period") -> bool:
        """True if the two periods share at least one chronon.

        This is TQuel's ``overlap`` predicate.
        """
        _common_unit(self, other)
        return self.lo < other.hi and other.lo < self.hi

    def precedes(self, other: "Period") -> bool:
        """True if this period ends at or before the other starts.

        This is TQuel's ``precede`` predicate: every chronon of ``self``
        comes before every chronon of ``other`` (meeting is allowed).
        """
        _common_unit(self, other)
        return self.hi <= other.lo

    def meets(self, other: "Period") -> bool:
        """True if this period ends exactly where the other starts."""
        _common_unit(self, other)
        return self.hi == other.lo

    def adjacent(self, other: "Period") -> bool:
        """True if the periods meet in either direction (no gap, no overlap)."""
        _common_unit(self, other)
        return self.hi == other.lo or other.hi == self.lo

    def allen(self, other: "Period") -> AllenRelation:
        """Classify the pair under Allen's thirteen relations.

        Exactly one relation holds for any two periods (tested exhaustively
        in the property suite).
        """
        _common_unit(self, other)
        lo, hi, other_lo, other_hi = self.lo, self.hi, other.lo, other.hi
        if hi < other_lo:
            return AllenRelation.BEFORE
        if hi == other_lo:
            return AllenRelation.MEETS
        if other_hi < lo:
            return AllenRelation.AFTER
        if other_hi == lo:
            return AllenRelation.MEETS_INV
        # The periods overlap in at least one chronon.
        if lo == other_lo:
            if hi == other_hi:
                return AllenRelation.EQUALS
            if hi < other_hi:
                return AllenRelation.STARTS
            return AllenRelation.STARTS_INV
        if hi == other_hi:
            if lo > other_lo:
                return AllenRelation.FINISHES
            return AllenRelation.FINISHES_INV
        if lo < other_lo:
            if hi > other_hi:
                return AllenRelation.DURING_INV
            return AllenRelation.OVERLAPS
        if hi < other_hi:
            return AllenRelation.DURING
        return AllenRelation.OVERLAPS_INV

    # -- set-like operations -------------------------------------------------------

    def intersect(self, other: "Period") -> Optional["Period"]:
        """The common sub-period, or ``None`` if the periods are disjoint."""
        unit = _common_unit(self, other)
        lo, hi = max(self.lo, other.lo), min(self.hi, other.hi)
        return Period.from_chronons(lo, hi, unit) if lo < hi else None

    def union(self, other: "Period") -> Optional["Period"]:
        """The merged period if the two overlap or meet, else ``None``."""
        if self.lo <= other.hi and other.lo <= self.hi:
            return self.extend(other)
        _common_unit(self, other)
        return None

    def difference(self, other: "Period") -> List["Period"]:
        """The parts of this period not covered by *other* (0, 1 or 2 pieces)."""
        unit = _common_unit(self, other)
        if not (self.lo < other.hi and other.lo < self.hi):
            return [self]
        pieces: List[Period] = []
        if self.lo < other.lo:
            pieces.append(Period.from_chronons(self.lo, other.lo, unit))
        if other.hi < self.hi:
            pieces.append(Period.from_chronons(other.hi, self.hi, unit))
        return pieces

    def clamp(self, bounds: "Period") -> Optional["Period"]:
        """Alias for :meth:`intersect`, reading better at call sites."""
        return self.intersect(bounds)

    def chronons(self) -> Iterator[Instant]:
        """Iterate the chronons of a bounded period (error if unbounded)."""
        if self.duration() is None:
            raise InvalidPeriodError(f"cannot enumerate unbounded period {self}")
        return (Instant(chronon, self.unit)
                for chronon in range(self.lo, self.hi))

    # -- TQuel endpoint operators ------------------------------------------------

    def start_of(self) -> "Period":
        """TQuel's ``start of``: the single-chronon period at the start."""
        if self.lo == _NEG:
            raise InvalidPeriodError(f"start of {self} is unbounded")
        return Period.from_chronons(self.lo, self.lo + 1, self.unit)

    def end_of(self) -> "Period":
        """TQuel's ``end of``: the single-chronon period at the last chronon."""
        if self.hi == _POS:
            raise InvalidPeriodError(f"end of {self} is unbounded")
        return Period.from_chronons(self.hi - 1, self.hi, self.unit)

    def extend(self, other: "Period") -> "Period":
        """TQuel's ``extend``: the smallest period covering both operands."""
        return Period.from_chronons(min(self.lo, other.lo),
                                    max(self.hi, other.hi),
                                    _common_unit(self, other))

    # -- dunder ----------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Period):
            return NotImplemented
        return (self.lo == other.lo and self.hi == other.hi
                and self.unit is other.unit)

    def __hash__(self) -> int:
        value = self._hash
        if value is None:
            value = self._hash = hash((self.lo, self.hi))
        return value

    def __lt__(self, other: "Period") -> bool:
        """Order by start, then end — the order used for coalescing."""
        if not isinstance(other, Period):
            return NotImplemented
        _common_unit(self, other)
        if self.lo != other.lo:
            return self.lo < other.lo
        return self.hi < other.hi

    def __contains__(self, when: object) -> bool:
        if isinstance(when, Period):
            return self.contains_period(when)
        return self.contains(when)  # type: ignore[arg-type]

    def __str__(self) -> str:
        return f"[{self.start}, {self.end})"

    def __repr__(self) -> str:
        return f"Period({self.start.isoformat()!r}, {self.end.isoformat()!r})"


def chronon_number(point: Instant, unit: Optional[Granularity] = None,
                   context: str = "compare instants") -> float:
    """*point* as a period's ends are kept: its chronon, or ``-inf`` /
    ``inf`` for the infinities (whose kinds are ``-1`` / ``1``).  A finite
    *point* must be at *unit*, if one is given."""
    kind = point._kind
    if kind is not _FINITE:
        return kind * _POS
    require_same_granularity(point._granularity, unit, context)
    return point._chronon


def first_unit(periods: Iterable[Period]) -> Optional[Granularity]:
    """The unit of the first of *periods* that has one."""
    return next((period.unit for period in periods
                 if period.unit is not None), None)


def _common_unit(a: Period, b: Period) -> Optional[Granularity]:
    """The unit of *a* and *b* (``None`` if neither has one); periods of
    two different units raise :class:`~repro.errors.GranularityError`."""
    require_same_granularity(a.unit, b.unit, "relate periods")
    return b.unit if a.unit is None else a.unit


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
