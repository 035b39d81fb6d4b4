"""Granularities and chronon arithmetic.

A *chronon* is the indivisible unit of the discrete timeline: the library
represents every finite instant as an integer number of chronons at a given
:class:`Granularity`.  The paper's examples use calendar days (``12/15/82``),
so :attr:`Granularity.DAY` is the library default, but finer and coarser
granularities are supported for applications that need them.

Chronon encodings (all proleptic Gregorian, via :mod:`datetime`):

========== =====================================================
DAY        ``datetime.date.toordinal()`` (day 1 = 0001-01-01)
SECOND     seconds since 0001-01-01T00:00:00
MINUTE     minutes since 0001-01-01T00:00
HOUR       hours since 0001-01-01T00:00
MONTH      ``year * 12 + (month - 1)``
YEAR       ``year``
========== =====================================================

The encodings are only comparable within one granularity; mixing
granularities raises :class:`~repro.errors.GranularityError` at the
:class:`~repro.time.instant.Instant` level.
"""

from __future__ import annotations

import datetime as _dt
import enum
import re

from repro.errors import GranularityError, InvalidInstantError

_EPOCH = _dt.datetime(1, 1, 1)

#: The fields :meth:`Granularity.format` writes, as far as it goes.
_FORMATTED = re.compile(
    r"(\d+)(?:-(\d\d)(?:-(\d\d)(?: (\d\d):(\d\d)(?::(\d\d))?)?)?)?")


class Granularity(enum.Enum):
    """The unit of the discrete timeline.

    Members are ordered from finest to coarsest; :meth:`finer_than` compares
    them.  The library default, used throughout the paper's examples, is
    :attr:`DAY`.
    """

    SECOND = "second"
    MINUTE = "minute"
    HOUR = "hour"
    DAY = "day"
    MONTH = "month"
    YEAR = "year"

    # -- ordering ----------------------------------------------------------

    @property
    def _rank(self) -> int:
        return _RANKS[self]

    def finer_than(self, other: "Granularity") -> bool:
        """True if this granularity subdivides time more finely than *other*."""
        return self._rank < other._rank

    # -- calendar <-> chronon ----------------------------------------------

    def from_datetime(self, when: _dt.datetime) -> int:
        """Encode a :class:`datetime.datetime` as a chronon at this granularity."""
        if self is Granularity.DAY:
            return when.date().toordinal()
        if self is Granularity.SECOND:
            return int((when - _EPOCH).total_seconds())
        if self is Granularity.MINUTE:
            return int((when - _EPOCH).total_seconds()) // 60
        if self is Granularity.HOUR:
            return int((when - _EPOCH).total_seconds()) // 3600
        if self is Granularity.MONTH:
            return when.year * 12 + (when.month - 1)
        if self is Granularity.YEAR:
            return when.year
        raise GranularityError(f"unknown granularity {self!r}")

    def from_date(self, when: _dt.date) -> int:
        """Encode a :class:`datetime.date` as a chronon at this granularity."""
        return self.from_datetime(_dt.datetime(when.year, when.month, when.day))

    def to_datetime(self, chronon: int) -> _dt.datetime:
        """Decode a chronon back to the :class:`datetime.datetime` at its start."""
        try:
            if self is Granularity.DAY:
                day = _dt.date.fromordinal(chronon)
                return _dt.datetime(day.year, day.month, day.day)
            if self is Granularity.SECOND:
                return _EPOCH + _dt.timedelta(seconds=chronon)
            if self is Granularity.MINUTE:
                return _EPOCH + _dt.timedelta(minutes=chronon)
            if self is Granularity.HOUR:
                return _EPOCH + _dt.timedelta(hours=chronon)
            if self is Granularity.MONTH:
                year, month0 = divmod(chronon, 12)
                return _dt.datetime(year, month0 + 1, 1)
            if self is Granularity.YEAR:
                return _dt.datetime(chronon, 1, 1)
        except (ValueError, OverflowError) as exc:
            raise InvalidInstantError(
                f"chronon {chronon} is outside the supported calendar range "
                f"at granularity {self.value}"
            ) from exc
        raise GranularityError(f"unknown granularity {self!r}")

    # -- formatting ----------------------------------------------------------

    def format(self, chronon: int) -> str:
        """Render a chronon as an ISO-style literal appropriate to the granularity."""
        return self._render(self.to_datetime(chronon))

    def _render(self, when: _dt.datetime) -> str:
        if self is Granularity.DAY:
            return when.date().isoformat()
        if self is Granularity.SECOND:
            return when.isoformat(sep=" ")
        if self is Granularity.MINUTE:
            return when.strftime("%Y-%m-%d %H:%M")
        if self is Granularity.HOUR:
            return when.strftime("%Y-%m-%d %H:00")
        if self is Granularity.MONTH:
            return when.strftime("%Y-%m")
        return when.strftime("%Y")

    def parse(self, literal: str) -> int:
        """The chronon whose :meth:`format` is *literal* — its exact
        inverse, at every granularity (``2000-01`` is a month, ``2000`` a
        year).  Raises :class:`~repro.errors.InvalidInstantError` for any
        other text."""
        match = _FORMATTED.fullmatch(literal)
        if match is not None:
            year, month, day, hour, minute, second = match.groups()
            try:
                when = _dt.datetime(
                    int(year), int(month or 1), int(day or 1),
                    int(hour or 0), int(minute or 0), int(second or 0))
            except ValueError:
                pass
            else:
                if self._render(when) == literal:
                    return self.from_datetime(when)
        raise InvalidInstantError(
            f"{literal!r} is not a {self.value} literal as this "
            f"granularity writes them")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Granularity.{self.name}"


_RANKS = {
    Granularity.SECOND: 0,
    Granularity.MINUTE: 1,
    Granularity.HOUR: 2,
    Granularity.DAY: 3,
    Granularity.MONTH: 4,
    Granularity.YEAR: 5,
}


def require_same_granularity(a: Granularity, b: Granularity, context: str) -> None:
    """Raise :class:`GranularityError` unless *a* and *b* are the same.

    The library never silently converts between granularities: the paper's
    semantics are defined over a single discrete timeline, and a day-chronon
    compared against a second-chronon is a category error, not a coercion.
    """
    if a is not b:
        raise GranularityError(
            f"cannot {context} across granularities ({a.value} vs {b.value})"
        )
