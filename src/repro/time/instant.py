"""Instants: points on the discrete timeline, with ``-∞`` and ``∞``.

An :class:`Instant` is either *finite* — an integer chronon at a
:class:`~repro.time.chronon.Granularity` — or one of the two distinguished
unbounded values :data:`NEG_INF` and :data:`POS_INF`.  ``POS_INF`` plays the
role of the paper's ``∞`` entries: an open-ended valid time (*until
changed*) or the transaction-time end of a tuple that is still current.

Instants are immutable, totally ordered within one granularity, hashable,
and support chronon arithmetic (``instant + 3`` is three chronons later;
arithmetic on the infinities is absorbing, like IEEE infinities).

Parsing accepts three families of literal:

- the paper's ``MM/DD/YY`` (and ``MM/DD/YYYY``) dates — two-digit years are
  pivoted at 70, so ``77`` means 1977 and ``69`` means 2069, matching the
  paper's 1977–1984 examples;
- ISO dates/datetimes (``1982-12-15``, ``1982-12-15 08:30:00``);
- the symbolic literals ``forever`` / ``infinity`` / ``∞`` and
  ``beginning`` / ``-∞``.
"""

from __future__ import annotations

import datetime as _dt
import enum
import functools
import re
from typing import Union

from repro.errors import InvalidInstantError
from repro.time.chronon import Granularity, require_same_granularity

_PAPER_DATE = re.compile(r"^(\d{1,2})/(\d{1,2})/(\d{2}|\d{4})$")
_ISO_DATE = re.compile(r"^(\d{4})-(\d{2})-(\d{2})$")
_ISO_DATETIME = re.compile(
    r"^(\d{4})-(\d{2})-(\d{2})[ T](\d{2}):(\d{2})(?::(\d{2}))?$"
)

#: Two-digit years below the pivot are 20xx, at or above it 19xx.  The paper's
#: examples span 1977-1984, hence a pivot of 70.
TWO_DIGIT_YEAR_PIVOT = 70

_POS_TOKENS = frozenset({"forever", "infinity", "inf", "∞", "+∞"})
_NEG_TOKENS = frozenset({"beginning", "-infinity", "-inf", "-∞"})


class _Kind(enum.IntEnum):
    """Internal ordering tag: NEG_INF < any finite instant < POS_INF."""

    NEG_INF = -1
    FINITE = 0
    POS_INF = 1


@functools.total_ordering
class Instant:
    """A point on the discrete timeline.

    Construct finite instants with :meth:`parse`, :meth:`from_date`,
    :meth:`from_datetime` or :meth:`from_chronon`; the unbounded endpoints
    are the module-level singletons :data:`NEG_INF` and :data:`POS_INF`.
    """

    __slots__ = ("_kind", "_chronon", "_granularity", "_hash")

    def __init__(self, chronon: int, granularity: Granularity = Granularity.DAY,
                 _kind: _Kind = _Kind.FINITE) -> None:
        if _kind is _Kind.FINITE and not isinstance(chronon, int):
            raise InvalidInstantError(
                f"chronon must be an int, got {type(chronon).__name__}"
            )
        self._kind = _kind
        self._chronon = chronon if _kind is _Kind.FINITE else 0
        self._granularity = granularity
        self._hash = None

    # -- constructors --------------------------------------------------------

    @classmethod
    def from_chronon(cls, chronon: int,
                     granularity: Granularity = Granularity.DAY) -> "Instant":
        """Wrap a raw chronon integer."""
        return cls(chronon, granularity)

    @classmethod
    def from_date(cls, when: _dt.date,
                  granularity: Granularity = Granularity.DAY) -> "Instant":
        """Build an instant from a calendar date."""
        return cls(granularity.from_date(when), granularity)

    @classmethod
    def from_datetime(cls, when: _dt.datetime,
                      granularity: Granularity = Granularity.DAY) -> "Instant":
        """Build an instant from a calendar datetime."""
        return cls(granularity.from_datetime(when), granularity)

    @classmethod
    def parse(cls, text: str,
              granularity: Granularity = Granularity.DAY) -> "Instant":
        """Parse an instant literal.

        Accepts the paper's ``MM/DD/YY`` format, ISO dates and datetimes, and
        the symbolic infinity tokens (see module docstring).  Raises
        :class:`~repro.errors.InvalidInstantError` on anything else.
        """
        token = text.strip()
        lowered = token.lower()
        if lowered in _POS_TOKENS:
            return POS_INF
        if lowered in _NEG_TOKENS:
            return NEG_INF

        match = _PAPER_DATE.match(token)
        if match:
            month, day, year = (int(part) for part in match.groups())
            if year < 100:
                year += 1900 if year >= TWO_DIGIT_YEAR_PIVOT else 2000
            return cls._from_fields(year, month, day, granularity=granularity,
                                    literal=token)

        match = _ISO_DATE.match(token)
        if match:
            year, month, day = (int(part) for part in match.groups())
            return cls._from_fields(year, month, day, granularity=granularity,
                                    literal=token)

        match = _ISO_DATETIME.match(token)
        if match:
            year, month, day, hour, minute = (int(p) for p in match.groups()[:5])
            second = int(match.group(6) or 0)
            try:
                when = _dt.datetime(year, month, day, hour, minute, second)
            except ValueError as exc:
                raise InvalidInstantError(f"invalid datetime literal {token!r}") from exc
            return cls.from_datetime(when, granularity)

        raise InvalidInstantError(
            f"cannot parse instant literal {token!r}; expected MM/DD/YY, an "
            f"ISO date/datetime, or one of the infinity tokens"
        )

    @classmethod
    def _from_fields(cls, year: int, month: int, day: int, *,
                     granularity: Granularity, literal: str) -> "Instant":
        try:
            when = _dt.date(year, month, day)
        except ValueError as exc:
            raise InvalidInstantError(f"invalid date literal {literal!r}") from exc
        return cls.from_date(when, granularity)

    # -- accessors -----------------------------------------------------------

    @property
    def granularity(self) -> Granularity:
        """The granularity this instant is expressed in."""
        return self._granularity

    @property
    def chronon(self) -> int:
        """The underlying chronon integer; an error for the infinities."""
        if self._kind is not _Kind.FINITE:
            raise InvalidInstantError(f"{self} has no finite chronon")
        return self._chronon

    @property
    def is_finite(self) -> bool:
        """True for ordinary instants, False for ``NEG_INF`` and ``POS_INF``."""
        return self._kind is _Kind.FINITE

    @property
    def is_pos_inf(self) -> bool:
        """True only for :data:`POS_INF` (the paper's ``∞``)."""
        return self._kind is _Kind.POS_INF

    @property
    def is_neg_inf(self) -> bool:
        """True only for :data:`NEG_INF`."""
        return self._kind is _Kind.NEG_INF

    def to_datetime(self) -> _dt.datetime:
        """The calendar datetime at which this (finite) instant begins."""
        return self._granularity.to_datetime(self.chronon)

    def to_date(self) -> _dt.date:
        """The calendar date of this (finite) instant."""
        return self.to_datetime().date()

    # -- ordering and equality -------------------------------------------------

    def _check_comparable(self, other: "Instant") -> None:
        if self.is_finite and other.is_finite:
            require_same_granularity(self._granularity, other._granularity,
                                     "compare instants")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Instant):
            return NotImplemented
        if self._kind is not other._kind:
            return False
        if self._kind is not _Kind.FINITE:
            return True
        return (self._chronon == other._chronon
                and self._granularity is other._granularity)

    def __lt__(self, other: "Instant") -> bool:
        if not isinstance(other, Instant):
            return NotImplemented
        self._check_comparable(other)
        if self._kind is not other._kind:
            return self._kind < other._kind
        if self._kind is not _Kind.FINITE:
            return False
        return self._chronon < other._chronon

    def __hash__(self) -> int:
        value = self._hash
        if value is None:
            value = self._hash = (
                hash((self._chronon, self._granularity))
                if self._kind is _Kind.FINITE else hash(self._kind))
        return value

    # -- arithmetic ------------------------------------------------------------

    def __add__(self, chronons: int) -> "Instant":
        """The instant *chronons* later; infinities are absorbing."""
        if not isinstance(chronons, int):
            return NotImplemented
        if not self.is_finite:
            return self
        return Instant(self._chronon + chronons, self._granularity)

    def __sub__(self, other: Union[int, "Instant"]):
        """``instant - int`` shifts earlier; ``instant - instant`` is a chronon count."""
        if isinstance(other, int):
            return self + (-other)
        if isinstance(other, Instant):
            if not (self.is_finite and other.is_finite):
                raise InvalidInstantError(
                    "cannot take the difference of unbounded instants"
                )
            require_same_granularity(self._granularity, other._granularity,
                                     "subtract instants")
            return self._chronon - other._chronon
        return NotImplemented

    def successor(self) -> "Instant":
        """The next chronon (identity on the infinities)."""
        return self + 1

    def predecessor(self) -> "Instant":
        """The previous chronon (identity on the infinities)."""
        return self - 1

    # -- formatting --------------------------------------------------------------

    def isoformat(self) -> str:
        """ISO-style rendering; the infinities render as ``-∞`` / ``∞``."""
        if self._kind is _Kind.POS_INF:
            return "∞"
        if self._kind is _Kind.NEG_INF:
            return "-∞"
        return self._granularity.format(self._chronon)

    def paper_format(self) -> str:
        """Render as the paper does: ``MM/DD/YY`` for days, ``∞`` for infinity."""
        if self._kind is _Kind.POS_INF:
            return "∞"
        if self._kind is _Kind.NEG_INF:
            return "-∞"
        if self._granularity is Granularity.DAY:
            return self.to_date().strftime("%m/%d/%y")
        return self.isoformat()

    def __str__(self) -> str:
        return self.isoformat()

    def __repr__(self) -> str:
        if self._kind is _Kind.POS_INF:
            return "Instant(∞)"
        if self._kind is _Kind.NEG_INF:
            return "Instant(-∞)"
        return f"Instant({self.isoformat()!r})"


#: The unbounded past; strictly earlier than every finite instant.
NEG_INF = Instant(0, Granularity.DAY, _kind=_Kind.NEG_INF)

#: The unbounded future — the paper's ``∞``; strictly later than every
#: finite instant.  Used for open-ended valid times and for the transaction
#: end time of tuples that are still current.
POS_INF = Instant(0, Granularity.DAY, _kind=_Kind.POS_INF)


def instant(value: Union[str, int, _dt.date, _dt.datetime, Instant],
            granularity: Granularity = Granularity.DAY) -> Instant:
    """Coerce a convenient value to an :class:`Instant`.

    Accepts an existing instant (returned unchanged), a literal string, a raw
    chronon integer, or a calendar date/datetime.  This is the friendly entry
    point used throughout the public API so callers can write
    ``db.rollback("12/10/82")``.
    """
    if isinstance(value, Instant):
        return value
    if isinstance(value, str):
        return Instant.parse(value, granularity)
    if isinstance(value, bool):
        raise InvalidInstantError("bool is not a valid instant")
    if isinstance(value, int):
        return Instant.from_chronon(value, granularity)
    if isinstance(value, _dt.datetime):
        return Instant.from_datetime(value, granularity)
    if isinstance(value, _dt.date):
        return Instant.from_date(value, granularity)
    raise InvalidInstantError(
        f"cannot interpret {value!r} as an instant"
    )
