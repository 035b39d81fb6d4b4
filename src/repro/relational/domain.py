"""Value domains for relation attributes.

A :class:`Domain` names a set of legal values together with input
(:meth:`Domain.parse`) and output (:meth:`Domain.format`) functions.  The
built-in domains cover strings, integers, floats, booleans and calendar
dates.

The paper's third kind of time, **user-defined time** (§4.5), is realized
here: :meth:`Domain.user_defined_time` builds a date-valued domain that the
DBMS stores, parses and prints but never interprets — "all that is needed
is an internal representation and input and output functions".  Unlike
transaction and valid time, attributes of such a domain appear *in* the
relation schema, exactly as the paper prescribes (the ``effective date``
column of Figure 9).
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro.errors import DomainError
from repro.time.chronon import Granularity
from repro.time.instant import Instant


class Domain:
    """A named value domain with a membership test and I/O functions.

    Instances are immutable.  Use the class attributes ``Domain.STRING``,
    ``Domain.INTEGER``, ``Domain.FLOAT``, ``Domain.BOOLEAN``,
    ``Domain.DATE`` for the built-ins, or the factory methods for
    enumerations and user-defined time.
    """

    #: ``contains`` is the membership test itself (``None`` is handled by
    #: nullability, not domains) — a slot, so a check costs one call.
    __slots__ = ("_name", "contains", "_parse", "_format", "_is_time",
                 "_enum_values", "_enum_set")

    # Populated below, after the class body.
    STRING: "Domain"
    INTEGER: "Domain"
    FLOAT: "Domain"
    BOOLEAN: "Domain"
    DATE: "Domain"
    ANY: "Domain"

    def __init__(self, name: str,
                 validate: Callable[[Any], bool],
                 parse: Optional[Callable[[str], Any]] = None,
                 format: Optional[Callable[[Any], str]] = None,
                 is_time: bool = False) -> None:
        self._name = name
        self.contains = validate
        self._parse = parse
        self._format = format
        self._is_time = is_time
        self._enum_values: Optional[tuple] = None
        self._enum_set: Optional[frozenset] = None  # (what equality reads)

    # -- factories -----------------------------------------------------------

    @classmethod
    def enumeration(cls, name: str, *values: str) -> "Domain":
        """A domain of a fixed set of string values (e.g. faculty ranks)."""
        allowed = frozenset(values)

        def check(value: Any) -> bool:
            return value in allowed

        def parse(text: str) -> str:
            if text not in allowed:
                raise DomainError(
                    f"{text!r} is not one of {sorted(allowed)} (domain {name})"
                )
            return text

        domain = cls(name, check, parse, str)
        domain._enum_values, domain._enum_set = tuple(values), allowed
        return domain

    @classmethod
    def user_defined_time(cls, name: str = "user-defined time",
                          granularity: Granularity = Granularity.DAY) -> "Domain":
        """The paper's user-defined time: a date the DBMS never interprets.

        Values are :class:`~repro.time.instant.Instant`\\ s; the DBMS provides
        representation and I/O only.  No temporal operator (``when``,
        ``as of``, rollback, coalescing) ever touches these values — they are
        ordinary column data with a calendar-aware printer.
        """

        def check(value: Any) -> bool:
            return isinstance(value, Instant)

        def parse(text: str) -> Instant:
            return Instant.parse(text, granularity)

        def render(value: Instant) -> str:
            return value.paper_format()

        return cls(name, check, parse, render, is_time=True)

    # -- accessors -------------------------------------------------------------

    @property
    def name(self) -> str:
        """The domain's name, used in error messages and schema printing."""
        return self._name

    @property
    def is_user_defined_time(self) -> bool:
        """True for domains built by :meth:`user_defined_time`."""
        return self._is_time

    @property
    def enum_values(self) -> Optional[tuple]:
        """The allowed values for enumeration domains, else ``None``."""
        return self._enum_values

    # -- operations --------------------------------------------------------------

    def check(self, value: Any, attribute: str = "?") -> Any:
        """Validate and return *value*, raising :class:`DomainError` if illegal."""
        if not self.contains(value):
            raise DomainError(
                f"value {value!r} is not in domain {self._name} "
                f"(attribute {attribute})"
            )
        return value

    def parse(self, text: str) -> Any:
        """Convert an external literal to a domain value."""
        if self._parse is None:
            raise DomainError(f"domain {self._name} has no input function")
        return self._parse(text)

    def format(self, value: Any) -> str:
        """Render a domain value for display."""
        if self._format is None:
            return str(value)
        return self._format(value)

    # -- dunder --------------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Domain):
            return NotImplemented
        return (self._name == other._name and self._is_time == other._is_time
                and self._enum_set == other._enum_set)

    def __hash__(self) -> int:
        return hash((self._name, self._is_time, self._enum_set))

    def __repr__(self) -> str:
        return f"Domain({self._name!r})"


def _is_int(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_float(value: Any) -> bool:
    return (isinstance(value, float)
            or (isinstance(value, int) and not isinstance(value, bool)))


def _parse_int(text: str) -> int:
    try:
        return int(text)
    except ValueError as exc:
        raise DomainError(f"{text!r} is not an integer") from exc


def _parse_float(text: str) -> float:
    try:
        return float(text)
    except ValueError as exc:
        raise DomainError(f"{text!r} is not a number") from exc


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("true", "t", "yes", "1"):
        return True
    if lowered in ("false", "f", "no", "0"):
        return False
    raise DomainError(f"{text!r} is not a boolean")


Domain.STRING = Domain("string", lambda v: isinstance(v, str), str, str)
Domain.INTEGER = Domain("integer", _is_int, _parse_int, str)
Domain.FLOAT = Domain("float", _is_float, _parse_float, str)
Domain.BOOLEAN = Domain("boolean", lambda v: isinstance(v, bool), _parse_bool, str)
Domain.DATE = Domain("date", lambda v: isinstance(v, Instant),
                     Instant.parse, lambda v: v.isoformat())
# The permissive domain used for derived attributes whose type cannot be
# inferred statically (e.g. computed TQuel targets).
Domain.ANY = Domain("any", lambda v: True, str, str)
