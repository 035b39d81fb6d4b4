"""Attributes and schemas.

A :class:`Schema` is an ordered sequence of named :class:`Attribute`\\ s
with an optional key.  Schemas describe only the *explicit* (user-visible)
attributes of a relation; the implicit temporal columns the paper draws
right of the double vertical bars (valid time, transaction time) are
maintained by the database kinds in :mod:`repro.core` and deliberately do
**not** appear here — "the latter domains do not appear in the schema for
the relation" (§4.2).  User-defined time, by contrast, is an ordinary
attribute whose domain happens to be a date (§4.5).
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Iterator, Mapping, Optional, Sequence, Tuple

from repro.errors import SchemaError, UnknownAttributeError
from repro.relational.domain import Domain


class Attribute:
    """A named, typed column of a relation."""

    __slots__ = ("_name", "_domain", "_nullable")

    def __init__(self, name: str, domain: Domain, nullable: bool = False) -> None:
        # Legal names are dot-separated identifiers; spaces are tolerated so
        # the paper's column headings ("effective date") work verbatim, and
        # the dot form carries range-variable qualification ("f1.name").
        segments = name.split(".") if name else [""]
        if not all(segment.replace(" ", "_").isidentifier() for segment in segments):
            raise SchemaError(f"invalid attribute name {name!r}")
        self._name = name
        self._domain = domain
        self._nullable = nullable

    @property
    def name(self) -> str:
        """The attribute's name."""
        return self._name

    @property
    def domain(self) -> Domain:
        """The attribute's value domain."""
        return self._domain

    @property
    def nullable(self) -> bool:
        """Whether ``None`` is a legal value."""
        return self._nullable

    def check(self, value: Any) -> Any:
        """Validate *value* against the domain (and nullability)."""
        if value is None:
            if self._nullable:
                return None
            raise SchemaError(f"attribute {self._name} is not nullable")
        # One call decides the common case; a refusal is the domain's to word.
        return value if self._domain.contains(value) else self._domain.check(
            value, self._name)

    def renamed(self, name: str) -> "Attribute":
        """A copy of this attribute under a new name."""
        return Attribute(name, self._domain, self._nullable)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Attribute):
            return NotImplemented
        return (self._name == other._name and self._domain == other._domain
                and self._nullable == other._nullable)

    def __hash__(self) -> int:
        return hash((self._name, self._domain, self._nullable))

    def __repr__(self) -> str:
        suffix = "?" if self._nullable else ""
        return f"Attribute({self._name}: {self._domain.name}{suffix})"


class Schema:
    """An ordered, immutable collection of attributes with an optional key.

    The key, when given, is enforced by the database kinds: in a static
    database no two tuples may agree on all key attributes; in a historical
    or temporal database no two tuples may agree on the key *while their
    valid times overlap* (a sequenced key).
    """

    __slots__ = ("_attributes", "_positions", "_key", "_names")

    def __init__(self, attributes: Iterable[Attribute],
                 key: Optional[Sequence[str]] = None) -> None:
        self._attributes: Tuple[Attribute, ...] = tuple(attributes)
        if not self._attributes:
            raise SchemaError("a schema needs at least one attribute")
        #: name -> index in declaration order, built once: every lookup by
        #: name (here and in this schema's tuples) is one dict probe.
        self._positions: Dict[str, int] = {}
        for index, attribute in enumerate(self._attributes):
            if attribute.name in self._positions:
                raise SchemaError(f"duplicate attribute name {attribute.name!r}")
            self._positions[attribute.name] = index
        self._names: Tuple[str, ...] = tuple(self._positions)
        key_names = tuple(key) if key else ()
        for name in key_names:
            if name not in self._positions:
                raise SchemaError(f"key attribute {name!r} is not in the schema")
        if len(set(key_names)) != len(key_names):
            raise SchemaError("key attributes must be distinct")
        self._key = key_names

    # -- convenient construction ------------------------------------------------

    @classmethod
    def of(cls, key: Optional[Sequence[str]] = None,
           **attributes: Domain) -> "Schema":
        """Build a schema from keyword arguments: ``Schema.of(name=Domain.STRING)``."""
        return cls((Attribute(name, domain) for name, domain in attributes.items()),
                   key=key)

    # -- accessors -----------------------------------------------------------------

    @property
    def attributes(self) -> Tuple[Attribute, ...]:
        """The attributes, in declaration order."""
        return self._attributes

    @property
    def names(self) -> Tuple[str, ...]:
        """The attribute names, in declaration order."""
        return self._names

    @property
    def key(self) -> Tuple[str, ...]:
        """The key attribute names (may be empty)."""
        return self._key

    def attribute(self, name: str) -> Attribute:
        """Look up an attribute by name."""
        return self._attributes[self.position(name)]

    def position(self, name: str) -> int:
        """The index of attribute *name* in declaration order."""
        try:
            return self._positions[name]
        except KeyError:
            raise UnknownAttributeError(
                f"no attribute {name!r}; schema has {', '.join(self.names)}"
            ) from None

    def __contains__(self, name: object) -> bool:
        return name in self._positions

    def __iter__(self) -> Iterator[Attribute]:
        return iter(self._attributes)

    def __len__(self) -> int:
        return len(self._attributes)

    # -- derivation -----------------------------------------------------------------

    def project(self, names: Sequence[str]) -> "Schema":
        """The schema restricted to *names* (key dropped unless fully kept)."""
        projected = tuple(self.attribute(name) for name in names)
        keep_key = self._key and all(name in names for name in self._key)
        return Schema(projected, key=self._key if keep_key else None)

    def rename(self, mapping: Mapping[str, str]) -> "Schema":
        """A schema with attributes renamed per *mapping*."""
        for old in mapping:
            if old not in self._positions:
                raise UnknownAttributeError(f"cannot rename unknown attribute {old!r}")
        renamed = tuple(
            attribute.renamed(mapping.get(attribute.name, attribute.name))
            for attribute in self._attributes
        )
        new_key = tuple(mapping.get(name, name) for name in self._key)
        return Schema(renamed, key=new_key or None)

    def concat(self, other: "Schema", prefix_self: str = "",
               prefix_other: str = "") -> "Schema":
        """The concatenated schema used by products and joins.

        Colliding names must be disambiguated by the given prefixes
        (``f1.name`` style), mirroring TQuel range variables.
        """
        def prefixed(attribute: Attribute, prefix: str) -> Attribute:
            if not prefix:
                return attribute
            return attribute.renamed(f"{prefix}.{attribute.name}")

        combined = ([prefixed(a, prefix_self) for a in self._attributes]
                    + [prefixed(a, prefix_other) for a in other._attributes])
        return Schema(combined)

    def key_of(self, values: Mapping[str, Any]) -> Tuple[Any, ...]:
        """Extract the key values from a tuple-like mapping."""
        return tuple(values[name] for name in self._key)

    # -- dunder -----------------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Schema):
            return NotImplemented
        return self._attributes == other._attributes and self._key == other._key

    def __hash__(self) -> int:
        return hash((self._attributes, self._key))

    def __repr__(self) -> str:
        parts = ", ".join(f"{a.name}: {a.domain.name}" for a in self._attributes)
        key = f" key={list(self._key)}" if self._key else ""
        return f"Schema({parts}{key})"
