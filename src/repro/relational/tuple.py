"""Immutable, schema-checked tuples.

A :class:`Tuple` binds a value to every attribute of a
:class:`~repro.relational.schema.Schema`.  Tuples are immutable and
hashable, so relations can be genuine sets; derived tuples are produced by
:meth:`Tuple.project`, :meth:`Tuple.replace` and :meth:`Tuple.concat`.
"""

from __future__ import annotations

from typing import Any, Iterator, Mapping, Sequence, Tuple as PyTuple

from repro.errors import SchemaError, UnknownAttributeError
from repro.relational.schema import Schema


class Tuple(Mapping[str, Any]):
    """One row of a relation: an immutable mapping from attribute name to value.

    Values are validated against the schema's domains at construction, so a
    tuple that exists is well-typed by construction.
    """

    #: ``values`` (the values in schema order) is a plain slot, not a
    #: property: the compiled TQuel read path indexes it once per attribute
    #: per row.  It is never assigned after construction.
    __slots__ = ("_schema", "values", "_hash")

    def __init__(self, schema: Schema, values: Mapping[str, Any]) -> None:
        names = schema.names
        if len(values) != len(names) or any(name not in values
                                            for name in names):
            extra = set(values) - set(names)
            if extra:
                raise SchemaError("values for unknown attributes: "
                                  f"{', '.join(sorted(extra))}")
            missing = [name for name in names if name not in values]
            raise SchemaError(f"missing values for: {', '.join(missing)}")
        self._schema = schema
        self.values: PyTuple[Any, ...] = tuple(
            [attribute.check(values[attribute.name]) for attribute in schema])
        self._hash = hash((names, self.values))

    # -- constructors ----------------------------------------------------------

    @classmethod
    def from_sequence(cls, schema: Schema, values: Sequence[Any]) -> "Tuple":
        """Build from positional values in schema order."""
        attributes = schema._attributes
        if len(values) != len(attributes):
            raise SchemaError(
                f"expected {len(attributes)} values, got {len(values)}"
            )
        return cls.from_checked(schema, tuple([
            attribute.check(value)
            for attribute, value in zip(attributes, values)]))

    @classmethod
    def from_checked(cls, schema: Schema, values: PyTuple[Any, ...]) -> "Tuple":
        """Build from values in schema order already checked against its
        very domains — e.g. copied from stored tuples whose attributes
        have the same ``Domain`` objects — so none is checked again."""
        row = cls.__new__(cls)
        row._schema = schema
        row.values = values
        row._hash = hash((schema._names, values))
        return row

    # -- mapping protocol ---------------------------------------------------------

    def __getitem__(self, name: str) -> Any:
        try:
            return self.values[self._schema._positions[name]]
        except KeyError:
            raise UnknownAttributeError(
                f"tuple has no attribute {name!r}; "
                f"schema has {', '.join(self._schema.names)}"
            ) from None

    def __iter__(self) -> Iterator[str]:
        return iter(self._schema.names)

    def __len__(self) -> int:
        return len(self.values)

    # -- accessors -------------------------------------------------------------------

    @property
    def schema(self) -> Schema:
        """The schema this tuple conforms to."""
        return self._schema

    def key(self) -> PyTuple[Any, ...]:
        """The key values, per the schema's key."""
        values, positions = self.values, self._schema._positions
        return tuple([values[positions[name]] for name in self._schema.key])

    # -- derivation ---------------------------------------------------------------------

    def project(self, names: Sequence[str]) -> "Tuple":
        """The sub-tuple over *names*, against the projected schema."""
        projected_schema = self._schema.project(names)
        return Tuple(projected_schema, {name: self[name] for name in names})

    def replace(self, **updates: Any) -> "Tuple":
        """A copy with some attribute values replaced (and only they are
        checked, in schema order)."""
        schema, values = self._schema, list(self.values)
        try:
            places = sorted(map(schema._positions.__getitem__, updates))
        except KeyError:  # (the constructor names the unknown attributes)
            return Tuple(schema, {**self, **updates})
        for at in places:
            values[at] = schema._attributes[at].check(updates[schema._names[at]])
        return Tuple.from_checked(schema, tuple(values))

    def cast(self, schema: Schema) -> "Tuple":
        """Re-type this tuple against an equal-named schema (e.g. after rename)."""
        return Tuple.from_sequence(schema, self.values)

    def concat(self, other: "Tuple", schema: Schema) -> "Tuple":
        """Concatenate with *other* under a precomputed combined schema."""
        return Tuple.from_sequence(schema, self.values + other.values)

    # -- dunder ----------------------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Tuple):
            return NotImplemented
        return (self._schema.names == other._schema.names
                and self.values == other.values)

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        inner = ", ".join(f"{name}={value!r}"
                          for name, value in zip(self._schema.names, self.values))
        return f"Tuple({inner})"
