"""Relations and the relational algebra.

A :class:`Relation` is an immutable set of
:class:`~repro.relational.tuple.Tuple`\\ s over one
:class:`~repro.relational.schema.Schema` — the paper's "2-dimensional
table" (Figure 2).  All algebra operations (:meth:`select`,
:meth:`project`, :meth:`join`, :meth:`union`, ...) return new relations;
mutation lives in the database kinds of :mod:`repro.core`, which is what
lets a *static rollback* database hand out past states that cannot be
altered.

Duplicate tuples are eliminated (set semantics) but first-insertion order
is preserved for stable printing, so reproduced figures come out in the
paper's row order.
"""

from __future__ import annotations

from typing import (Any, Callable, Dict, Iterable, Iterator, List, Mapping,
                    Optional, Sequence, Tuple as PyTuple, Union)

from repro.errors import SchemaError
from repro.relational.expression import Environment, Expression
from repro.relational.schema import Schema
from repro.relational.tuple import Tuple

Predicate = Union[Expression, Callable[[Tuple], bool]]


def as_callable(predicate: Predicate) -> Callable[[Tuple], bool]:
    """*predicate* as a test of one tuple."""
    if isinstance(predicate, Expression):
        return lambda row: bool(predicate.evaluate(row))
    return predicate


class Relation:
    """An immutable relation: a schema plus a duplicate-free set of tuples.

    Built in one pass (each row hashed once by ``dict.fromkeys``, its
    schema checked by identity); the frozenset behind membership, ``==``,
    ``hash`` and the set operations is built by the first of them, not on
    construction.
    """

    __slots__ = ("_schema", "_tuples", "_tuple_set")

    def __init__(self, schema: Schema, tuples: Iterable[Tuple] = ()) -> None:
        self._schema = schema
        self._tuples: PyTuple[Tuple, ...] = tuple(dict.fromkeys(tuples))
        # Equal tuples have equal names, so checking the distinct ones will
        # do; a row on this very schema object needs no names compared.
        for row in self._tuples:
            if row._schema is not schema and row.schema.names != schema.names:
                raise SchemaError(
                    f"tuple attributes {row.schema.names} do not match "
                    f"relation schema {schema.names}"
                )
        self._tuple_set: Optional[frozenset] = None

    def _members(self) -> frozenset:
        """The tuples as a frozenset, built by the first caller.  Readers
        reach the build without a lock: two racing threads build equal
        sets from the immutable tuples and one assignment wins."""
        members = self._tuple_set
        if members is None:
            members = self._tuple_set = frozenset(self._tuples)
        return members

    # -- constructors ------------------------------------------------------------

    @classmethod
    def from_rows(cls, schema: Schema,
                  rows: Iterable[Union[Mapping[str, Any], Sequence[Any]]]) -> "Relation":
        """Build from dicts or positional sequences of raw values."""
        built: List[Tuple] = []
        for row in rows:
            if isinstance(row, Mapping):
                built.append(Tuple(schema, row))
            else:
                built.append(Tuple.from_sequence(schema, row))
        return cls(schema, built)

    @classmethod
    def empty(cls, schema: Schema) -> "Relation":
        """The empty relation over *schema* (the paper's "null relation")."""
        return cls(schema)

    # -- accessors -----------------------------------------------------------------

    @property
    def schema(self) -> Schema:
        """The relation's schema."""
        return self._schema

    @property
    def tuples(self) -> PyTuple[Tuple, ...]:
        """The tuples, in first-insertion order."""
        return self._tuples

    @property
    def cardinality(self) -> int:
        """The number of tuples."""
        return len(self._tuples)

    @property
    def is_empty(self) -> bool:
        """True if the relation has no tuples."""
        return not self._tuples

    def to_dicts(self) -> List[Dict[str, Any]]:
        """The tuples as plain dictionaries (for display / serialization)."""
        return [dict(row) for row in self._tuples]

    def column(self, name: str) -> List[Any]:
        """All values of one attribute, in tuple order."""
        self._schema.attribute(name)
        return [row[name] for row in self._tuples]

    # -- point updates (functional) ---------------------------------------------------

    def with_tuple(self, row: Tuple) -> "Relation":
        """This relation plus one tuple."""
        return Relation(self._schema, self._tuples + (row,))

    def without_tuple(self, row: Tuple) -> "Relation":
        """This relation minus one tuple (no error if absent)."""
        return Relation(self._schema, (t for t in self._tuples if t != row))

    def insert_values(self, **values: Any) -> "Relation":
        """Convenience: this relation plus ``Tuple(schema, values)``."""
        return self.with_tuple(Tuple(self._schema, values))

    # -- relational algebra ---------------------------------------------------------------

    def select(self, predicate: Predicate) -> "Relation":
        """σ — the tuples satisfying *predicate* (expression or callable)."""
        test = as_callable(predicate)
        return Relation(self._schema, (row for row in self._tuples if test(row)))

    def project(self, names: Sequence[str]) -> "Relation":
        """π — restrict to *names*; duplicates collapse (set semantics)."""
        projected_schema = self._schema.project(names)
        return Relation(projected_schema,
                        (row.project(names) for row in self._tuples))

    def rename(self, mapping: Mapping[str, str]) -> "Relation":
        """ρ — rename attributes per *mapping*."""
        renamed_schema = self._schema.rename(mapping)
        return Relation(renamed_schema,
                        (row.cast(renamed_schema) for row in self._tuples))

    def union(self, other: "Relation") -> "Relation":
        """∪ — requires identical attribute names."""
        self._check_compatible(other, "union")
        return Relation(self._schema, self._tuples + other._tuples)

    def difference(self, other: "Relation") -> "Relation":
        """− — tuples of self not in other."""
        self._check_compatible(other, "difference")
        members = other._members()
        return Relation(self._schema,
                        (row for row in self._tuples if row not in members))

    def intersect(self, other: "Relation") -> "Relation":
        """∩ — tuples in both."""
        self._check_compatible(other, "intersect")
        members = other._members()
        return Relation(self._schema,
                        (row for row in self._tuples if row in members))

    def product(self, other: "Relation", prefix_self: str = "",
                prefix_other: str = "") -> "Relation":
        """× — Cartesian product; colliding names need prefixes."""
        combined = self._schema.concat(other._schema, prefix_self, prefix_other)
        return Relation(combined,
                        (mine.concat(theirs, combined)
                         for mine in self._tuples for theirs in other._tuples))

    def theta_join(self, other: "Relation", predicate: Predicate,
                   prefix_self: str = "", prefix_other: str = "") -> "Relation":
        """⋈θ — product filtered by *predicate* over the combined tuples."""
        return self.product(other, prefix_self, prefix_other).select(predicate)

    def natural_join(self, other: "Relation") -> "Relation":
        """⋈ — equijoin on the shared attribute names.

        Shared attributes appear once in the result, self's attributes first.
        Implemented with a hash join on the common columns.
        """
        common = [name for name in self._schema.names if name in other._schema]
        other_only = [name for name in other._schema.names if name not in common]
        result_schema = Schema(
            tuple(self._schema.attributes)
            + tuple(other._schema.attribute(name) for name in other_only)
        )
        buckets: Dict[PyTuple[Any, ...], List[Tuple]] = {}
        for theirs in other._tuples:
            buckets.setdefault(tuple(theirs[name] for name in common), []).append(theirs)
        joined: List[Tuple] = []
        for mine in self._tuples:
            for theirs in buckets.get(tuple(mine[name] for name in common), ()):
                values = mine.values + tuple(theirs[name] for name in other_only)
                joined.append(Tuple.from_sequence(result_schema, values))
        return Relation(result_schema, joined)

    def sort(self, names: Sequence[str], reverse: bool = False) -> "Relation":
        """This relation with tuples reordered by the given attributes."""
        for name in names:
            self._schema.attribute(name)
        ordered = sorted(self._tuples,
                         key=lambda row: tuple(row[name] for name in names),
                         reverse=reverse)
        return Relation(self._schema, ordered)

    def _check_compatible(self, other: "Relation", operation: str) -> None:
        if self._schema.names != other._schema.names:
            raise SchemaError(
                f"cannot {operation} relations with different attributes: "
                f"{self._schema.names} vs {other._schema.names}"
            )

    # -- display ----------------------------------------------------------------------------

    def pretty(self, title: Optional[str] = None) -> str:
        """Render as an ASCII table in the style of the paper's figures."""
        names = list(self._schema.names)
        columns: List[List[str]] = [[name] for name in names]
        for row in self._tuples:
            for column, name in zip(columns, names):
                column.append(self._schema.attribute(name).domain.format(row[name])
                              if row[name] is not None else "-")
        widths = [max(len(cell) for cell in column) for column in columns]
        def render_row(cells: Sequence[str]) -> str:
            return "| " + " | ".join(cell.ljust(width)
                                     for cell, width in zip(cells, widths)) + " |"
        separator = "+" + "+".join("-" * (width + 2) for width in widths) + "+"
        lines = []
        if title:
            lines.append(title)
        lines.append(separator)
        lines.append(render_row(names))
        lines.append(separator)
        for index in range(len(self._tuples)):
            lines.append(render_row([column[index + 1] for column in columns]))
        lines.append(separator)
        return "\n".join(lines)

    # -- dunder -------------------------------------------------------------------------------

    def __iter__(self) -> Iterator[Tuple]:
        return iter(self._tuples)

    def __len__(self) -> int:
        return len(self._tuples)

    def __contains__(self, row: object) -> bool:
        return row in self._members()

    def __eq__(self, other: object) -> bool:
        """Set equality over the same attribute names."""
        if not isinstance(other, Relation):
            return NotImplemented
        return (self._schema.names == other._schema.names
                and self._members() == other._members())

    def __hash__(self) -> int:
        return hash((self._schema.names, self._members()))

    def __repr__(self) -> str:
        return (f"Relation({', '.join(self._schema.names)}; "
                f"{len(self._tuples)} tuples)")
