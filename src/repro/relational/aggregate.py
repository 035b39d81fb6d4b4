"""Aggregation and grouping over relations.

Supports the trend-analysis queries the paper motivates ("How did the
number of faculty change over the last 5 years?"): count/sum/avg/min/max,
optionally grouped by attributes.  The result of an aggregation is itself
a relation, so it composes with the rest of the algebra.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple as PyTuple

from repro.errors import ExpressionError
from repro.relational.domain import Domain
from repro.relational.relation import Relation
from repro.relational.schema import Attribute, Schema
from repro.relational.tuple import Tuple


class AggregateFunction:
    """A named reduction over the values of one attribute (or over rows).

    ``attribute=None`` is only legal for ``count`` (row counting).  ``None``
    values are skipped, as in SQL aggregates.
    """

    def __init__(self, name: str, attribute: Optional[str],
                 reduce: Callable[[List[Any]], Any], result_domain: Domain) -> None:
        self.name = name
        self.attribute = attribute
        self._reduce = reduce
        self.result_domain = result_domain

    @property
    def label(self) -> str:
        """The output attribute name, e.g. ``count_name`` or ``count``."""
        if self.attribute is None:
            return self.name
        return f"{self.name}_{self.attribute}"

    def apply(self, rows: Sequence[Tuple]) -> Any:
        if self.attribute is None:
            return self._reduce(list(rows))
        values = [row[self.attribute] for row in rows
                  if row[self.attribute] is not None]
        return self._reduce(values)

    def __repr__(self) -> str:
        return f"AggregateFunction({self.label})"


#: Aggregate name -> its reduction over a group's non-null values (of
#: none: ``sum`` is 0, as in Quel, the rest ``None``); shared with TQuel.
REDUCERS: Dict[str, Callable[[List[Any]], Any]] = {
    "count": len,
    "sum": sum,
    "avg": lambda values: sum(values) / len(values) if values else None,
    "min": lambda values: min(values) if values else None,
    "max": lambda values: max(values) if values else None,
}


def count(attribute: Optional[str] = None) -> AggregateFunction:
    """Row count, or non-null count of one attribute."""
    return AggregateFunction("count", attribute, len, Domain.INTEGER)


def count_unique(attribute: str) -> AggregateFunction:
    """Count of distinct non-null values."""
    return AggregateFunction("countu", attribute,
                             lambda values: len(set(values)), Domain.INTEGER)


def agg_sum(attribute: str) -> AggregateFunction:
    """Sum of non-null values (0 on empty input, as in Quel)."""
    return AggregateFunction("sum", attribute, sum, Domain.FLOAT)


def agg_avg(attribute: str) -> AggregateFunction:
    """Mean of non-null values (``None`` on empty input)."""
    return AggregateFunction("avg", attribute, REDUCERS["avg"], Domain.FLOAT)


def agg_min(attribute: str) -> AggregateFunction:
    """Minimum of non-null values (``None`` on empty input)."""
    return AggregateFunction("min", attribute, REDUCERS["min"], Domain.FLOAT)


def agg_max(attribute: str) -> AggregateFunction:
    """Maximum of non-null values (``None`` on empty input)."""
    return AggregateFunction("max", attribute, REDUCERS["max"], Domain.FLOAT)


def aggregate(relation: Relation, functions: Sequence[AggregateFunction],
              by: Sequence[str] = ()) -> Relation:
    """Group *relation* by the ``by`` attributes and apply the functions.

    With an empty ``by``, produces a single row (even over an empty input,
    so ``count`` of an empty relation is 0).  Aggregate output attributes
    are nullable, since ``avg``/``min``/``max`` of an empty group is
    ``None``.
    """
    if not functions:
        raise ExpressionError("aggregate needs at least one function")
    for name in by:
        relation.schema.attribute(name)
    for function in functions:
        if function.attribute is not None:
            relation.schema.attribute(function.attribute)

    group_attributes = tuple(relation.schema.attribute(name) for name in by)
    result_attributes = group_attributes + tuple(
        Attribute(function.label, function.result_domain, nullable=True)
        for function in functions
    )
    result_schema = Schema(result_attributes)

    groups: Dict[PyTuple[Any, ...], List[Tuple]] = {}
    for row in relation:
        groups.setdefault(tuple(row[name] for name in by), []).append(row)
    if not by and not groups:
        groups[()] = []

    result_rows = []
    for group_key, rows in groups.items():
        values = group_key + tuple(function.apply(rows) for function in functions)
        result_rows.append(Tuple.from_sequence(result_schema, values))
    return Relation(result_schema, result_rows)
