"""The relational substrate: a from-scratch, in-memory relational engine.

The paper's four database kinds are all built over ordinary relations
("a collection of relations; each relation consists of a set of tuples
with the same set of attributes", §4.1).  This package supplies that
foundation:

- :mod:`~repro.relational.domain` — value domains, including the paper's
  *user-defined time* domains (stored and formatted, never interpreted);
- :mod:`~repro.relational.schema` — attributes and schemas with keys;
- :mod:`~repro.relational.tuple` — immutable, schema-checked tuples;
- :mod:`~repro.relational.expression` — the scalar/predicate expression
  AST shared by the algebra and by TQuel ``where`` clauses;
- :mod:`~repro.relational.relation` — relations with the full relational
  algebra (select, project, join, union, difference, product, rename);
- :mod:`~repro.relational.aggregate` — aggregation and grouping;
- :mod:`~repro.relational.constraints` — key / not-null / check constraints.
"""

from repro.relational.domain import Domain
from repro.relational.schema import Attribute, Schema
from repro.relational.tuple import Tuple
from repro.relational.relation import Relation
from repro.relational.expression import (
    And, AttrRef, BinaryOp, Comparison, Const, Expression, Not, Or, attr, const,
)
from repro.relational.constraints import (
    CheckConstraint, Constraint, KeyConstraint, NotNullConstraint,
)

__all__ = [
    "And",
    "AttrRef",
    "Attribute",
    "BinaryOp",
    "CheckConstraint",
    "Comparison",
    "Const",
    "Constraint",
    "Domain",
    "Expression",
    "KeyConstraint",
    "Not",
    "NotNullConstraint",
    "Or",
    "Relation",
    "Schema",
    "Tuple",
    "attr",
    "const",
]
