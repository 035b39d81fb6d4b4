"""Scalar and predicate expressions.

This is the expression AST shared by the relational algebra (selection
predicates) and by TQuel ``where`` clauses.  Expressions are built either
by the TQuel parser or fluently in Python::

    from repro.relational import attr, const
    predicate = (attr("f", "name") == const("Merrie")) & (attr("f", "rank") != const("full"))

Evaluation happens against an :class:`Environment`: a mapping from range-
variable name to :class:`~repro.relational.tuple.Tuple`.  Unqualified
references (``attr("rank")``) resolve against the distinguished variable
``None``, which the algebra binds to "the current tuple".

Null semantics are two-valued and conservative: any comparison or
arithmetic involving ``None`` is false/None, and :class:`IsNull` exists to
test for nulls explicitly.  (The paper predates SQL's three-valued logic;
two-valued nulls keep the semantics of the four database kinds crisp.)

Note on operator overloading: ``==`` on an expression *builds* a
:class:`Comparison` node rather than comparing ASTs.  Structural identity,
where needed (parser round-trip tests), uses canonical ``repr`` equality.
"""

from __future__ import annotations

import abc
import operator
from typing import Any, Callable, Dict, FrozenSet, Mapping, Optional, Tuple as PyTuple, Union

from repro.errors import ExpressionError, UnknownAttributeError
from repro.relational.tuple import Tuple

#: An evaluation environment: range-variable name -> tuple.  The key ``None``
#: holds the implicit "current tuple" used by unqualified references.
Environment = Mapping[Optional[str], Tuple]

#: ``(variable, attribute)`` pairs reported by :meth:`Expression.references`.
Reference = PyTuple[Optional[str], str]

#: A compiled expression: one callable over whatever the caller binds its
#: range variables to (the "bound rows") — and what resolves a reference
#: ``(variable, attribute)`` to a getter over those rows, once.
Compiled = Callable[[Any], Any]
Resolver = Callable[[Optional[str], str], Compiled]


def _env_of(binding: Union[Environment, Tuple]) -> Environment:
    """Accept either a full environment or a bare tuple (bound to ``None``)."""
    if isinstance(binding, Tuple):
        return {None: binding}
    return binding


class Expression(abc.ABC):
    """Base class of all expression nodes; also the fluent builder."""

    @abc.abstractmethod
    def evaluate(self, env: Union[Environment, Tuple]) -> Any:
        """Evaluate under an environment (or a bare tuple)."""

    @abc.abstractmethod
    def compile(self, resolve: Resolver) -> Compiled:
        """This expression as nested closures over the caller's bound rows.

        *resolve* turns every attribute reference into a getter once, so
        a run per row looks up no name and builds no environment.  Values,
        null semantics and errors are :meth:`evaluate`'s — the tree walk
        is the specification; operator nodes run one ``_apply`` under both.
        """

    @abc.abstractmethod
    def references(self) -> FrozenSet[Reference]:
        """Every ``(variable, attribute)`` this expression reads."""

    @abc.abstractmethod
    def __repr__(self) -> str:
        """Canonical rendering; used as structural identity in tests."""

    # -- fluent builders -------------------------------------------------------

    def __eq__(self, other: object) -> "Comparison":  # type: ignore[override]
        return Comparison("=", self, _lift(other))

    def __ne__(self, other: object) -> "Comparison":  # type: ignore[override]
        return Comparison("!=", self, _lift(other))

    def __lt__(self, other: object) -> "Comparison":
        return Comparison("<", self, _lift(other))

    def __le__(self, other: object) -> "Comparison":
        return Comparison("<=", self, _lift(other))

    def __gt__(self, other: object) -> "Comparison":
        return Comparison(">", self, _lift(other))

    def __ge__(self, other: object) -> "Comparison":
        return Comparison(">=", self, _lift(other))

    def __and__(self, other: "Expression") -> "And":
        return And(self, _lift(other))

    def __or__(self, other: "Expression") -> "Or":
        return Or(self, _lift(other))

    def __invert__(self) -> "Not":
        return Not(self)

    def __add__(self, other: object) -> "BinaryOp":
        return BinaryOp("+", self, _lift(other))

    def __sub__(self, other: object) -> "BinaryOp":
        return BinaryOp("-", self, _lift(other))

    def __mul__(self, other: object) -> "BinaryOp":
        return BinaryOp("*", self, _lift(other))

    def __truediv__(self, other: object) -> "BinaryOp":
        return BinaryOp("/", self, _lift(other))

    def is_null(self) -> "IsNull":
        """Build an explicit null test."""
        return IsNull(self)

    __hash__ = None  # type: ignore[assignment]  # == builds nodes; not hashable


def _lift(value: object) -> Expression:
    """Wrap a plain Python value as a :class:`Const`."""
    if isinstance(value, Expression):
        return value
    return Const(value)


class Const(Expression):
    """A literal value."""

    def __init__(self, value: Any) -> None:
        self.value = value

    def evaluate(self, env: Union[Environment, Tuple]) -> Any:
        return self.value

    def compile(self, resolve: Resolver) -> Compiled:
        value = self.value
        return lambda rows: value

    def references(self) -> FrozenSet[Reference]:
        return frozenset()

    def __repr__(self) -> str:
        return f"Const({self.value!r})"


class AttrRef(Expression):
    """A reference to an attribute, optionally qualified by a range variable.

    ``AttrRef("f", "rank")`` is TQuel's ``f.rank``; ``AttrRef(None, "rank")``
    is an unqualified reference resolved against the current tuple.
    """

    def __init__(self, variable: Optional[str], name: str) -> None:
        self.variable = variable
        self.name = name

    def evaluate(self, env: Union[Environment, Tuple]) -> Any:
        bindings = _env_of(env)
        try:
            bound = bindings[self.variable]
        except KeyError:
            label = self.variable if self.variable is not None else "<current>"
            raise ExpressionError(
                f"range variable {label!r} is not bound"
            ) from None
        try:
            return bound[self.name]
        except UnknownAttributeError as exc:
            raise ExpressionError(str(exc)) from None

    def compile(self, resolve: Resolver) -> Compiled:
        return resolve(self.variable, self.name)

    def references(self) -> FrozenSet[Reference]:
        return frozenset({(self.variable, self.name)})

    def __repr__(self) -> str:
        if self.variable is None:
            return f"AttrRef({self.name})"
        return f"AttrRef({self.variable}.{self.name})"


_COMPARATORS: Dict[str, Callable[[Any, Any], bool]] = {
    "=": operator.eq, "!=": operator.ne, "<": operator.lt,
    "<=": operator.le, ">": operator.gt, ">=": operator.ge,
}


class _Binary(Expression):
    """A two-operand node: evaluated and compiled through one ``_apply``
    (the short-circuiting connectives override both instead)."""

    def __init__(self, left: Expression, right: Expression) -> None:
        self.left = left
        self.right = right

    def _apply(self, left: Any, right: Any) -> Any:
        raise NotImplementedError

    def evaluate(self, env: Union[Environment, Tuple]) -> Any:
        return self._apply(self.left.evaluate(env), self.right.evaluate(env))

    def compile(self, resolve: Resolver) -> Compiled:
        left, right = self.left.compile(resolve), self.right.compile(resolve)
        apply = self._apply
        return lambda rows: apply(left(rows), right(rows))

    def references(self) -> FrozenSet[Reference]:
        return self.left.references() | self.right.references()


class Comparison(_Binary):
    """A binary comparison. Comparisons involving ``None`` are false."""

    def __init__(self, op: str, left: Expression, right: Expression) -> None:
        if op not in _COMPARATORS:
            raise ExpressionError(f"unknown comparison operator {op!r}")
        self.op = op
        self.left = left
        self.right = right

    def _apply(self, left: Any, right: Any) -> bool:
        if left is None or right is None:
            return False
        try:
            return _COMPARATORS[self.op](left, right)
        except TypeError as exc:
            raise ExpressionError(
                f"cannot compare {left!r} {self.op} {right!r}"
            ) from exc

    def __repr__(self) -> str:
        return f"({self.left!r} {self.op} {self.right!r})"


_ARITHMETIC: Dict[str, Callable[[Any, Any], Any]] = {
    "+": operator.add, "-": operator.sub, "*": operator.mul,
    "/": operator.truediv, "%": operator.mod,
}


class BinaryOp(_Binary):
    """Arithmetic (and string concatenation via ``+``); null-propagating."""

    def __init__(self, op: str, left: Expression, right: Expression) -> None:
        if op not in _ARITHMETIC:
            raise ExpressionError(f"unknown arithmetic operator {op!r}")
        self.op = op
        self.left = left
        self.right = right

    def _apply(self, left: Any, right: Any) -> Any:
        if left is None or right is None:
            return None
        try:
            return _ARITHMETIC[self.op](left, right)
        except (TypeError, ZeroDivisionError) as exc:
            raise ExpressionError(
                f"cannot compute {left!r} {self.op} {right!r}: {exc}"
            ) from exc

    def __repr__(self) -> str:
        return f"({self.left!r} {self.op} {self.right!r})"


class And(_Binary):
    """Logical conjunction (short-circuiting)."""

    def evaluate(self, env: Union[Environment, Tuple]) -> bool:
        return bool(self.left.evaluate(env)) and bool(self.right.evaluate(env))

    def compile(self, resolve: Resolver) -> Compiled:
        left, right = self.left.compile(resolve), self.right.compile(resolve)
        return lambda rows: bool(left(rows)) and bool(right(rows))

    def __repr__(self) -> str:
        return f"({self.left!r} and {self.right!r})"


class Or(_Binary):
    """Logical disjunction (short-circuiting)."""

    def evaluate(self, env: Union[Environment, Tuple]) -> bool:
        return bool(self.left.evaluate(env)) or bool(self.right.evaluate(env))

    def compile(self, resolve: Resolver) -> Compiled:
        left, right = self.left.compile(resolve), self.right.compile(resolve)
        return lambda rows: bool(left(rows)) or bool(right(rows))

    def __repr__(self) -> str:
        return f"({self.left!r} or {self.right!r})"


class _Unary(Expression):
    """A one-operand node: evaluated and compiled through one ``_apply``."""

    _apply: Callable[[Any], bool]

    def __init__(self, operand: Expression) -> None:
        self.operand = operand

    def evaluate(self, env: Union[Environment, Tuple]) -> bool:
        return self._apply(self.operand.evaluate(env))

    def compile(self, resolve: Resolver) -> Compiled:
        operand, apply = self.operand.compile(resolve), self._apply
        return lambda rows: apply(operand(rows))

    def references(self) -> FrozenSet[Reference]:
        return self.operand.references()


class Not(_Unary):
    """Logical negation."""

    _apply = staticmethod(operator.not_)

    def __repr__(self) -> str:
        return f"(not {self.operand!r})"


class IsNull(_Unary):
    """Explicit null test (``None`` never compares equal via ``=``)."""

    _apply = staticmethod(lambda value: value is None)

    def __repr__(self) -> str:
        return f"({self.operand!r} is null)"


TRUE = Const(True)
FALSE = Const(False)


def attr(variable_or_name: str, name: Optional[str] = None) -> AttrRef:
    """Build an attribute reference.

    ``attr("rank")`` is unqualified; ``attr("f", "rank")`` is ``f.rank``.
    """
    if name is None:
        return AttrRef(None, variable_or_name)
    return AttrRef(variable_or_name, name)


def const(value: Any) -> Const:
    """Build a literal node."""
    return Const(value)
