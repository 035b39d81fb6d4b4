"""The TQuel recursive-descent parser.

Grammar (in the paper's concrete syntax; ``[...]`` optional, ``{...}``
repeated):

.. code-block:: text

    statement   := range | retrieve | append | delete | replace
                 | create | destroy
    range       := "range" "of" IDENT "is" IDENT
    retrieve    := "retrieve" ["into" IDENT] ["unique"]
                   "(" target {"," target} ")"
                   ["where" expr] ["when" tpred] [valid] [asof]
                   ["sort" "by" IDENT {"," IDENT}]
    target      := [IDENT "="] expr
    valid       := "valid" ("at" texpr | "from" texpr ["to" texpr])
    asof        := "as" "of" texpr
    append      := "append" "to" IDENT "(" assign {"," assign} ")" [valid]
    delete      := "delete" IDENT ["where" expr] [valid]
    replace     := "replace" IDENT "(" assign {"," assign} ")"
                   ["where" expr] [valid]
    create      := "create" ["event"] ["persistent"] IDENT
                   "(" IDENT "=" TYPE {"," IDENT "=" TYPE} ")"
                   ["key" "(" IDENT {"," IDENT} ")"]
    destroy     := "destroy" IDENT

    expr        := or-expr with and/or/not, comparisons (= != < <= > >=),
                   arithmetic (+ - * /), attributes (f.rank or rank),
                   string/number literals, aggregates
                   (count|sum|avg|min|max)[unique]"(" expr ")"
    tpred       := tor {"or" tor} ; tor := tand {"and" tand}
                   ; tand := ["not"] (  "(" tpred ")"
                                      | texpr ("overlap"|"precede"|"equal") texpr )
    texpr       := "start" "of" texpr | "end" "of" texpr
                 | "overlap" "(" texpr "," texpr ")"
                 | "extend" "(" texpr "," texpr ")"
                 | "now" | STRING | IDENT

Statements may be separated by optional semicolons;
:func:`parse_script` splits a multi-statement source.

A statement's *shape* parses once.  :func:`parse_tokens` keys a
process-wide table of at most 256 shapes by the token stream with each
literal's value left out (its kind kept: string, int or float).  A
miss runs the :class:`Parser`, which records the nodes it builds from
literal tokens; the statement, with None in those nodes' places,
becomes the shape's template.  A hit builds new ``Const`` / ``TConst``
nodes from the new literals and copies only the nodes on the paths
from the root down to them; every other subtree is the template's,
shared, since no AST node is mutated after it is built.  Whether a
parse succeeds depends on no literal's value, so a hit cannot hide a
syntax error — save a literal read as a ``create`` type name, which is
why such a statement is never a template; nor is a failed parse, nor
a shape over ``_TEMPLATE_CHARS`` (so an entry's size is bounded too).
A statement of a template carries ``template``: the dict where
:func:`~repro.tquel.analyzer.analyze` files the shape, and its literals.
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.errors import TQuelSyntaxError
from repro.obs import runtime as _obs
from repro.relational.expression import (
    And, AttrRef, BinaryOp, Comparison, Const, Expression, Not, Or,
)
from repro.tquel.ast import (
    AggCall, AppendStmt, CreateStmt, DeleteStmt, DestroyStmt, RangeStmt,
    ReplaceStmt, RetrieveStmt, Statement, TargetItem, TConst, TEndOf, TExtend,
    TNow, TOverlap, TPAnd, TPCompare, TPNot, TPOr, TStartOf, TVar,
    TemporalExpr, TemporalPredicate, ValidClause,
)
from repro.tquel.lexer import Token, TokenType, tokenize

_AGGREGATES = frozenset({"count", "sum", "avg", "min", "max"})
_TYPE_NAMES = frozenset({"string", "integer", "int", "float", "boolean",
                         "bool", "date"})
_COMPARATORS = ("=", "!=", "<=", ">=", "<", ">")
#: The token types a fixed word of the grammar comes as.
_MARKS = (TokenType.KEYWORD, TokenType.SYMBOL)


class Parser:
    """Parses one token stream into statements."""

    def __init__(self, tokens: List[Token]) -> None:
        self._tokens = tokens
        self._position = 0
        #: ``(token index, node)`` per STRING / NUMBER token read.
        self.literals: List[Tuple[int, Any]] = []

    # -- token plumbing ----------------------------------------------------------

    def _peek(self, ahead: int = 0) -> Token:
        index = min(self._position + ahead, len(self._tokens) - 1)
        return self._tokens[index]

    def _advance(self) -> Token:
        token = self._tokens[self._position]
        if token.type is not TokenType.EOF:
            self._position += 1
        return token

    def _error(self, message: str, token: Optional[Token] = None) -> TQuelSyntaxError:
        token = token or self._peek()
        return TQuelSyntaxError(message, token.line, token.column)

    def _expect(self, text: str) -> Token:
        """The next token, which must be the keyword or symbol *text*."""
        token = self._advance()
        if token.value != text or token.type not in _MARKS:
            raise self._error(f"expected {text!r}, found {token.value!r}", token)
        return token

    def _expect_ident(self, what: str = "identifier") -> str:
        token = self._advance()
        if token.type is not TokenType.IDENT:
            raise self._error(f"expected {what}, found {token.value!r}", token)
        return token.value

    def _literal(self, node_class: Callable[[Any], Any]) -> Any:
        """A *node_class* node of the literal token it consumes."""
        token = self._advance()
        value: Any = token.value
        if token.type is TokenType.NUMBER:
            value = (float if "." in value else int)(value)
        node = node_class(value)
        self.literals.append((self._position - 1, node))
        return node

    def _list(self, item: Callable[[], Any]) -> List[Any]:
        """``item {"," item}``."""
        items = [item()]
        while self._accept(","):
            items.append(item())
        return items

    def _parenthesized(self, item: Callable[[], Any]) -> List[Any]:
        """``"(" item {"," item} ")"``."""
        self._expect("(")
        items = self._list(item)
        self._expect(")")
        return items

    def _accept(self, text: str) -> bool:
        """Consume the keyword or symbol *text* if it comes next."""
        token = self._peek()
        if token.value == text and token.type in _MARKS:
            self._advance()
            return True
        return False

    # -- entry points -----------------------------------------------------------------

    def statements(self) -> List[Statement]:
        """Parse the whole stream as a sequence of statements."""
        parsed: List[Statement] = []
        while True:
            while self._accept(";"):
                pass
            if self._peek().type is TokenType.EOF:
                return parsed
            parsed.append(self.statement())

    def statement(self) -> Statement:
        """Parse a single statement."""
        token = self._peek()
        for word in ("range", "retrieve", "append", "delete", "replace",
                     "create", "destroy"):
            if token.is_keyword(word):
                return getattr(self, "_" + word)()
        raise self._error(
            f"expected a statement, found {token.value!r}", token)

    # -- statements ----------------------------------------------------------------------

    def _range(self) -> RangeStmt:
        self._expect("range")
        self._expect("of")
        variable = self._expect_ident("range variable")
        self._expect("is")
        relation = self._expect_ident("relation name")
        return RangeStmt(variable, relation)

    def _retrieve(self) -> RetrieveStmt:
        self._expect("retrieve")
        into = None
        if self._accept("into"):
            into = self._expect_ident("result relation name")
        unique = self._accept("unique")
        targets = self._parenthesized(self._target)

        where = when = valid = as_of = as_of_through = None
        sort_by: Tuple[str, ...] = ()
        while True:
            if self._accept("where"):
                if where is not None:
                    raise self._error("duplicate where clause")
                where = self._expression()
            elif self._accept("when"):
                if when is not None:
                    raise self._error("duplicate when clause")
                when = self._temporal_predicate()
            elif self._peek().is_keyword("valid"):
                if valid is not None:
                    raise self._error("duplicate valid clause")
                valid = self._valid_clause()
            elif self._peek().is_keyword("as"):
                if as_of is not None:
                    raise self._error("duplicate as-of clause")
                as_of = self._as_of_clause()
                if self._accept("through"):
                    as_of_through = self._temporal_expr()
            elif self._accept("sort"):
                self._expect("by")
                sort_by = tuple(self._list(
                    lambda: self._expect_ident("sort attribute")))
            else:
                break
        return RetrieveStmt(targets, into=into, unique=unique, where=where,
                            when=when, valid=valid, as_of=as_of,
                            as_of_through=as_of_through, sort_by=sort_by)

    def _target(self) -> TargetItem:
        # [name =] expr; the name defaults to the referenced attribute.
        name = None
        if (self._peek().type is TokenType.IDENT
                and self._peek(1).is_symbol("=")
                and not self._peek(2).is_symbol("=")):
            # Lookahead: "ident =" starts a named target unless it is a
            # bare comparison like (rank = "full") — disambiguate by
            # treating "ident = expr" as a named target, which matches
            # Quel's target-list syntax.
            name = self._advance().value
            self._expect("=")
        expr = self._expression()
        if name is None:
            name = _default_target_name(expr)
            if name is None:
                raise self._error("this target expression needs an explicit "
                                  "name: write (name = expression)")
        return TargetItem(name, expr)

    def _assignment(self) -> Tuple[str, Expression]:
        name = self._expect_ident("attribute name")
        self._expect("=")
        return name, self._expression()

    def _append(self) -> AppendStmt:
        self._expect("append")
        self._expect("to")
        relation = self._expect_ident("relation name")
        assignments = self._parenthesized(self._assignment)
        valid = self._valid_clause() if self._peek().is_keyword("valid") else None
        return AppendStmt(relation, assignments, valid)

    def _delete(self) -> DeleteStmt:
        self._expect("delete")
        variable = self._expect_ident("range variable")
        where = self._expression() if self._accept("where") else None
        valid = self._valid_clause() if self._peek().is_keyword("valid") else None
        return DeleteStmt(variable, where, valid)

    def _replace(self) -> ReplaceStmt:
        self._expect("replace")
        variable = self._expect_ident("range variable")
        assignments = self._parenthesized(self._assignment)
        where = self._expression() if self._accept("where") else None
        valid = self._valid_clause() if self._peek().is_keyword("valid") else None
        return ReplaceStmt(variable, assignments, where, valid)

    def _create(self) -> CreateStmt:
        self._expect("create")
        event = self._accept("event")
        self._accept("persistent")  # accepted, implied
        relation = self._expect_ident("relation name")
        attributes = self._parenthesized(self._attribute_def)
        key: Tuple[str, ...] = ()
        if self._accept("key"):
            key = tuple(self._parenthesized(
                lambda: self._expect_ident("key attribute")))
        return CreateStmt(relation, tuple(attributes), key, event)

    def _attribute_def(self) -> Tuple[str, str]:
        name = self._expect_ident("attribute name")
        self._expect("=")
        token = self._advance()
        type_name = token.value.lower()
        if type_name not in _TYPE_NAMES:
            raise self._error(
                f"unknown type {token.value!r}; expected one of "
                f"{', '.join(sorted(_TYPE_NAMES))}", token)
        return name, type_name

    def _destroy(self) -> DestroyStmt:
        self._expect("destroy")
        return DestroyStmt(self._expect_ident("relation name"))

    # -- clauses ------------------------------------------------------------------------------

    def _valid_clause(self) -> ValidClause:
        self._expect("valid")
        if self._accept("at"):
            return ValidClause(at=self._temporal_expr())
        self._expect("from")
        from_ = self._temporal_expr()
        to = self._temporal_expr() if self._accept("to") else None
        return ValidClause(from_=from_, to=to)

    def _as_of_clause(self) -> TemporalExpr:
        self._expect("as")
        self._expect("of")
        return self._temporal_expr()

    # -- scalar expressions ----------------------------------------------------------------------

    def _expression(self) -> Expression:
        return self._or_expr()

    def _or_expr(self) -> Expression:
        left = self._and_expr()
        while self._accept("or"):
            left = Or(left, self._and_expr())
        return left

    def _and_expr(self) -> Expression:
        left = self._not_expr()
        while self._accept("and"):
            left = And(left, self._not_expr())
        return left

    def _not_expr(self) -> Expression:
        if self._accept("not"):
            return Not(self._not_expr())
        return self._comparison()

    def _comparison(self) -> Expression:
        left = self._additive()
        token = self._peek()
        if token.is_keyword("is"):
            # `x is null` / `x is not null`.
            self._advance()
            negated = self._accept("not")
            self._expect("null")
            from repro.relational.expression import IsNull
            test: Expression = IsNull(left)
            return Not(test) if negated else test
        if token.type is TokenType.SYMBOL and token.value in _COMPARATORS:
            self._advance()
            right = self._additive()
            return Comparison(token.value, left, right)
        return left

    def _additive(self) -> Expression:
        left = self._multiplicative()
        while self._peek().is_symbol("+") or self._peek().is_symbol("-"):
            op = self._advance().value
            left = BinaryOp(op, left, self._multiplicative())
        return left

    def _multiplicative(self) -> Expression:
        left = self._primary()
        while self._peek().is_symbol("*") or self._peek().is_symbol("/"):
            op = self._advance().value
            left = BinaryOp(op, left, self._primary())
        return left

    def _primary(self) -> Expression:
        token = self._peek()
        if token.is_symbol("("):
            self._advance()
            inner = self._expression()
            self._expect(")")
            return inner
        if token.type is TokenType.STRING or token.type is TokenType.NUMBER:
            return self._literal(Const)
        if token.is_symbol("-"):
            self._advance()
            operand = self._primary()
            return BinaryOp("-", Const(0), operand)
        if token.type is TokenType.IDENT:
            return self._name_or_aggregate()
        raise self._error(
            f"expected an expression, found {token.value!r}", token)

    def _name_or_aggregate(self) -> Expression:
        name_token = self._advance()
        name = name_token.value
        if name.lower() in _AGGREGATES and self._peek().is_symbol("("):
            return self._aggregate(name.lower())
        if self._accept("."):
            attribute = self._expect_ident("attribute name")
            return AttrRef(name, attribute)
        return AttrRef(None, name)

    def _aggregate(self, func: str) -> Expression:
        self._expect("(")
        unique = self._accept("unique")
        operand = None
        if not self._peek().is_symbol(")"):
            operand = self._expression()
        self._expect(")")
        if operand is None and func != "count":
            raise self._error(f"{func} needs an operand")
        # AggCall is not an Expression; the analyzer/evaluator treat targets
        # containing it specially.  Wrap check happens there.
        return AggCall(func, operand, unique)  # type: ignore[return-value]

    # -- temporal expressions and predicates -------------------------------------------------------

    def _temporal_predicate(self) -> TemporalPredicate:
        left = self._temporal_and()
        while self._accept("or"):
            left = TPOr(left, self._temporal_and())
        return left

    def _temporal_and(self) -> TemporalPredicate:
        left = self._temporal_unary()
        while self._accept("and"):
            left = TPAnd(left, self._temporal_unary())
        return left

    def _temporal_unary(self) -> TemporalPredicate:
        if self._accept("not"):
            return TPNot(self._temporal_unary())
        if self._peek().is_symbol("("):
            self._advance()
            inner = self._temporal_predicate()
            self._expect(")")
            return inner
        return self._temporal_comparison()

    #: ``when`` comparison operators: the paper's three plus the Allen-style
    #: extensions (documented in the evaluator).
    _WHEN_OPERATORS = frozenset({
        "overlap", "precede", "equal",
        "meets", "before", "after", "during", "starts", "finishes",
    })

    def _temporal_comparison(self) -> TemporalPredicate:
        left = self._temporal_expr()
        token = self._advance()
        if token.type is TokenType.KEYWORD and token.value in self._WHEN_OPERATORS:
            return TPCompare(token.value, left, self._temporal_expr())
        raise self._error(
            f"expected one of {', '.join(sorted(self._WHEN_OPERATORS))}; "
            f"found {token.value!r}", token)

    def _temporal_expr(self) -> TemporalExpr:
        token = self._peek()
        for word, node in (("start", TStartOf), ("end", TEndOf)):
            if token.is_keyword(word):
                self._advance()
                self._expect("of")
                return node(self._temporal_expr())
        for word, node in (("overlap", TOverlap), ("extend", TExtend)):
            if token.is_keyword(word):
                self._advance()
                self._expect("(")
                left = self._temporal_expr()
                self._expect(",")
                right = self._temporal_expr()
                self._expect(")")
                return node(left, right)
        if token.is_keyword("now"):
            self._advance()
            return TNow()
        if token.is_keyword("forever") or token.is_keyword("beginning"):
            self._advance()
            return TConst(token.value)
        if token.type is TokenType.STRING:
            return self._literal(TConst)
        if token.type is TokenType.IDENT:
            self._advance()
            return TVar(token.value)
        raise self._error(
            f"expected a temporal expression, found {token.value!r}", token)


def _default_target_name(expr) -> Optional[str]:
    """The implicit result-attribute name of a bare target expression."""
    if isinstance(expr, AttrRef):
        return expr.name
    if isinstance(expr, AggCall):
        if expr.operand is not None and isinstance(expr.operand, AttrRef):
            return f"{expr.func}_{expr.operand.name}"
        return expr.func
    return None


#: Shape -> ``(statement, plan, ((token index, node class), ...))``; at most
#: 256, the oldest dropped first.  The statement holds None where each
#: literal was, so no request's values outlive it.
_TEMPLATES: Dict[Tuple[Any, ...], Tuple[Any, Any, Any]] = {}
#: The longest shape kept, in characters: each non-literal token's text,
#: one per literal.  This bounds an entry's key and tree.
_TEMPLATE_CHARS = 512
_TEMPLATES_LOCK = threading.Lock()


def _shape(tokens: List[Token]) -> Tuple[Any, ...]:
    """*tokens* with each literal's text replaced by its kind: the types
    ``str``, ``int`` or ``float``, which equal no token text.  A
    non-literal's text fixes its token type, which is left out (hashing
    the enum is a Python call per token)."""
    string, number = TokenType.STRING, TokenType.NUMBER
    return tuple([
        value if kind is not string and kind is not number
        else str if kind is string else float if "." in value else int
        for kind, value, _, _ in tokens])


def _plan(node: Any, slots: Dict[int, int]) -> Any:
    """How to rebuild *node* around the literals in *slots* (``id`` ->
    index, popped as reached): that index, or the ``(field, plan)``
    pairs of the members that lead to one; None if none lies under it."""
    if id(node) in slots:
        return slots.pop(id(node))
    if isinstance(node, (list, tuple)):
        members: Any = enumerate(node)
    elif hasattr(node, "__dict__"):
        members = vars(node).items()
    else:
        return None
    plan = tuple((field, sub) for field, member in list(members)
                 if (sub := _plan(member, slots)) is not None)
    return plan or None


def _bind(node: Any, plan: Any, literals: List[Any]) -> Any:
    """A copy of *node* with *literals* on *plan*; the rest is shared."""
    if type(plan) is int:
        return literals[plan]
    if isinstance(node, (list, tuple)):
        members = list(node)
        for index, sub in plan:
            members[index] = _bind(node[index], sub, literals)
        return type(node)(members)
    # A new node of the class, filled before anyone can see it (frozen
    # dataclasses too): its constructor already checked these fields.
    copy = object.__new__(type(node))
    fields = vars(copy)
    fields.update(vars(node))
    for name, sub in plan:
        fields[name] = _bind(fields[name], sub, literals)
    return copy


def parse_tokens(tokens: List[Token]) -> Statement:
    """Parse exactly one statement from an already-lexed token stream.

    Split out of :func:`parse` so callers that time lexing and parsing
    separately (the session's ``tquel.lex`` / ``tquel.parse`` spans) can
    run the two phases themselves.  A shape seen before binds the new
    literals into its template (``tquel.parse.template_hit``); otherwise
    the parser runs (``tquel.parse.template_miss``).
    """
    shape = _shape(tokens)
    template = _TEMPLATES.get(shape)
    metrics = _obs.current().metrics
    if template is not None:
        metrics.counter("tquel.parse.template_hit").inc()
        statement, plan, makers = template
        if plan is None:
            return statement
        literals = [make(shape[index](tokens[index].value))
                    for index, make in makers]
        bound = _bind(statement, plan, literals)
        vars(bound)["template"] = (vars(statement)["template"][0], literals)
        return bound
    metrics.counter("tquel.parse.template_miss").inc()
    parser = Parser(tokens)
    statement = parser.statement()
    while parser._accept(";"):
        pass
    trailing = parser._peek()
    if trailing.type is not TokenType.EOF:
        raise TQuelSyntaxError(
            f"unexpected input after statement: {trailing.value!r}",
            trailing.line, trailing.column)
    # Checked before the walk, which recurses once per level of the tree.
    if sum(len(text) if type(text) is str else 1
           for text in shape) > _TEMPLATE_CHARS:
        return statement
    # A template needs every literal token to be a node the plan reaches
    # (a literal read as a type name, in ``create``, is not).
    slots = {id(node): index
             for index, (_, node) in enumerate(parser.literals)}
    plan = _plan(statement, slots)
    if not slots and len(parser.literals) == sum(
            kind is str or kind is int or kind is float for kind in shape):
        makers = tuple((index, type(node)) for index, node in parser.literals)
        analyses: Dict[Any, Any] = {}
        vars(statement)["template"] = (
            analyses, [node for _, node in parser.literals])
        template = statement if plan is None else _bind(
            statement, plan, [None] * len(makers))
        vars(template)["template"] = (analyses, [])
        with _TEMPLATES_LOCK:  # another thread may have just added it
            if shape not in _TEMPLATES and len(_TEMPLATES) >= 256:
                del _TEMPLATES[next(iter(_TEMPLATES))]
            _TEMPLATES[shape] = (template, plan, makers)
    return statement


def parse(source: str) -> Statement:
    """Parse exactly one statement."""
    return parse_tokens(tokenize(source))


def parse_script(source: str) -> List[Statement]:
    """Parse a multi-statement script."""
    return Parser(tokenize(source)).statements()
