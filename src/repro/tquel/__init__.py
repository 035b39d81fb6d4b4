"""TQuel: the temporal query language (Snodgrass 1984/1985), implemented.

TQuel extends Quel — the calculus language of INGRES — with three
constructs, one per axis of the taxonomy:

- ``as of <instant>`` — rollback to a past transaction time (§4.2);
- ``when <temporal predicate>`` — relate the valid times of the tuples
  participating in a derivation, with ``overlap``, ``precede``,
  ``start of``, ``end of`` and ``extend`` (§4.3);
- ``valid from <e> to <e>`` / ``valid at <e>`` — specify the implicit
  valid time of derived tuples (§4.3).

The pipeline is conventional: :mod:`~repro.tquel.lexer` →
:mod:`~repro.tquel.parser` → :mod:`~repro.tquel.analyzer` →
:mod:`~repro.tquel.evaluator`, driven by an interactive
:class:`~repro.tquel.interpreter.Session`.  The analyzer enforces the
taxonomy statically: an ``as of`` clause against a database kind without
transaction time, or a ``when``/``valid`` clause against one without
valid time, is rejected before evaluation with the database kind named in
the error — Figure 11 of the paper as a type system.
"""

from repro.tquel.lexer import Token, TokenType
from repro.tquel.parser import Parser, parse, parse_script
from repro.tquel.analyzer import analyze
from repro.tquel.interpreter import Session
from repro.tquel.printer import render, unparse

__all__ = [
    "Parser",
    "Session",
    "Token",
    "TokenType",
    "analyze",
    "parse",
    "parse_script",
    "render",
    "unparse",
]
