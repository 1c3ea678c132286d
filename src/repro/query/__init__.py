"""Query front-end: tokenizer, parser, logical plans, dispatch.

The Section 7.4 dialect grows up here: :func:`parse` (a hand-written
recursive-descent parser, :mod:`repro.query.parser`) turns one statement
into a :class:`QueryPlan` (:mod:`repro.query.plan`); the session resolves
it into an :class:`ExecutionPlan` and runs it with the function its mode
names (:mod:`repro.query.executors`).  ``docs/dialect.md`` is the
user-facing tour; the parser module docstring is the normative grammar.
"""

from repro.query.parser import KEYWORDS, parse
from repro.query.plan import (
    And,
    Comparison,
    ExecutionPlan,
    Not,
    Or,
    Predicate,
    QueryPlan,
)
from repro.query.tokens import Token, tokenize

__all__ = [
    "parse",
    "tokenize",
    "Token",
    "KEYWORDS",
    "QueryPlan",
    "ExecutionPlan",
    "Predicate",
    "Comparison",
    "And",
    "Or",
    "Not",
]
