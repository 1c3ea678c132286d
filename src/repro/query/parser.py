"""Recursive-descent parser for the session dialect — normative grammar.

This module is the single source of truth for the dialect grammar (the
user-facing tour lives in ``docs/dialect.md``; these examples run as
tier-1 doctests via ``check.sh``).  :func:`parse` turns one statement
into a :class:`~repro.query.plan.QueryPlan`; malformed input raises
:class:`~repro.errors.ConfigurationError` with the offending column and
a caret span — never an ``IndexError`` or ``AttributeError``.

Grammar
-------
One statement form; *optional clauses may appear in any order*, each at
most once; keywords are case-insensitive; an optional trailing ``;``::

    [EXPLAIN [ANALYZE]] SELECT TOP <k> FROM <table> ORDER BY <udf> [DESC]
        [WHERE <predicate>]
        [BUDGET <n> | BUDGET <p>%]
        [BATCH <b>]
        [SEED <s>]
        [WORKERS <w>] [BACKEND <name>]
        [STREAM] [EVERY <n>] [CONFIDENCE <p>] [CONTINUOUS]

    <predicate>  := <or>
    <or>         := <and> (OR <and>)*
    <and>        := <unary> (AND <unary>)*
    <unary>      := NOT <unary> | ( <or> ) | <comparison>
    <comparison> := FEATURE [ <i> ] <op> <number>
    <op>         := < | <= | > | >= | = | !=

Clause semantics, each with a runnable example:

``SELECT TOP <k>`` — answer cardinality; the engine maintains a
cardinality-constrained priority queue of the ``k`` best scores seen.

    >>> parse("SELECT TOP 10 FROM t ORDER BY f").k
    10

``FROM <table>`` / ``ORDER BY <udf>`` — names previously registered with
:meth:`~repro.session.OpaqueQuerySession.register_table` /
:meth:`~repro.session.OpaqueQuerySession.register_udf`.  The UDF is the
opaque scoring function; the session never inspects it.

    >>> plan = parse("SELECT TOP 5 FROM listings ORDER BY valuation")
    >>> (plan.table, plan.udf)
    ('listings', 'valuation')

``DESC`` — optional and purely documentary: top-k always means the *k
highest* scores, so descending order is the only supported direction and
``DESC`` makes it explicit.  (``ASC`` is not in the dialect.)

    >>> parse("SELECT TOP 5 FROM t ORDER BY f DESC").descending
    True

``WHERE <predicate>`` — pushdown filtering over the table's cheap
feature vectors: ``feature[<i>]`` compares column ``i`` of the feature
matrix against a number, composable with ``AND`` / ``OR`` / ``NOT`` and
parentheses.  The filter prunes index leaves *before* the bandit draws,
so filtered-out elements are never scored (filtered top-k).

    >>> plan = parse("SELECT TOP 5 FROM t ORDER BY f "
    ...              "WHERE feature[0] > 0.5 AND NOT feature[1] <= 2")
    >>> plan.where.canonical()
    'feature[0] > 0.5 AND NOT feature[1] <= 2'

``BUDGET <n>`` or ``BUDGET <p>%`` — the scoring budget: either an
absolute number of UDF calls or a percentage of the candidate set
(the table, or the rows surviving ``WHERE``), resolved at execution
time as ``max(k, p/100 * candidates)``.  Omitted: every candidate is
scored (exact answer).

    >>> parse("SELECT TOP 5 FROM t ORDER BY f BUDGET 500").budget
    500
    >>> parse("SELECT TOP 5 FROM t ORDER BY f BUDGET 10%").budget_fraction
    0.1

``BATCH <b>`` — score elements in batches of ``b`` (Section 3.2.5);
default 1.  Larger batches amortize per-call overhead and suit GPU-style
scorers.

    >>> parse("SELECT TOP 5 FROM t ORDER BY f BATCH 32").batch_size
    32

``SEED <s>`` — root seed for the engine's random streams; omitted means
fresh entropy (non-reproducible).

    >>> parse("SELECT TOP 5 FROM t ORDER BY f SEED 7").seed
    7

``WORKERS <w>`` — shard the query across ``w`` workers, each with its
own partition index and bandit engine, merged by a coordinator (see
:mod:`repro.parallel`).  ``WORKERS 1`` (or omitting the clause) runs the
ordinary single-engine path.

    >>> parse("SELECT TOP 5 FROM t ORDER BY f WORKERS 4").workers
    4

``BACKEND <name>`` — how the shards execute (requires ``WORKERS``):
``serial`` is the deterministic simulation, ``thread`` and ``process``
run on real concurrency.  Names come from the :mod:`repro.parallel`
registry.  Default: ``serial``.

    >>> parse("SELECT TOP 5 FROM t ORDER BY f WORKERS 4 "
    ...       "BACKEND process").backend
    'process'

``STREAM`` / ``EVERY <n>`` — execute barrier-free (see
:mod:`repro.streaming`): shard workers run continuously in small budget
slices, the coordinator merges outcomes on arrival, and progressive
snapshots are available from the first slice onward.  ``EVERY <n>``
(requires ``STREAM``) throttles snapshots to one per ``n`` scored
elements.

    >>> parse("SELECT TOP 5 FROM t ORDER BY f STREAM").stream
    True
    >>> parse("SELECT TOP 5 FROM t ORDER BY f WORKERS 4 "
    ...       "STREAM EVERY 200").every
    200

``CONFIDENCE <p>`` — principled early stop (requires ``STREAM``): stop
once the coordinator's displacement bound (see
:mod:`repro.core.convergence`) certifies at level ``p`` that the rest of
the budget would not change the top-k.  Accepts a decimal in (0, 1) or a
percentage.

    >>> parse("SELECT TOP 5 FROM t ORDER BY f "
    ...       "STREAM CONFIDENCE 0.95").confidence
    0.95
    >>> parse("SELECT TOP 5 FROM t ORDER BY f "
    ...       "STREAM EVERY 100 CONFIDENCE 95%").confidence
    0.95

``CONTINUOUS`` — mark the statement a *standing* query over a live
table (requires ``STREAM``): instead of terminating, it re-emits
progressive snapshots whenever committed writes change the answer.
Standing queries are driven by :class:`repro.live.ContinuousQuery` (or
a :class:`repro.service.QueryService`); ``execute``/``stream`` reject
them with that guidance.

    >>> parse("SELECT TOP 5 FROM t ORDER BY f STREAM CONTINUOUS").continuous
    True

``EXPLAIN <query>`` — do not execute; return the resolved execution plan
instead (:class:`~repro.query.plan.ExecutionPlan`).

    >>> parse("EXPLAIN SELECT TOP 5 FROM t ORDER BY f").explain
    True

``EXPLAIN ANALYZE <query>`` — *execute* the query under a span tracer
and return an :class:`~repro.obs.analyze.ExplainAnalyzeReport` pairing
the resolved plan with the measured span tree (wall clock, virtual
clock, UDF calls, memo hits per parse/plan/round/slice/shard span).

    >>> plan = parse("EXPLAIN ANALYZE SELECT TOP 5 FROM t ORDER BY f")
    >>> (plan.explain, plan.analyze)
    (True, True)

Optional clauses are order-insensitive — these parse identically:

    >>> parse("SELECT TOP 5 FROM t ORDER BY f SEED 3 BUDGET 100") == \\
    ...     parse("SELECT TOP 5 FROM t ORDER BY f BUDGET 100 SEED 3")
    True

Malformed queries raise :class:`~repro.errors.ConfigurationError` with
the offending column and a caret span:

    >>> parse("SELECT TOP 5 FROM t ORDER BY f EVERY 100")
    Traceback (most recent call last):
        ...
    repro.errors.ConfigurationError: unexpected token 'EVERY' at column 32: EVERY requires STREAM
        SELECT TOP 5 FROM t ORDER BY f EVERY 100
                                       ^^^^^
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.errors import ConfigurationError
from repro.query.plan import (
    And,
    Comparison,
    Not,
    Or,
    Predicate,
    QueryPlan,
)
from repro.query.tokens import (
    END,
    NUMBER,
    OP,
    WORD,
    Token,
    span_error,
    token_error,
    tokenize,
)

#: Every reserved word of the dialect with a one-line description.  The
#: docs drift gate (``tools/check_docs.py --grammar``) verifies that the
#: clauses documented in ``docs/dialect.md`` and this table never diverge.
KEYWORDS: Dict[str, str] = {
    "EXPLAIN": "return the resolved execution plan instead of executing",
    "ANALYZE": "with EXPLAIN: execute and report the measured span tree",
    "SELECT": "statement head",
    "TOP": "answer cardinality k",
    "FROM": "registered table name",
    "ORDER": "with BY: the opaque UDF to maximize",
    "BY": "with ORDER: the opaque UDF to maximize",
    "DESC": "documentary; top-k always maximizes",
    "WHERE": "pushdown feature predicate (filtered top-k)",
    "BUDGET": "scoring budget, absolute or % of the candidate set",
    "BATCH": "batched scoring (paper Section 3.2.5)",
    "SEED": "root seed for reproducible random streams",
    "WORKERS": "shard the query across this many workers",
    "BACKEND": "shard placement (requires WORKERS)",
    "STREAM": "barrier-free execution with progressive snapshots",
    "EVERY": "snapshot granularity in scored elements (requires STREAM)",
    "CONFIDENCE": "certified early stop level (requires STREAM)",
    "CONTINUOUS": "standing query over a live table (requires STREAM)",
    "AND": "predicate conjunction",
    "OR": "predicate disjunction",
    "NOT": "predicate negation",
    "FEATURE": "feature[<i>]: column i of the table's feature matrix",
}

#: The optional clauses of the statement (each at most once, any order).
_CLAUSE_KEYWORDS = ("WHERE", "BUDGET", "BATCH", "SEED", "WORKERS",
                    "BACKEND", "STREAM", "EVERY", "CONFIDENCE",
                    "CONTINUOUS")

#: Maximum WHERE nesting (parens / NOT) — keeps the recursive-descent
#: predicate parser inside Python's stack, so malformed-input failures
#: stay ConfigurationError, never RecursionError.
_MAX_PREDICATE_DEPTH = 64


class _Parser:
    """One parse of one statement; all state lives on the instance."""

    def __init__(self, text: str) -> None:
        self.text = text
        self.tokens = tokenize(text)
        self.position = 0

    # -- token plumbing ------------------------------------------------------

    def peek(self) -> Token:
        return self.tokens[self.position]

    def advance(self) -> Token:
        token = self.tokens[self.position]
        if token.kind != END:
            self.position += 1
        return token

    def at_keyword(self, keyword: str) -> bool:
        token = self.peek()
        return token.kind == WORD and token.upper == keyword

    def accept_keyword(self, keyword: str) -> Optional[Token]:
        if self.at_keyword(keyword):
            return self.advance()
        return None

    def expect_keyword(self, keyword: str, context: str) -> Token:
        token = self.peek()
        if not self.at_keyword(keyword):
            raise token_error(self.text, token, f"expected {context}")
        return self.advance()

    def accept_op(self, *ops: str) -> Optional[Token]:
        token = self.peek()
        if token.kind == OP and token.text in ops:
            return self.advance()
        return None

    def expect_op(self, op: str, context: str) -> Token:
        token = self.peek()
        if not (token.kind == OP and token.text == op):
            raise token_error(self.text, token, f"expected {context}")
        return self.advance()

    # -- terminals -----------------------------------------------------------

    def expect_identifier(self, what: str) -> str:
        token = self.peek()
        if token.kind != WORD:
            raise token_error(self.text, token, f"expected {what}")
        if token.upper in KEYWORDS:
            raise token_error(
                self.text, token,
                f"expected {what}, but {token.upper} is a reserved keyword"
            )
        self.advance()
        return token.text

    def expect_int(self, clause: str, *, positive: bool = True) -> int:
        token = self.peek()
        if token.kind != NUMBER or "." in token.text:
            raise token_error(self.text, token,
                              f"{clause} requires an integer")
        self.advance()
        value = int(token.text)
        if positive and value <= 0:
            raise span_error(self.text, token.start, token.end,
                             f"{clause} must be positive",
                             f"got {value}")
        if not positive and value < 0:
            raise span_error(self.text, token.start, token.end,
                             f"{clause} must be non-negative",
                             f"got {value}")
        return value

    def expect_number(self, clause: str) -> float:
        token = self.peek()
        if token.kind != NUMBER:
            raise token_error(self.text, token,
                              f"{clause} requires a number")
        self.advance()
        return float(token.text)

    # -- statement -----------------------------------------------------------

    def parse_statement(self) -> QueryPlan:
        explain = self.accept_keyword("EXPLAIN") is not None
        analyze = explain and self.accept_keyword("ANALYZE") is not None
        self.expect_keyword("SELECT", "SELECT")
        self.expect_keyword("TOP", "TOP <k>")
        k = self.expect_int("TOP")
        self.expect_keyword("FROM", "FROM <table>")
        table = self.expect_identifier("a table name")
        self.expect_keyword("ORDER", "ORDER BY <udf>")
        self.expect_keyword("BY", "BY after ORDER")
        udf = self.expect_identifier("a UDF name")
        self.accept_keyword("DESC")
        clauses = self.parse_clauses()
        if self.accept_op(";"):
            pass
        trailing = self.peek()
        if trailing.kind != END:
            raise token_error(
                self.text, trailing,
                "expected a clause keyword "
                f"({', '.join(_CLAUSE_KEYWORDS)}) or end of query"
            )
        return QueryPlan(
            k=k, table=table, udf=udf, explain=explain, analyze=analyze,
            **clauses
        )

    # -- optional clauses (order-insensitive) --------------------------------

    def parse_clauses(self) -> dict:
        seen: Dict[str, Token] = {}
        values: dict = {}
        while True:
            token = self.peek()
            if token.kind != WORD:
                break
            keyword = token.upper
            if keyword not in _CLAUSE_KEYWORDS:
                break
            if keyword in seen:
                raise span_error(
                    self.text, token.start, token.end,
                    f"duplicate {keyword} clause",
                    f"first appeared at column {seen[keyword].start + 1}",
                )
            seen[keyword] = token
            self.advance()
            handler = getattr(self, f"clause_{keyword.lower()}")
            handler(values)
        # Co-occurrence rules, reported at the dependent clause's span.
        for dependent, requirement in (("BACKEND", "WORKERS"),
                                       ("EVERY", "STREAM"),
                                       ("CONFIDENCE", "STREAM"),
                                       ("CONTINUOUS", "STREAM")):
            if dependent in seen and requirement not in seen:
                raise token_error(self.text, seen[dependent],
                                  f"{dependent} requires {requirement}")
        return values

    def clause_where(self, values: dict) -> None:
        values["where"] = self.parse_predicate()

    def clause_budget(self, values: dict) -> None:
        token = self.peek()
        amount = self.expect_number("BUDGET")
        if self.accept_op("%"):
            if not 0.0 < amount <= 100.0:
                raise span_error(
                    self.text, token.start, self.tokens[self.position - 1].end,
                    "BUDGET percentage must be in (0, 100]",
                    f"got {amount:g}%",
                )
            values["budget_fraction"] = amount / 100.0
        else:
            if amount <= 0 or amount != int(amount):
                raise span_error(
                    self.text, token.start, token.end,
                    "BUDGET must be a positive integer or a percentage",
                    f"got {token.text}",
                )
            values["budget"] = int(amount)

    def clause_batch(self, values: dict) -> None:
        values["batch_size"] = self.expect_int("BATCH")

    def clause_seed(self, values: dict) -> None:
        values["seed"] = self.expect_int("SEED", positive=False)

    def clause_workers(self, values: dict) -> None:
        values["workers"] = self.expect_int("WORKERS")

    def clause_backend(self, values: dict) -> None:
        from repro.parallel.backends import BACKENDS, unavailable_reason

        token = self.peek()
        name = self.expect_identifier("a backend name").lower()
        if name not in BACKENDS:
            raise span_error(
                self.text, token.start, token.end,
                f"unknown BACKEND {name!r}",
                f"registered: {', '.join(BACKENDS)}",
            )
        # Lazy per name: only `BACKEND process` probes (forks a child).
        reason = unavailable_reason(name)
        if reason is not None:
            raise span_error(
                self.text, token.start, token.end,
                f"BACKEND {name!r} is unavailable here", reason,
            )
        values["backend"] = name

    def clause_stream(self, values: dict) -> None:
        values["stream"] = True

    def clause_every(self, values: dict) -> None:
        values["every"] = self.expect_int("EVERY")

    def clause_continuous(self, values: dict) -> None:
        values["continuous"] = True

    def clause_confidence(self, values: dict) -> None:
        token = self.peek()
        level = self.expect_number("CONFIDENCE")
        if self.accept_op("%"):
            if not 0.0 < level < 100.0:
                raise span_error(
                    self.text, token.start, self.tokens[self.position - 1].end,
                    "CONFIDENCE percentage must be in (0, 100)",
                    f"got {level:g}%",
                )
            level /= 100.0
        elif not 0.0 < level < 1.0:
            raise span_error(
                self.text, token.start, token.end,
                "CONFIDENCE must lie strictly inside (0, 1) "
                "(or be a percentage like 95%)",
                f"got {level:g}",
            )
        values["confidence"] = level

    # -- WHERE predicate grammar ---------------------------------------------

    def parse_predicate(self) -> Predicate:
        return self.parse_or(0)

    def parse_or(self, depth: int) -> Predicate:
        operands = [self.parse_and(depth)]
        while self.accept_keyword("OR"):
            operands.append(self.parse_and(depth))
        if len(operands) == 1:
            return operands[0]
        return Or(tuple(operands))

    def parse_and(self, depth: int) -> Predicate:
        operands = [self.parse_unary(depth)]
        while self.accept_keyword("AND"):
            operands.append(self.parse_unary(depth))
        if len(operands) == 1:
            return operands[0]
        return And(tuple(operands))

    def parse_unary(self, depth: int) -> Predicate:
        if depth >= _MAX_PREDICATE_DEPTH:
            token = self.peek()
            raise span_error(
                self.text, token.start, token.end,
                "WHERE predicate is nested too deeply",
                f"maximum {_MAX_PREDICATE_DEPTH} levels of NOT/parentheses",
            )
        if self.accept_keyword("NOT"):
            return Not(self.parse_unary(depth + 1))
        if self.accept_op("("):
            inner = self.parse_or(depth + 1)
            self.expect_op(")", "')' closing the predicate group")
            return inner
        return self.parse_comparison()

    def parse_comparison(self) -> Predicate:
        token = self.peek()
        if not self.at_keyword("FEATURE"):
            raise token_error(
                self.text, token,
                "a WHERE comparison starts with feature[<i>]"
            )
        self.advance()
        self.expect_op("[", "'[' after feature")
        index = self.expect_int("feature index", positive=False)
        self.expect_op("]", "']' closing the feature index")
        op_token = self.peek()
        op = self.accept_op("<", "<=", ">", ">=", "=", "==", "!=")
        if op is None:
            raise token_error(
                self.text, op_token,
                "expected a comparison operator (<, <=, >, >=, =, !=)"
            )
        value = self.expect_number("a comparison")
        spelling = "=" if op.text == "==" else op.text
        return Comparison(feature=index, op=spelling, value=value)


def parse(text: str) -> QueryPlan:
    """Parse one dialect statement into a logical :class:`QueryPlan`.

    Raises :class:`~repro.errors.ConfigurationError` (and only that) on
    malformed input, with the offending column and a caret span.
    """
    if not isinstance(text, str):
        raise ConfigurationError(
            f"query must be a string, got {type(text).__name__}"
        )
    return _Parser(text).parse_statement()
