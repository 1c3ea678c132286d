"""Unit tests for the repro.query parser: spans, clauses, WHERE, EXPLAIN."""

from __future__ import annotations

import doctest

import numpy as np
import pytest

import repro.query.parser
from repro.errors import ConfigurationError
from repro.query import (
    And,
    Comparison,
    KEYWORDS,
    Not,
    Or,
    QueryPlan,
    parse,
    tokenize,
)


def test_parser_doctests():
    """The normative grammar examples in the parser module all run."""
    results = doctest.testmod(repro.query.parser, verbose=False)
    assert results.attempted > 0
    assert results.failed == 0


class TestTokenizer:
    def test_spans_cover_source(self):
        text = "SELECT TOP 5 FROM t ORDER BY f"
        tokens = tokenize(text)
        assert tokens[-1].kind == "end"
        for token in tokens[:-1]:
            assert text[token.start:token.end] == token.text

    def test_operators_tokenized_longest_first(self):
        kinds = [t.text for t in tokenize("<= >= != < > = ==")[:-1]]
        assert kinds == ["<=", ">=", "!=", "<", ">", "=", "=="]

    def test_unrecognized_character(self):
        with pytest.raises(ConfigurationError, match="unrecognized"):
            tokenize("SELECT @ FROM t")


class TestStatementHead:
    def test_minimal(self):
        plan = parse("SELECT TOP 10 FROM t ORDER BY f")
        assert (plan.k, plan.table, plan.udf) == (10, "t", "f")
        assert plan.where is None and not plan.explain

    def test_case_insensitive_keywords(self):
        assert parse("select top 3 from T order by F") == \
            parse("SELECT TOP 3 FROM T ORDER BY F")

    def test_trailing_semicolon(self):
        assert parse("SELECT TOP 3 FROM t ORDER BY f;").k == 3

    def test_reserved_keyword_as_table_rejected(self):
        with pytest.raises(ConfigurationError, match="reserved keyword"):
            parse("SELECT TOP 3 FROM WHERE ORDER BY f")

    def test_star_select_rejected_with_column(self):
        with pytest.raises(ConfigurationError, match="column 8"):
            parse("SELECT * FROM t")

    def test_garbage_after_statement_rejected(self):
        with pytest.raises(ConfigurationError, match="expected a clause"):
            parse("SELECT TOP 3 FROM t ORDER BY f frobnicate")

    def test_error_carries_caret_line(self):
        with pytest.raises(ConfigurationError) as excinfo:
            parse("SELECT TOP 5 FROM t ORDER BY f EVERY 100")
        message = str(excinfo.value)
        assert "at column 32" in message
        lines = message.splitlines()
        assert lines[-1].strip() == "^" * len("EVERY")
        # The caret sits under the offending token on the echoed line
        # (both lines share the same four-space indent).
        assert lines[-2][lines[-1].index("^")] == "E"


class TestClauseOrderInsensitivity:
    CANONICAL = ("SELECT TOP 9 FROM t ORDER BY f BUDGET 10% BATCH 4 "
                 "SEED 3 WORKERS 2 BACKEND serial STREAM EVERY 50 "
                 "CONFIDENCE 0.9")

    def test_full_statement(self):
        plan = parse(self.CANONICAL)
        assert plan == QueryPlan(
            k=9, table="t", udf="f", budget_fraction=0.1, batch_size=4,
            seed=3, workers=2, backend="serial", stream=True, every=50,
            confidence=0.9,
        )

    def test_scrambled_orders_parse_identically(self):
        scrambled = [
            "SELECT TOP 9 FROM t ORDER BY f STREAM CONFIDENCE 0.9 "
            "EVERY 50 BACKEND serial WORKERS 2 SEED 3 BATCH 4 BUDGET 10%",
            "SELECT TOP 9 FROM t ORDER BY f WORKERS 2 STREAM BUDGET 10% "
            "CONFIDENCE 0.9 BATCH 4 BACKEND serial SEED 3 EVERY 50",
        ]
        reference = parse(self.CANONICAL)
        for text in scrambled:
            assert parse(text) == reference

    def test_duplicate_clause_rejected(self):
        with pytest.raises(ConfigurationError, match="duplicate SEED"):
            parse("SELECT TOP 3 FROM t ORDER BY f SEED 1 BATCH 2 SEED 5")

    def test_backend_requires_workers_any_order(self):
        with pytest.raises(ConfigurationError,
                           match="BACKEND requires WORKERS"):
            parse("SELECT TOP 3 FROM t ORDER BY f BACKEND serial SEED 1")

    def test_confidence_requires_stream_any_order(self):
        with pytest.raises(ConfigurationError,
                           match="CONFIDENCE requires STREAM"):
            parse("SELECT TOP 3 FROM t ORDER BY f CONFIDENCE 0.9 SEED 1")


class TestClauseValidation:
    @pytest.mark.parametrize("bad, pattern", [
        ("BUDGET 0", "BUDGET"),
        ("BUDGET 200%", "BUDGET percentage"),
        ("BUDGET 1.5", "BUDGET"),
        ("BATCH 0", "BATCH"),
        ("BATCH 2.5", "BATCH"),
        ("WORKERS 0", "WORKERS"),
        ("STREAM EVERY 0", "EVERY"),
        ("STREAM CONFIDENCE 0", "CONFIDENCE"),
        ("STREAM CONFIDENCE 1", "CONFIDENCE"),
        ("STREAM CONFIDENCE 100%", "CONFIDENCE percentage"),
    ])
    def test_rejected_with_message(self, bad, pattern):
        with pytest.raises(ConfigurationError, match=pattern):
            parse(f"SELECT TOP 3 FROM t ORDER BY f {bad}")

    def test_seed_zero_allowed(self):
        assert parse("SELECT TOP 3 FROM t ORDER BY f SEED 0").seed == 0

    def test_confidence_percent(self):
        plan = parse("SELECT TOP 3 FROM t ORDER BY f STREAM CONFIDENCE 95%")
        assert plan.confidence == pytest.approx(0.95)


class TestWherePredicate:
    def test_single_comparison(self):
        plan = parse("SELECT TOP 3 FROM t ORDER BY f WHERE feature[2] >= 1.5")
        assert plan.where == Comparison(feature=2, op=">=", value=1.5)

    def test_double_equals_normalized(self):
        plan = parse("SELECT TOP 3 FROM t ORDER BY f WHERE feature[0] == 1")
        assert plan.where == Comparison(feature=0, op="=", value=1.0)

    def test_precedence_not_and_or(self):
        plan = parse("SELECT TOP 3 FROM t ORDER BY f WHERE "
                     "NOT feature[0] < 1 AND feature[1] > 2 "
                     "OR feature[2] = 3")
        assert isinstance(plan.where, Or)
        left, right = plan.where.operands
        assert isinstance(left, And)
        assert isinstance(left.operands[0], Not)
        assert right == Comparison(feature=2, op="=", value=3.0)

    def test_parentheses_override_precedence(self):
        plan = parse("SELECT TOP 3 FROM t ORDER BY f WHERE "
                     "feature[0] < 1 AND (feature[1] > 2 OR feature[2] = 3)")
        assert isinstance(plan.where, And)
        assert isinstance(plan.where.operands[1], Or)

    def test_canonical_round_trip_keeps_parens(self):
        text = ("SELECT TOP 3 FROM t ORDER BY f WHERE "
                "feature[0] < 1 AND (feature[1] > 2 OR NOT feature[2] = 3)")
        plan = parse(text)
        assert parse(plan.canonical_text()) == plan
        assert plan.where.canonical() == \
            "feature[0] < 1 AND (feature[1] > 2 OR NOT feature[2] = 3)"

    def test_mask_evaluation(self):
        plan = parse("SELECT TOP 3 FROM t ORDER BY f WHERE "
                     "feature[0] > 0.5 AND NOT feature[1] <= 1")
        features = np.array([[0.6, 2.0], [0.6, 0.5], [0.2, 2.0]])
        assert plan.where.mask(features).tolist() == [True, False, False]

    def test_mask_feature_out_of_range(self):
        plan = parse("SELECT TOP 3 FROM t ORDER BY f WHERE feature[7] > 0")
        with pytest.raises(ConfigurationError, match="feature\\[7\\]"):
            plan.where.mask(np.zeros((4, 2)))

    def test_1d_features_treated_as_single_column(self):
        plan = parse("SELECT TOP 3 FROM t ORDER BY f WHERE feature[0] > 1")
        assert plan.where.mask(np.array([0.5, 2.0])).tolist() == [False, True]

    def test_negative_comparison_values(self):
        plan = parse("SELECT TOP 3 FROM t ORDER BY f WHERE feature[0] > -0.5")
        assert plan.where == Comparison(feature=0, op=">", value=-0.5)
        assert parse(plan.canonical_text()) == plan

    def test_tiny_values_round_trip_without_scientific_notation(self):
        plan = parse("SELECT TOP 3 FROM t ORDER BY f "
                     "WHERE feature[0] > 0.0000001")
        text = plan.canonical_text()
        assert text.endswith("feature[0] > 0.0000001")  # positional, no 1e-07
        assert parse(text) == plan

    def test_deep_nesting_raises_configuration_error(self):
        for deep in ("(" * 2000 + "feature[0] > 1" + ")" * 2000,
                     "NOT " * 5000 + "feature[0] > 1"):
            with pytest.raises(ConfigurationError, match="nested too deep"):
                parse(f"SELECT TOP 1 FROM t ORDER BY f WHERE {deep}")

    def test_percentage_budget_canonical_has_no_float_noise(self):
        for percent in ("7", "14", "28", "0.5"):
            plan = parse(f"SELECT TOP 3 FROM t ORDER BY f BUDGET {percent}%")
            assert plan.canonical_text().endswith(f"BUDGET {percent}%")
            assert parse(plan.canonical_text()) == plan

    def test_unrepresentable_fraction_renders_closest_percent(self):
        # 1/3 has no exact percent literal (no float p with p/100 == 1/3);
        # the canonical text is the closest representable percentage and
        # still parses cleanly.
        plan = QueryPlan(k=3, table="t", udf="f", budget_fraction=1 / 3)
        reparsed = parse(plan.canonical_text())
        assert reparsed.budget_fraction == pytest.approx(1 / 3)

    def test_non_finite_comparison_values_rejected(self):
        for bad in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ConfigurationError, match="finite"):
                Comparison(feature=0, op="<", value=bad)

    def test_negative_counts_rejected_cleanly(self):
        with pytest.raises(ConfigurationError, match="TOP must be positive"):
            parse("SELECT TOP -5 FROM t ORDER BY f")
        with pytest.raises(ConfigurationError, match="SEED must be "):
            parse("SELECT TOP 3 FROM t ORDER BY f SEED -1")
        with pytest.raises(ConfigurationError, match="feature index"):
            parse("SELECT TOP 3 FROM t ORDER BY f WHERE feature[-1] > 0")

    @pytest.mark.parametrize("bad", [
        "WHERE",                              # empty predicate
        "WHERE feature > 1",                  # missing index
        "WHERE feature[1 > 1",                # unclosed bracket
        "WHERE feature[0] >",                 # missing rhs
        "WHERE feature[0] ~ 1",               # unknown operator
        "WHERE (feature[0] > 1",              # unclosed paren
        "WHERE feature[0] > 1 AND",           # dangling AND
        "WHERE 1 > feature[0]",               # literal on the left
    ])
    def test_malformed_predicates_rejected(self, bad):
        with pytest.raises(ConfigurationError):
            parse(f"SELECT TOP 3 FROM t ORDER BY f {bad}")


class TestWithDefaults:
    """Caller-side defaults fold into the plan exactly like clauses."""

    BASE = "SELECT TOP 3 FROM t ORDER BY f BUDGET 40 SEED 1"

    @pytest.mark.parametrize("clauses, defaults, expected", [
        # absent clauses take the defaults
        ("", dict(workers=3, backend="thread"),
         " WORKERS 3 BACKEND thread"),
        # an explicit clause wins over its default
        (" WORKERS 2", dict(workers=4, backend="thread"),
         " WORKERS 2 BACKEND thread"),
        (" WORKERS 2 BACKEND serial STREAM EVERY 5",
         dict(backend="thread", every=50), " WORKERS 2 BACKEND serial "
         "STREAM EVERY 5"),
        (" STREAM CONFIDENCE 0.9", dict(confidence=0.5),
         " STREAM CONFIDENCE 0.9"),
        # every= / confidence= imply STREAM, like the CLI flags
        ("", dict(every=10), " STREAM EVERY 10"),
        ("", dict(confidence=0.95), " STREAM CONFIDENCE 0.95"),
        ("", dict(stream=True), " STREAM"),
        # a lone backend default stays expressible: BACKEND needs WORKERS
        ("", dict(backend="thread", stream=True),
         " WORKERS 1 BACKEND thread STREAM"),
        # no defaults: the identity
        (" WORKERS 2", dict(), " WORKERS 2"),
        ("", dict(stream=False), ""),
    ])
    def test_folds_to_the_equivalent_statement(self, clauses, defaults,
                                               expected):
        plan = parse(self.BASE + clauses).with_defaults(**defaults)
        assert plan == parse(self.BASE + expected)
        assert parse(plan.canonical_text()) == plan

    @pytest.mark.parametrize("defaults, pattern", [
        (dict(backend="bogus"), "unknown backend"),
        (dict(workers=0), "workers must be positive"),
        (dict(workers=-2), "workers must be positive"),
        (dict(workers="3"), "workers must be an int"),
        (dict(every=0), "every must be positive"),
        (dict(confidence=1.5), "confidence must lie strictly inside"),
        (dict(confidence=0.0), "confidence must lie strictly inside"),
    ])
    def test_bad_default_raises_the_clause_error(self, defaults, pattern):
        with pytest.raises(ConfigurationError, match=pattern):
            parse(self.BASE).with_defaults(**defaults)
        # ... the same check a hand-built plan goes through.
        with pytest.raises(ConfigurationError, match=pattern):
            QueryPlan(k=3, table="t", udf="f", **defaults)


class TestExplain:
    def test_explain_flag(self):
        plan = parse("EXPLAIN SELECT TOP 3 FROM t ORDER BY f")
        assert plan.explain
        assert parse(plan.canonical_text()) == plan

    def test_explain_must_lead(self):
        with pytest.raises(ConfigurationError):
            parse("SELECT TOP 3 FROM t ORDER BY f EXPLAIN")


class TestKeywordTable:
    def test_every_clause_keyword_is_reserved(self):
        for keyword in ("SELECT", "TOP", "FROM", "ORDER", "BY", "DESC",
                        "WHERE", "BUDGET", "BATCH", "SEED", "WORKERS",
                        "BACKEND", "STREAM", "EVERY", "CONFIDENCE",
                        "EXPLAIN", "AND", "OR", "NOT", "FEATURE"):
            assert keyword in KEYWORDS

    def test_descriptions_are_nonempty(self):
        assert all(KEYWORDS.values())
