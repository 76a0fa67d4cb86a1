"""Tests for the scenario DSL: lexer, parser, serializer, round-trips."""

import pytest

from repro.dsl.lexer import TokenKind, tokenize
from repro.dsl.parser import parse_dependency, parse_rule_body, parse_scenario
from repro.dsl.serializer import (
    serialize_dependency,
    serialize_instance,
    serialize_scenario,
)
from repro.errors import ParseError
from repro.logic.atoms import Comparison
from repro.logic.dependencies import DependencyKind
from repro.logic.terms import Constant, Variable


class TestLexer:
    def test_token_kinds(self):
        tokens = tokenize('R(x, 1, "a") -> y != 2.5 .')
        kinds = [t.kind for t in tokens]
        assert kinds == [
            TokenKind.IDENT,
            TokenKind.LPAREN,
            TokenKind.IDENT,
            TokenKind.COMMA,
            TokenKind.INT,
            TokenKind.COMMA,
            TokenKind.STRING,
            TokenKind.RPAREN,
            TokenKind.ARROW,
            TokenKind.IDENT,
            TokenKind.OP,
            TokenKind.FLOAT,
            TokenKind.DOT,
            TokenKind.EOF,
        ]

    def test_comments_ignored(self):
        tokens = tokenize("// comment\nR(x) # another\n-- third\n")
        assert [t.kind for t in tokens][:2] == [TokenKind.IDENT, TokenKind.LPAREN]

    def test_line_numbers(self):
        tokens = tokenize("a\nb")
        assert tokens[0].line == 1 and tokens[1].line == 2

    def test_unexpected_character(self):
        with pytest.raises(ParseError) as excinfo:
            tokenize("R(x) @ y")
        assert "line 1" in str(excinfo.value)

    def test_negative_numbers(self):
        tokens = tokenize("-3 -2.5")
        assert tokens[0].kind == TokenKind.INT and tokens[0].text == "-3"
        assert tokens[1].kind == TokenKind.FLOAT

    def test_defines_vs_le(self):
        tokens = tokenize("<- <=")
        assert tokens[0].kind == TokenKind.DEFINES
        assert tokens[1].kind == TokenKind.DEFINES  # disambiguated by parser


class TestDependencyParsing:
    def test_tgd(self):
        dependency = parse_dependency("m: S(x, y), x < 2 -> T(x).")
        assert dependency.name == "m"
        assert dependency.kind is DependencyKind.TGD
        assert dependency.premise.comparisons[0].op == "<"

    def test_egd(self):
        dependency = parse_dependency("e: V(x, n), V(y, n) -> x = y.")
        assert dependency.kind is DependencyKind.EGD

    def test_denial(self):
        dependency = parse_dependency("d: T(x, x) -> false.")
        assert dependency.kind is DependencyKind.DENIAL

    def test_ded_with_pipes(self):
        dependency = parse_dependency(
            "d0: T(x, n), T(y, n) -> x = y | R(z, x) | R(z, y)."
        )
        assert dependency.kind is DependencyKind.DED
        assert len(dependency.disjuncts) == 3

    def test_le_comparison_in_premise(self):
        dependency = parse_dependency("m: S(x), x <= 3 -> T(x).")
        assert dependency.premise.comparisons[0] == Comparison(
            "<=", Variable("x"), Constant(3)
        )

    def test_string_and_bool_constants(self):
        dependency = parse_dependency('m: S(x, "hi", true) -> T(x).')
        terms = dependency.premise.atoms[0].terms
        assert terms[1] == Constant("hi")
        assert terms[2] == Constant(True)

    def test_trailing_garbage_rejected(self):
        with pytest.raises(ParseError):
            parse_dependency("m: S(x) -> T(x). extra")


class TestRuleBodyParsing:
    def test_negated_atom(self):
        body = parse_rule_body("A(x), not B(x)")
        assert len(body.negations) == 1
        assert body.negations[0].inner.atoms[0].relation == "B"

    def test_negated_conjunction(self):
        body = parse_rule_body("A(x), not (B(x, y), C(y))")
        assert len(body.negations[0].inner.atoms) == 2

    def test_nested_negation(self):
        body = parse_rule_body("A(x), not (B(x), not C(x))")
        inner = body.negations[0].inner
        assert inner.negations[0].inner.atoms[0].relation == "C"


class TestScenarioDocuments:
    DOC = """
    source schema src {
        S(a int, b string).
    }
    target schema tgt {
        T(a int, b string) key(a).
        U(a int).
    }
    target views {
        v: V(x) <- T(x, y), not U(x).
    }
    mappings {
        m: S(x, y) -> V(x).
    }
    constraints {
        e: V(x), V(y) -> x = y.
    }
    instance source {
        S(1, "one").
        S(2, "two").
    }
    """

    def test_full_document(self):
        document = parse_scenario(self.DOC)
        scenario = document.scenario
        assert scenario.source_schema.arity("S") == 2
        assert scenario.target_schema.relation("T").key == ("a",)
        assert scenario.target_views is not None
        assert scenario.target_views.view_names() == ["V"]
        assert [m.name for m in scenario.mappings] == ["m"]
        assert [c.name for c in scenario.target_constraints] == ["e"]
        assert document.source_instance is not None
        assert len(document.source_instance) == 2
        assert document.target_instance is None

    def test_missing_schema_rejected(self):
        with pytest.raises(ParseError):
            parse_scenario("mappings { }")

    def test_non_ground_fact_rejected(self):
        bad = self.DOC.replace('S(1, "one").', "S(1, oops).")
        with pytest.raises(ParseError) as excinfo:
            parse_scenario(bad)
        # Located at the fact's first token, like every token-level error.
        lines = bad.splitlines()
        line = next(n for n, text in enumerate(lines, 1) if "oops" in text)
        assert excinfo.value.line == line
        assert excinfo.value.column == lines[line - 1].index("S(1, oops)") + 1
        assert f"at line {line}, column" in str(excinfo.value)

    def test_bad_instance_side_rejected(self):
        with pytest.raises(ParseError):
            parse_scenario(
                "source schema s { S(a). } target schema t { T(a). } "
                "instance middle { }"
            )

    def test_parse_errors_carry_location(self):
        with pytest.raises(ParseError) as excinfo:
            parse_scenario("source schema s {\n  S(a int,\n}")
        assert excinfo.value.line >= 2


class TestRoundTrips:
    @pytest.mark.parametrize(
        "factory",
        [
            lambda: __import__(
                "repro.scenarios", fromlist=["build_scenario"]
            ).build_scenario(),
            lambda: __import__(
                "repro.scenarios", fromlist=["cleanup_scenario"]
            ).cleanup_scenario(),
            lambda: __import__(
                "repro.scenarios", fromlist=["evolution_scenario"]
            ).evolution_scenario(with_soft_delete=True),
            lambda: __import__(
                "repro.scenarios", fromlist=["partition_scenario"]
            ).partition_scenario(3, default_key=True),
            lambda: __import__(
                "repro.scenarios", fromlist=["flagged_scenario"]
            ).flagged_scenario(2),
        ],
        ids=["running", "cleanup", "evolution", "partition", "flagged"],
    )
    def test_serialize_parse_serialize_stable(self, factory):
        scenario = factory()
        text = serialize_scenario(scenario)
        document = parse_scenario(text)
        again = serialize_scenario(document.scenario)
        assert text == again

    def test_round_trip_preserves_rewriting(self):
        from repro.core.rewriter import rewrite
        from repro.logic.pretty import render_dependencies
        from repro.scenarios import build_scenario

        original = rewrite(build_scenario())
        document = parse_scenario(serialize_scenario(build_scenario()))
        reparsed = rewrite(document.scenario)
        assert render_dependencies(original.dependencies) == render_dependencies(
            reparsed.dependencies
        )

    def test_instance_round_trip(self):
        from repro.scenarios import build_scenario, generate_source_instance

        scenario = build_scenario()
        source = generate_source_instance(products=6, seed=2)
        text = serialize_scenario(scenario, source_instance=source)
        document = parse_scenario(text)
        assert document.source_instance == source

    def test_dependency_round_trip(self):
        text = "d0: T(x, n), T(y, n) -> x = y | R(z, x, 0) | R(z, y, 0)."
        dependency = parse_dependency(text)
        assert serialize_dependency(dependency) == text

    def test_serialize_null_rejected(self):
        from repro.logic.atoms import Atom
        from repro.logic.terms import Null
        from repro.relational.instance import Instance

        instance = Instance()
        instance.add(Atom("T", (Null(1),)))
        with pytest.raises(ValueError):
            serialize_instance(instance, "target")
