"""Recursive-descent parser for the GROM scenario language.

Grammar (sections may appear in any order; ``//``, ``#``, ``--`` start
comments)::

    source schema [name] {  S_Product(id int, name string, ...)
                            [key(id)] .  ...  }
    target schema [name] { ... }
    [source views { ... }]
    target views {
        v2: PopularProduct(pid, name) <-
              T_Product(pid, name, store), not T_Rating(rid, pid, 0).
    }
    mappings {
        m0: S_Product(pid, name, store, rating), rating < 2
              -> UnpopularProduct(pid, name).
    }
    constraints {
        e0: PopularProduct(id1, n), PopularProduct(id2, n) -> id1 = id2.
    }
    instance source {  S_Product(1, "iPhone", "BigStore", 5).  }

Conventions: identifiers in term position are *variables*; numbers,
quoted strings and ``true``/``false`` are constants.  ``not A(...)``
negates an atom; ``not ( ... )`` negates a conjunction.  A constraint
conclusion of ``false`` is a denial; ``|`` separates ded disjuncts (for
the standalone :func:`parse_dependency` helper — scenario constraints
must still be egds/denials).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.core.scenario import MappingScenario
from repro.datalog.program import ViewProgram
from repro.dsl.lexer import Token, TokenKind, tokenize
from repro.errors import ParseError
from repro.logic.atoms import (
    Atom,
    Comparison,
    Conjunction,
    Equality,
    NegatedConjunction,
)
from repro.logic.dependencies import Dependency, Disjunct
from repro.logic.terms import Constant, Term, Variable
from repro.relational.instance import Instance
from repro.relational.schema import Attribute, Relation, Schema
from repro.relational.types import DataType

__all__ = ["ParsedDocument", "parse_scenario", "parse_dependency", "parse_rule_body"]

_COMPARISON_OPS = {"=", "!=", "<", "<=", ">", ">="}


@dataclass
class ParsedDocument:
    """Everything a scenario file can declare."""

    scenario: MappingScenario
    source_instance: Optional[Instance] = None
    target_instance: Optional[Instance] = None


class _Parser:
    def __init__(self, tokens: List[Token]) -> None:
        self._tokens = tokens
        self._position = 0

    # -- token plumbing -------------------------------------------------------

    def _peek(self, offset: int = 0) -> Token:
        index = min(self._position + offset, len(self._tokens) - 1)
        return self._tokens[index]

    def _advance(self) -> Token:
        token = self._tokens[self._position]
        if token.kind != TokenKind.EOF:
            self._position += 1
        return token

    def _expect(self, kind: str, text: Optional[str] = None) -> Token:
        token = self._peek()
        if token.kind != kind or (text is not None and token.text != text):
            expected = text or kind
            raise ParseError(
                f"expected {expected}, found {token.text!r}",
                token.line,
                token.column,
            )
        return self._advance()

    def _accept(self, kind: str, text: Optional[str] = None) -> Optional[Token]:
        token = self._peek()
        if token.kind == kind and (text is None or token.text == text):
            return self._advance()
        return None

    def _accept_keyword(self, word: str) -> bool:
        return self._accept(TokenKind.IDENT, word) is not None

    def _error(self, message: str) -> ParseError:
        token = self._peek()
        return ParseError(message, token.line, token.column)

    # -- document --------------------------------------------------------------

    def parse_document(self) -> ParsedDocument:
        source_schema: Optional[Schema] = None
        target_schema: Optional[Schema] = None
        source_view_rules: List[Tuple[Atom, Conjunction, str]] = []
        target_view_rules: List[Tuple[Atom, Conjunction, str]] = []
        mappings: List[Dependency] = []
        constraints: List[Dependency] = []
        instances: dict = {}

        while self._peek().kind != TokenKind.EOF:
            token = self._peek()
            if token.kind != TokenKind.IDENT:
                raise self._error(f"unexpected token {token.text!r}")
            word = token.text
            if word in ("source", "target"):
                side = word
                self._advance()
                if self._accept_keyword("schema"):
                    schema = self._parse_schema_section(side)
                    if side == "source":
                        source_schema = schema
                    else:
                        target_schema = schema
                elif self._accept_keyword("views"):
                    rules = self._parse_views_section()
                    if side == "source":
                        source_view_rules.extend(rules)
                    else:
                        target_view_rules.extend(rules)
                else:
                    raise self._error(
                        f"expected 'schema' or 'views' after {side!r}"
                    )
            elif word == "mappings":
                self._advance()
                mappings.extend(self._parse_dependency_section())
            elif word == "constraints":
                self._advance()
                constraints.extend(self._parse_dependency_section())
            elif word == "instance":
                self._advance()
                side_token = self._expect(TokenKind.IDENT)
                if side_token.text not in ("source", "target"):
                    raise ParseError(
                        "instance must be 'source' or 'target'",
                        side_token.line,
                        side_token.column,
                    )
                instances[side_token.text] = self._parse_instance_section()
            else:
                raise self._error(f"unexpected section {word!r}")

        if source_schema is None:
            raise ParseError("missing 'source schema' section")
        if target_schema is None:
            raise ParseError("missing 'target schema' section")

        source_views = _build_program(source_schema, source_view_rules)
        target_views = _build_program(target_schema, target_view_rules)
        scenario = MappingScenario(
            source_schema=source_schema,
            target_schema=target_schema,
            mappings=mappings,
            target_views=target_views,
            source_views=source_views,
            target_constraints=constraints,
        )
        source_instance = _build_instance(source_schema, instances.get("source"))
        target_instance = _build_instance(target_schema, instances.get("target"))
        return ParsedDocument(scenario, source_instance, target_instance)

    # -- schema ------------------------------------------------------------------

    def _parse_schema_section(self, side: str) -> Schema:
        name_token = self._accept(TokenKind.IDENT)
        name = name_token.text if name_token else side
        schema = Schema(name)
        self._expect(TokenKind.LBRACE)
        while not self._accept(TokenKind.RBRACE):
            relation = self._parse_relation_decl()
            schema.add(relation)
        return schema

    def _parse_relation_decl(self) -> Relation:
        name = self._expect(TokenKind.IDENT).text
        self._expect(TokenKind.LPAREN)
        attributes: List[Attribute] = []
        while True:
            attr_name = self._expect(TokenKind.IDENT).text
            type_token = self._accept(TokenKind.IDENT)
            dtype = (
                DataType.from_name(type_token.text)
                if type_token
                else DataType.ANY
            )
            attributes.append(Attribute(attr_name, dtype))
            if not self._accept(TokenKind.COMMA):
                break
        self._expect(TokenKind.RPAREN)
        key: List[str] = []
        if self._accept_keyword("key"):
            self._expect(TokenKind.LPAREN)
            while True:
                key.append(self._expect(TokenKind.IDENT).text)
                if not self._accept(TokenKind.COMMA):
                    break
            self._expect(TokenKind.RPAREN)
        self._accept(TokenKind.DOT)
        return Relation(name, attributes, key=tuple(key))

    # -- views --------------------------------------------------------------------

    def _parse_views_section(self) -> List[Tuple[Atom, Conjunction, str]]:
        self._expect(TokenKind.LBRACE)
        rules: List[Tuple[Atom, Conjunction, str]] = []
        while not self._accept(TokenKind.RBRACE):
            label = ""
            if (
                self._peek().kind == TokenKind.IDENT
                and self._peek(1).kind == TokenKind.COLON
            ):
                label = self._advance().text
                self._advance()
            head = self._parse_atom()
            self._expect(TokenKind.DEFINES)
            body = self._parse_conjunction()
            self._expect(TokenKind.DOT)
            rules.append((head, body, label))
        return rules

    # -- dependencies ----------------------------------------------------------------

    def _parse_dependency_section(self) -> List[Dependency]:
        self._expect(TokenKind.LBRACE)
        dependencies: List[Dependency] = []
        while not self._accept(TokenKind.RBRACE):
            dependencies.append(self.parse_dependency())
        return dependencies

    def parse_dependency(self) -> Dependency:
        label = ""
        if (
            self._peek().kind == TokenKind.IDENT
            and self._peek(1).kind == TokenKind.COLON
        ):
            label = self._advance().text
            self._advance()
        premise = self._parse_conjunction()
        self._expect(TokenKind.ARROW)
        disjuncts = self._parse_conclusion()
        self._expect(TokenKind.DOT)
        return Dependency(premise, tuple(disjuncts), label)

    def _parse_conclusion(self) -> List[Disjunct]:
        if self._accept_keyword("false"):
            return []
        disjuncts = [self._parse_disjunct()]
        while self._accept(TokenKind.PIPE):
            disjuncts.append(self._parse_disjunct())
        return disjuncts

    def _parse_disjunct(self) -> Disjunct:
        atoms: List[Atom] = []
        equalities: List[Equality] = []
        comparisons: List[Comparison] = []
        while True:
            if self._peek().kind == TokenKind.IDENT and self._peek(1).kind == TokenKind.LPAREN:
                atoms.append(self._parse_atom())
            else:
                left = self._parse_term()
                op = self._parse_comparison_op()
                right = self._parse_term()
                if op == "=":
                    equalities.append(Equality(left, right))
                else:
                    comparisons.append(Comparison(op, left, right))
            if not self._accept(TokenKind.COMMA):
                break
        return Disjunct(
            atoms=tuple(atoms),
            equalities=tuple(equalities),
            comparisons=tuple(comparisons),
        )

    # -- formulas -------------------------------------------------------------------

    def _parse_conjunction(self) -> Conjunction:
        atoms: List[Atom] = []
        comparisons: List[Comparison] = []
        negations: List[NegatedConjunction] = []
        while True:
            if self._accept_keyword("not"):
                if self._accept(TokenKind.LPAREN):
                    inner = self._parse_conjunction()
                    self._expect(TokenKind.RPAREN)
                    negations.append(NegatedConjunction(inner))
                else:
                    atom = self._parse_atom()
                    negations.append(
                        NegatedConjunction(Conjunction(atoms=(atom,)))
                    )
            elif (
                self._peek().kind == TokenKind.IDENT
                and self._peek(1).kind == TokenKind.LPAREN
            ):
                atoms.append(self._parse_atom())
            else:
                left = self._parse_term()
                op = self._parse_comparison_op()
                right = self._parse_term()
                comparisons.append(Comparison(op, left, right))
            if not self._accept(TokenKind.COMMA):
                break
        return Conjunction(tuple(atoms), tuple(comparisons), tuple(negations))

    def _parse_comparison_op(self) -> str:
        token = self._peek()
        if token.kind == TokenKind.OP:
            return self._advance().text
        if token.kind == TokenKind.DEFINES and token.text == "<=":
            self._advance()
            return "<="
        raise self._error(f"expected a comparison operator, found {token.text!r}")

    def _parse_atom(self) -> Atom:
        name = self._expect(TokenKind.IDENT).text
        self._expect(TokenKind.LPAREN)
        terms: List[Term] = []
        if not self._accept(TokenKind.RPAREN):
            while True:
                terms.append(self._parse_term())
                if not self._accept(TokenKind.COMMA):
                    break
            self._expect(TokenKind.RPAREN)
        return Atom(name, tuple(terms))

    def _parse_term(self) -> Term:
        token = self._peek()
        if token.kind == TokenKind.INT:
            self._advance()
            return Constant(int(token.text))
        if token.kind == TokenKind.FLOAT:
            self._advance()
            return Constant(float(token.text))
        if token.kind == TokenKind.STRING:
            self._advance()
            raw = token.text[1:-1]
            return Constant(raw.replace('\\"', '"').replace("\\'", "'"))
        if token.kind == TokenKind.IDENT:
            self._advance()
            if token.text == "true":
                return Constant(True)
            if token.text == "false":
                return Constant(False)
            return Variable(token.text)
        raise self._error(f"expected a term, found {token.text!r}")

    # -- instances ---------------------------------------------------------------------

    def _parse_instance_section(self) -> List[Atom]:
        self._expect(TokenKind.LBRACE)
        facts: List[Atom] = []
        while not self._accept(TokenKind.RBRACE):
            start = self._peek()
            atom = self._parse_atom()
            self._accept(TokenKind.DOT)
            for term in atom.terms:
                if isinstance(term, Variable):
                    raise ParseError(
                        f"instance fact {atom} contains variable {term}; "
                        f"facts must be ground (quote strings)",
                        start.line,
                        start.column,
                    )
            facts.append(atom)
        return facts


def _build_program(
    schema: Schema, rules: Sequence[Tuple[Atom, Conjunction, str]]
) -> Optional[ViewProgram]:
    if not rules:
        return None
    program = ViewProgram(schema)
    for head, body, label in rules:
        program.define(head, body, name=label)
    return program


def _build_instance(
    schema: Schema, facts: Optional[Sequence[Atom]]
) -> Optional[Instance]:
    if facts is None:
        return None
    instance = Instance(schema)
    for fact in facts:
        instance.add(fact)
    return instance


def parse_scenario(text: str) -> ParsedDocument:
    """Parse a complete scenario document."""
    return _Parser(tokenize(text)).parse_document()


def parse_dependency(text: str) -> Dependency:
    """Parse a single dependency, e.g. ``"P(x), x < 3 -> Q(x) | R(x)."``."""
    parser = _Parser(tokenize(text))
    dependency = parser.parse_dependency()
    trailing = parser._peek()
    if trailing.kind != TokenKind.EOF:
        raise ParseError(
            f"unexpected trailing input {trailing.text!r}",
            trailing.line,
            trailing.column,
        )
    return dependency


def parse_rule_body(text: str) -> Conjunction:
    """Parse a conjunction, e.g. ``"A(x, y), not B(y), x != 3"``."""
    parser = _Parser(tokenize(text))
    conjunction = parser._parse_conjunction()
    trailing = parser._peek()
    if trailing.kind != TokenKind.EOF:
        raise ParseError(
            f"unexpected trailing input {trailing.text!r}",
            trailing.line,
            trailing.column,
        )
    return conjunction
