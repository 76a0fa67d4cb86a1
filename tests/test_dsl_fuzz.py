"""Mutation fuzzing of the DSL parser on the shipped example.

Hypothesis edits ``examples/running_example.grom`` — deletes a span,
inserts or substitutes a DSL token, drops, duplicates or swaps lines —
and parses the result.  Two properties must hold for every mutant:

* parsing succeeds or raises a :class:`~repro.errors.GromError` (never
  a bare ``KeyError``/``TypeError``/...);
* every :class:`~repro.errors.ParseError` carries a source location
  (``line >= 1``), except the two document-level "missing ... section"
  errors, which have no token to point at.

``make fuzz`` runs it under the deep profile.
"""

from __future__ import annotations

from pathlib import Path

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.dsl.parser import parse_scenario
from repro.errors import GromError, ParseError

EXAMPLE = (
    Path(__file__).resolve().parent.parent / "examples" / "running_example.grom"
).read_text(encoding="utf-8")

#: Document-level errors: raised after the last token, with nothing to
#: locate.
UNLOCATED = ("missing 'source schema' section", "missing 'target schema' section")

#: Fragments the lexer knows, plus a few it does not.
TOKENS = [
    "(", ")", "{", "}", ",", ".", ":", "->", "<-", "|", "=", "!=", "<", ">=",
    "not", "key", "source", "target", "schema", "views", "mappings",
    "constraints", "instance", "int", "string", "x", "S_Product", "v1",
    "1", "-2", "2.5", '"s"', '"', "//", "\n", " ", "@", "$",
]


@st.composite
def mutants(draw) -> str:
    text = EXAMPLE
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(
            st.sampled_from(["delete", "insert", "replace", "drop", "dup", "swap"])
        )
        if kind in ("delete", "insert", "replace"):
            at = draw(st.integers(0, len(text)))
            # An insert cuts nothing; a delete or replace cuts a span.
            end = at if kind == "insert" else at + draw(st.integers(1, 12))
            token = "" if kind == "delete" else draw(st.sampled_from(TOKENS))
            text = text[:at] + token + text[end:]
        else:
            lines = text.split("\n")
            i = draw(st.integers(0, len(lines) - 1))
            j = draw(st.integers(0, len(lines) - 1))
            if kind == "drop":
                del lines[i]
            elif kind == "dup":
                lines.insert(i, lines[j])
            else:
                lines[i], lines[j] = lines[j], lines[i]
            text = "\n".join(lines)
    return text


def _check(text: str) -> None:
    try:
        parse_scenario(text)
    except ParseError as error:
        if not str(error).startswith(UNLOCATED):
            assert error.line >= 1, f"unlocated parse error: {error}"
    except GromError:
        pass


@settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(mutants())
@example(EXAMPLE.replace('S_Product(0, "product_0"', "S_Product(0, product_0", 1))
@example(EXAMPLE.replace("source schema source", "source schema"))
@example(EXAMPLE.replace("target schema target {", "views {", 1))
def test_mutants_fail_cleanly_and_located(text):
    _check(text)


def test_the_example_parses():
    document = parse_scenario(EXAMPLE)
    assert document.source_instance is not None
