"""``Instance`` against a plain ``set[Atom]`` model.

``Instance`` stores value rows (raw constant values and nulls) and
builds ``Atom`` objects only on reads.  The state machine drives it and
a ``set`` of atoms through the same operations and checks, after every
step, that both hold the same facts — down to which of the equal values
``1``, ``1.0`` and ``True`` (or which hint of a null) was kept — and
that counts, membership, decoded facts, indexes and key counts agree.
The pinned cases below it fix the dedup representative, the error types
and messages, null hints across the columnar round trip, and one
fingerprint, all as the atom-object store had them.
"""

from __future__ import annotations

import pickle
from collections import defaultdict

import pytest
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.errors import ArityError, SchemaError, TypingError
from repro.logic.atoms import Atom
from repro.logic.terms import Constant, Null, Variable
from repro.relational.instance import Instance
from repro.relational.kernel import ColumnarInstance, TermPool
from repro.relational.schema import Attribute, Relation, Schema
from repro.relational.types import DataType
from repro.runtime.fingerprint import fingerprint_instance

ARITIES = {"R": 2, "S": 1}
#: Values chosen to collide: 0/0.0/False and 1/1.0/True are equal
#: constants, "1" is not.
VALUES = st.sampled_from([0, 1, 1.0, True, False, 0.0, "a", "1", ""])
NULLS = st.builds(Null, st.integers(1, 3), st.sampled_from(["", "h"]))
TERMS = st.one_of(VALUES.map(Constant), NULLS)


@st.composite
def facts(draw):
    relation = draw(st.sampled_from(sorted(ARITIES)))
    terms = draw(st.lists(TERMS, min_size=ARITIES[relation], max_size=ARITIES[relation]))
    return Atom(relation, terms)


def _strict(atoms) -> list:
    """Facts as their reprs: ``Constant(1)`` and ``Constant(True)`` differ
    here, as do a null's hints."""
    return sorted(map(repr, atoms))


def _grouped(atoms, relation, positions) -> dict:
    groups = defaultdict(set)
    for fact in atoms:
        if fact.relation == relation:
            groups[tuple(fact.terms[i] for i in positions)].add(fact)
    return dict(groups)


class InstanceModel(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.instance = Instance()
        self.model: set = set()
        self.indexed: set = set()

    @rule(fact=facts())
    def add(self, fact):
        assert self.instance.add(fact) == (fact not in self.model)
        self.model.add(fact)

    @rule(fact=facts(), raw=st.booleans())
    def add_row(self, fact, raw):
        values = [
            term.value if raw and isinstance(term, Constant) else term
            for term in fact.terms
        ]
        assert self.instance.add_row(fact.relation, *values) == (fact not in self.model)
        self.model.add(fact)

    @rule(batch=st.lists(facts(), max_size=6))
    def add_all(self, batch):
        new = set(self.model)
        new.update(batch)
        assert self.instance.add_all(batch) == len(new) - len(self.model)
        self.model = new

    @rule(relation=st.sampled_from(sorted(ARITIES)), batch=st.lists(facts(), max_size=6))
    def add_rows(self, relation, batch):
        batch = [fact for fact in batch if fact.relation == relation]
        rows = [
            tuple(t.value if isinstance(t, Constant) else t for t in fact.terms)
            for fact in batch
        ]
        new = set(self.model)
        new.update(batch)
        assert self.instance.add_rows(relation, rows) == len(new) - len(self.model)
        self.model = new

    @rule(fact=facts())
    def remove(self, fact):
        assert self.instance.remove(fact) == (fact in self.model)
        self.model.discard(fact)

    @rule(
        mapping=st.dictionaries(
            NULLS, st.one_of(VALUES.map(Constant), NULLS), max_size=2
        )
    )
    def apply_null_map(self, mapping):
        replaced = {}
        for fact in self.model:
            terms = tuple(
                mapping.get(t, t) if isinstance(t, Null) else t for t in fact.terms
            )
            if terms != fact.terms:
                replaced[fact] = Atom(fact.relation, terms)
        assert self.instance.apply_null_map(mapping) == len(replaced)
        self.model -= set(replaced)
        self.model.update(replaced.values())
        # When two rewritten facts collapse, which one is kept follows
        # the store's iteration order: check equality, then take the
        # store's representatives.
        assert set(self.instance) == self.model
        self.model = set(self.instance)

    @rule()
    def copy(self):
        clone = self.instance.copy()
        assert clone == self.instance
        self.instance = clone

    @rule(relations=st.sets(st.sampled_from(sorted(ARITIES))))
    def restricted_to(self, relations):
        self.instance = self.instance.restricted_to(relations)
        self.model = {fact for fact in self.model if fact.relation in relations}
        self.indexed = {key for key in self.indexed if key[0] in relations}

    @rule()
    def pickle_round_trip(self):
        self.instance = pickle.loads(pickle.dumps(self.instance))
        self.indexed.clear()

    @rule(relation=st.sampled_from(sorted(ARITIES)), data=st.data())
    def index(self, relation, data):
        positions = tuple(
            data.draw(st.lists(st.integers(0, ARITIES[relation] - 1), max_size=2))
        )
        self.indexed.add((relation, positions))

    @rule(fact=facts())
    def equality(self, fact):
        twin = Instance()
        twin.add_all(self.model)
        assert self.instance == twin
        twin.add(fact)
        assert (self.instance == twin) == (fact in self.model)

    @precondition(lambda self: self.model)
    @rule(data=st.data())
    def contains_present(self, data):
        fact = data.draw(st.sampled_from(sorted(self.model, key=repr)))
        assert fact in self.instance

    @invariant()
    def same_facts(self):
        assert _strict(self.instance) == _strict(self.model)
        assert len(self.instance) == len(self.model)
        for relation in ARITIES:
            expected = {fact for fact in self.model if fact.relation == relation}
            assert _strict(self.instance.facts(relation)) == _strict(expected)
            assert self.instance.size(relation) == len(expected)
        assert sorted(self.instance.relations()) == sorted(
            {fact.relation for fact in self.model}
        )
        assert self.instance.nulls() == {
            t for fact in self.model for t in fact.terms if isinstance(t, Null)
        }

    @invariant()
    def indexes_and_key_counts(self):
        for relation, positions in self.indexed:
            index = self.instance.index(relation, positions)
            expected = _grouped(self.model, relation, positions)
            assert {key: set(bucket) for key, bucket in index.items() if bucket} == expected
        for relation, arity in ARITIES.items():
            for positions in [(), (0,), tuple(range(arity))]:
                assert self.instance.key_count(relation, positions) == len(
                    _grouped(self.model, relation, positions)
                )


TestInstanceModel = InstanceModel.TestCase


# -- pinned cases -------------------------------------------------------------


@pytest.mark.parametrize(
    "values",
    [(1, 1.0, True), (True, 1, 1.0), (1.0, True, 1), (0, False, 0.0), (False, 0.0, 0)],
)
def test_equal_values_keep_the_first_row(values):
    instance, reference = Instance(), set()
    for value in values:
        instance.add_row("R", value, "x")
        reference.add(Atom("R", (Constant(value), Constant("x"))))
    # A set[Atom] keeps the first of equal facts; so do value rows.
    assert _strict(instance) == _strict(reference) == [
        repr(Atom("R", (Constant(values[0]), Constant("x"))))
    ]
    assert all(Atom("R", (Constant(v), Constant("x"))) in instance for v in values)


def _typed_schema() -> Schema:
    return Schema("s", [Relation("R", [Attribute("a", DataType.INT)])])


@pytest.mark.parametrize(
    "call,error,message",
    [
        (
            lambda i: i.add_row("R", None),
            TypeError,
            "constant values must be int/float/bool/str, got NoneType",
        ),
        (
            lambda i: i.add_row("R", Variable("x")),
            TypeError,
            "constant values must be int/float/bool/str, got Variable",
        ),
        (
            lambda i: i.add(Atom("R", (Variable("x"),))),
            SchemaError,
            "cannot insert non-ground atom R(x)",
        ),
    ],
)
def test_schemaless_errors(call, error, message):
    instance = Instance()
    with pytest.raises(error) as raised:
        call(instance)
    assert str(raised.value) == message
    assert len(instance) == 0


@pytest.mark.parametrize("via", ["add", "add_row"])
@pytest.mark.parametrize(
    "relation,values,error,message",
    [
        ("Other", (1,), SchemaError, "fact Other(1) does not belong to schema 's'"),
        ("R", (1, 2), ArityError, "relation 'R' has arity 1, got 2 terms"),
        (
            "R",
            ("x",),
            TypingError,
            "value 'x' does not conform to type int in R.a",
        ),
        ("R", (True,), TypingError, "value True does not conform to type int in R.a"),
    ],
)
def test_schema_errors(via, relation, values, error, message):
    instance = Instance(_typed_schema())
    with pytest.raises(error) as raised:
        if via == "add":
            instance.add(Atom(relation, tuple(map(Constant, values))))
        else:
            instance.add_row(relation, *values)
    assert str(raised.value) == message
    assert len(instance) == 0


def test_schema_validates_the_decoded_result():
    store = ColumnarInstance(pool=TermPool())
    store.add_row("R", "x")
    with pytest.raises(TypingError) as raised:
        store.to_instance(_typed_schema())
    assert str(raised.value) == "value 'x' does not conform to type int in R.a"


def test_nulls_are_members_of_every_type():
    instance = Instance(_typed_schema())
    assert instance.add_row("R", Null(4, "n"))


def test_null_hints_survive_round_trips():
    source = Instance()
    source.add_row("R", Null(5, "who"), 1)
    source.add_row("R", Null(6), Null(5))
    source.add_row("S", Null(7, "what"))
    for _ in range(2):
        store = ColumnarInstance(pool=TermPool())
        store.add_all(source)
        decoded = store.to_instance()
        assert decoded == source
        assert {repr(n) for n in decoded.nulls()} == {
            "Null(5, 'who')",
            "Null(6)",
            "Null(7, 'what')",
        }
        source = decoded


def test_fingerprint_is_pinned():
    instance = Instance()
    instance.add_row("R", 1, "a", 2.5)
    instance.add_row("R", True, 'q"uote', -0.0)
    instance.add_row("R", 1.0, "a", 2.5)  # collapses onto the first row
    instance.add_row("S", "ünï", Null(7), False)
    instance.add_row("S", "x", Null(8, "name"), 3)
    instance.add_row("T")
    # The digest the atom-object store produced for this instance:
    # fingerprints are cache keys, so they must not move.
    assert (
        fingerprint_instance(instance)
        == "33db706accd320dd5759f9f03f4e575298b69f916a1e622a92cea506f2b7e11b"
    )
