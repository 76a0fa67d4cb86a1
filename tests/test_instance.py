"""Unit tests for instances: facts, null rewriting, copies."""

import pickle

import pytest

from repro.errors import SchemaError
from repro.logic.atoms import Atom
from repro.logic.terms import Constant, Null
from repro.relational.instance import Instance
from repro.relational.kernel import ColumnarInstance
from repro.relational.schema import Schema

from kernel_oracle import apply_null_map


def fact(relation, *values):
    terms = tuple(
        v if isinstance(v, Null) else Constant(v) for v in values
    )
    return Atom(relation, terms)


class TestBasics:
    def test_add_dedupes(self):
        instance = Instance()
        assert instance.add(fact("R", 1))
        assert not instance.add(fact("R", 1))
        assert len(instance) == 1

    def test_add_row_convenience(self):
        instance = Instance()
        instance.add_row("R", 1, "a", Null(3))
        assert fact("R", 1, "a", Null(3)) in instance

    def test_non_ground_rejected(self):
        from repro.logic.terms import Variable

        with pytest.raises(SchemaError):
            Instance().add(Atom("R", (Variable("x"),)))

    def test_schema_validation(self):
        schema = Schema("s")
        schema.add_relation("R", [("a", "int")])
        instance = Instance(schema)
        instance.add(fact("R", 1))
        with pytest.raises(SchemaError):
            instance.add(fact("Unknown", 1))
        from repro.errors import TypingError

        with pytest.raises(TypingError):
            instance.add(fact("R", "not-an-int"))

    def test_remove(self):
        instance = Instance()
        instance.add(fact("R", 1))
        assert instance.remove(fact("R", 1))
        assert not instance.remove(fact("R", 1))
        assert len(instance) == 0

    def test_sizes_and_relations(self):
        instance = Instance()
        instance.add(fact("R", 1))
        instance.add(fact("R", 2))
        instance.add(fact("S", 1))
        assert instance.size() == 3
        assert instance.size("R") == 2
        assert sorted(instance.relations()) == ["R", "S"]

    def test_equality_ignores_empty_buckets(self):
        left = Instance()
        left.add(fact("R", 1))
        left.add(fact("S", 1))
        left.remove(fact("S", 1))
        right = Instance()
        right.add(fact("R", 1))
        assert left == right


def _kernel_null_map(store, mapping):
    """The chase's null rewrite: ``apply_null_map_encoded`` on codes."""
    return store.apply_null_map_encoded(
        {store.encode_term(n): store.encode_term(t) for n, t in mapping.items()}
    )


#: The two null rewrites left: the kernel's, which the chase and the
#: disjunctive chase run, and the set-based oracle's.
NULL_MAPS = [
    pytest.param((ColumnarInstance, _kernel_null_map), id="kernel"),
    pytest.param((Instance, apply_null_map), id="oracle"),
]


class TestNullHandling:
    def test_nulls_collected(self):
        instance = Instance()
        instance.add(fact("R", Null(1), 2))
        instance.add(fact("S", Null(2)))
        assert instance.nulls() == {Null(1), Null(2)}
        assert not instance.is_ground_complete()

    @pytest.fixture(params=NULL_MAPS)
    def store_and_rewrite(self, request):
        return request.param

    def test_apply_null_map_rewrites(self, store_and_rewrite):
        make, rewrite = store_and_rewrite
        instance = make()
        instance.add(fact("R", Null(1), "x"))
        rewritten = rewrite(instance, {Null(1): Constant(7)})
        assert rewritten == 1
        assert fact("R", 7, "x") in instance
        assert fact("R", Null(1), "x") not in instance

    def test_apply_null_map_collapses_duplicates(self, store_and_rewrite):
        make, rewrite = store_and_rewrite
        instance = make()
        instance.add(fact("R", Null(1)))
        instance.add(fact("R", 7))
        rewrite(instance, {Null(1): Constant(7)})
        assert len(instance) == 1

    def test_apply_null_map_counts_collapsed_facts(self, store_and_rewrite):
        make, rewrite = store_and_rewrite
        instance = make()
        instance.add(fact("R", Null(1)))
        instance.add(fact("R", Null(2)))
        assert rewrite(instance, {Null(1): Constant(7), Null(2): Constant(7)}) == 2
        assert set(instance) == {fact("R", 7)}

    def test_apply_null_map_removes_every_old_fact_before_adding(
        self, store_and_rewrite
    ):
        # R(N1) is rewritten onto R(N2)'s old terms while R(N2) itself is
        # rewritten: the new R(N2) must survive the removal of the old.
        make, rewrite = store_and_rewrite
        instance = make()
        instance.add(fact("R", Null(1)))
        instance.add(fact("R", Null(2)))
        assert rewrite(instance, {Null(1): Null(2), Null(2): Constant(7)}) == 2
        assert set(instance) == {fact("R", Null(2)), fact("R", 7)}

    def test_apply_null_map_bumps_version(self, store_and_rewrite):
        make, rewrite = store_and_rewrite
        instance = make()
        instance.add(fact("R", Null(1), "x"))
        instance.add(fact("S", 1))
        before = instance.version
        rewrite(instance, {Null(1): Constant(7)})
        assert instance.version > before
        assert instance.facts("R") == {fact("R", 7, "x")}

    def test_apply_null_map_empty(self, store_and_rewrite):
        make, rewrite = store_and_rewrite
        instance = make()
        instance.add(fact("R", 1))
        assert rewrite(instance, {}) == 0

    def test_kernel_null_map_rebuilds_a_probed_index(self):
        store = ColumnarInstance()
        store.add(fact("R", Null(1), "x"))
        code = store.encode_term(Constant(7))
        assert (code,) not in store.encoded_index("R", [0])
        _kernel_null_map(store, {Null(1): Constant(7)})
        assert (code,) in store.encoded_index("R", [0])


class TestCopies:
    def test_copy_independent(self):
        instance = Instance()
        instance.add(fact("R", 1))
        clone = instance.copy()
        clone.add(fact("R", 2))
        assert len(instance) == 1
        assert len(clone) == 2

    def test_copy_keeps_version(self):
        instance = Instance()
        instance.add(fact("R", 1))
        clone = instance.copy()
        assert clone.version == instance.version
        clone.add(fact("R", 2))
        assert fact("R", 2) not in instance

    def test_pickle_round_trip_keeps_facts_and_takes_writes(self):
        instance = Instance()
        instance.add(fact("R", 1, "a"))
        clone = pickle.loads(pickle.dumps(instance))
        assert clone == instance
        assert clone.version == instance.version
        clone.add(fact("R", 2, "a"))
        assert len(clone.facts("R")) == 2

    def test_restricted_to(self):
        instance = Instance()
        instance.add(fact("R", 1))
        instance.add(fact("S", 1))
        restricted = instance.restricted_to(["R"])
        assert len(restricted) == 1
        assert restricted.size("S") == 0

    def test_str_truncates(self):
        instance = Instance()
        for i in range(30):
            instance.add(fact("R", i))
        rendered = str(instance)
        assert "more" in rendered
        assert str(Instance()) == "(empty instance)"
