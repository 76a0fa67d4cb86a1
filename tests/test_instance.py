"""Unit tests for instances: facts, indexes, null rewriting, copies."""

import pickle

import pytest

from repro.errors import SchemaError
from repro.logic.atoms import Atom
from repro.logic.terms import Constant, Null
from repro.relational.instance import Instance
from repro.relational.schema import Schema


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


class TestIndexes:
    def test_index_lookup(self):
        instance = Instance()
        instance.add(fact("R", 1, "a"))
        instance.add(fact("R", 2, "a"))
        instance.add(fact("R", 3, "b"))
        index = instance.index("R", [1])
        assert len(index[(Constant("a"),)]) == 2
        assert len(index[(Constant("b"),)]) == 1

    def test_index_invalidation_on_write(self):
        instance = Instance()
        instance.add(fact("R", 1))
        index = instance.index("R", [0])
        assert len(index[(Constant(1),)]) == 1
        instance.add(fact("R", 2))
        fresh = instance.index("R", [0])
        assert (Constant(2),) in fresh

    def test_index_cached_between_reads(self):
        instance = Instance()
        instance.add(fact("R", 1))
        first = instance.index("R", [0])
        second = instance.index("R", [0])
        assert first is second

    def test_add_maintains_a_live_index_in_place(self):
        instance = Instance()
        instance.add(fact("R", 1, "a"))
        index = instance.index("R", [1])
        instance.add(fact("R", 2, "a"))
        assert instance.index("R", [1]) is index
        assert len(index[(Constant("a"),)]) == 2
        assert instance.index_builds == 1

    def test_remove_rebuilds_only_its_relations_indexes(self):
        instance = Instance()
        instance.add(fact("R", 1))
        instance.add(fact("S", 1))
        r_index, s_index = instance.index("R", [0]), instance.index("S", [0])
        instance.remove(fact("R", 1))
        assert instance.index("S", [0]) is s_index
        rebuilt = instance.index("R", [0])
        assert rebuilt is not r_index and not rebuilt
        assert instance.index_builds == 3

    def test_key_count_reads_a_live_index(self):
        instance = Instance()
        instance.add(fact("R", 1, "a"))
        index = instance.index("R", [1])
        instance.add(fact("R", 2, "b"))
        assert instance.key_count("R", [1]) == len(index) == 2
        assert instance.index_builds == 1

    def test_key_count_never_builds_an_index(self):
        instance = Instance()
        for i in range(6):
            instance.add(fact("R", i, i % 3))
        assert instance.key_count("R", [1]) == 3
        assert instance.key_count("R", [0, 1]) == 6
        assert instance.key_count("S", [0]) == 0
        assert instance.index_builds == 0


class TestNullHandling:
    def test_nulls_collected(self):
        instance = Instance()
        instance.add(fact("R", Null(1), 2))
        instance.add(fact("S", Null(2)))
        assert instance.nulls() == {Null(1), Null(2)}
        assert not instance.is_ground_complete()

    def test_apply_null_map_rewrites(self):
        instance = Instance()
        instance.add(fact("R", Null(1), "x"))
        rewritten = instance.apply_null_map({Null(1): Constant(7)})
        assert rewritten == 1
        assert fact("R", 7, "x") in instance
        assert fact("R", Null(1), "x") not in instance

    def test_apply_null_map_collapses_duplicates(self):
        instance = Instance()
        instance.add(fact("R", Null(1)))
        instance.add(fact("R", 7))
        instance.apply_null_map({Null(1): Constant(7)})
        assert len(instance) == 1

    def test_apply_null_map_counts_collapsed_facts(self):
        instance = Instance()
        instance.add(fact("R", Null(1)))
        instance.add(fact("R", Null(2)))
        assert instance.apply_null_map({Null(1): Constant(7), Null(2): Constant(7)}) == 2
        assert set(instance) == {fact("R", 7)}

    def test_apply_null_map_removes_every_old_fact_before_adding(self):
        # R(N1) is rewritten onto R(N2)'s old terms while R(N2) itself is
        # rewritten: the new R(N2) must survive the removal of the old.
        instance = Instance()
        instance.add(fact("R", Null(1)))
        instance.add(fact("R", Null(2)))
        assert instance.apply_null_map({Null(1): Null(2), Null(2): Constant(7)}) == 2
        assert set(instance) == {fact("R", Null(2)), fact("R", 7)}

    def test_apply_null_map_bumps_version_and_rebuilds_indexes(self):
        instance = Instance()
        instance.add(fact("R", Null(1), "x"))
        instance.add(fact("S", 1))
        index = instance.index("R", [0])
        before = instance.version
        instance.apply_null_map({Null(1): Constant(7)})
        assert instance.version > before
        rebuilt = instance.index("R", [0])
        assert rebuilt is not index
        assert list(rebuilt) == [(Constant(7),)]

    def test_apply_null_map_empty(self):
        instance = Instance()
        instance.add(fact("R", 1))
        assert instance.apply_null_map({}) == 0


class TestCopies:
    def test_copy_independent(self):
        instance = Instance()
        instance.add(fact("R", 1))
        clone = instance.copy()
        clone.add(fact("R", 2))
        assert len(instance) == 1
        assert len(clone) == 2

    def test_copy_keeps_version_and_shares_no_indexes(self):
        instance = Instance()
        instance.add(fact("R", 1))
        index = instance.index("R", [0])
        clone = instance.copy()
        assert clone.version == instance.version
        clone.add(fact("R", 2))
        assert (Constant(2),) in clone.index("R", [0])
        assert (Constant(2),) not in index
        assert instance.index("R", [0]) is index

    def test_pickle_round_trip_keeps_facts_and_indexes_working(self):
        instance = Instance()
        instance.add(fact("R", 1, "a"))
        instance.index("R", [1])
        clone = pickle.loads(pickle.dumps(instance))
        assert clone == instance
        clone.add(fact("R", 2, "a"))
        assert len(clone.index("R", [1])[(Constant("a"),)]) == 2

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
