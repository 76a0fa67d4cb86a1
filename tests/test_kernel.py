"""Unit tests for the columnar instance kernel.

:class:`TermPool` interning and fork-delta shipping, the
:class:`ColumnarInstance` storage invariants (dedup, tombstone
resurrection, generation windows, incremental index maintenance), the
bulk ``extend_encoded`` path, pickling across a (simulated) process
boundary, and the cross-kernel equality contract the differential
suite (:mod:`tests.test_kernel_differential`) builds on.
"""

import pickle

import pytest

from repro.errors import SchemaError
from repro.logic.atoms import Atom
from repro.logic.terms import Constant, Null
from repro.relational.instance import Instance
from repro.relational.kernel import (
    ColumnarInstance,
    TermPool,
    encode_null,
    null_id_of,
)


def atom(relation, *values):
    return Atom(
        relation,
        tuple(
            v if isinstance(v, (Constant, Null)) else Constant(v)
            for v in values
        ),
    )


class TestTermPool:
    def test_interns_dense_codes_and_decodes(self):
        pool = TermPool()
        a, b = Constant("a"), Constant("b")
        assert pool.encode(a) == 1
        assert pool.encode(b) == 2
        assert pool.encode(a) == 1  # stable on re-intern
        assert pool.decode(1) == a
        assert pool.decode(2) == b
        assert len(pool) == 2

    def test_nulls_encode_arithmetically_without_interning(self):
        pool = TermPool()
        assert pool.encode(Null(0)) == -1 == encode_null(0)
        assert pool.encode(Null(3)) == -4 == encode_null(3)
        assert null_id_of(-4) == 3
        assert len(pool) == 0  # nulls never touch the pool
        assert pool.decode(-4) == Null(3)

    def test_try_encode_never_interns(self):
        pool = TermPool()
        assert pool.try_encode(Constant("ghost")) is None
        assert len(pool) == 0
        code = pool.encode(Constant("real"))
        assert pool.try_encode(Constant("real")) == code

    def test_adopt_entries_keeps_fork_replicas_in_lockstep(self):
        parent = TermPool()
        parent.encode(Constant("a"))
        parent.encode(Constant("b"))
        # The replica's pool is a (simulated) copy-on-write snapshot.
        replica = TermPool()
        replica.encode(Constant("a"))
        replica.encode(Constant("b"))
        mark = parent.snapshot_mark
        parent.encode(Constant("c"))
        parent.encode(Constant("d"))
        replica.adopt_entries(mark, parent.entries_since(mark))
        for term in ("a", "b", "c", "d"):
            assert replica.encode(Constant(term)) == parent.encode(
                Constant(term)
            )

    def test_adopt_entries_rejects_a_diverged_replica(self):
        parent = TermPool()
        parent.encode(Constant("a"))
        mark = parent.snapshot_mark
        parent.encode(Constant("b"))
        replica = TermPool()
        replica.encode(Constant("a"))
        replica.encode(Constant("rogue"))  # local intern = divergence
        with pytest.raises(RuntimeError, match="diverged"):
            replica.adopt_entries(mark, parent.entries_since(mark))


class TestColumnarInstance:
    def test_add_dedups_and_decodes(self):
        inst = ColumnarInstance(pool=TermPool())
        assert inst.add(atom("R", "a", "b")) is True
        assert inst.add(atom("R", "a", "b")) is False
        assert len(inst) == 1
        assert inst.facts("R") == frozenset({atom("R", "a", "b")})

    def test_null_hints_stay_per_instance(self):
        pool = TermPool()
        inst = ColumnarInstance(pool=pool)
        inst.add(Atom("R", (Constant("x"), Null(5, "addr"))))
        # The instance overlays the hint; the shared pool never saw it.
        (fact,) = inst.facts("R")
        assert fact.terms[1].hint == "addr"
        assert pool.decode(encode_null(5)).hint == ""
        other = ColumnarInstance(pool=pool)
        other.add(Atom("S", (Null(5),)))
        (other_fact,) = other.facts("S")
        assert other_fact.terms[0].hint == ""

    def test_tombstone_resurrection_reuses_row_id(self):
        inst = ColumnarInstance(pool=TermPool())
        inst.add(atom("R", "a", "b"))
        row = inst.encode_row(atom("R", "a", "b").terms)
        (row_id,) = inst.live_row_ids("R")
        assert inst.remove(atom("R", "a", "b")) is True
        assert inst.live_row_ids("R") == []
        inst.bump_generation()
        assert inst.add_encoded("R", row) is True
        assert inst.live_row_ids("R") == [row_id]
        assert inst.generation_of(atom("R", "a", "b")) == 1

    def test_rows_since_windows_mirror_generations(self):
        inst = ColumnarInstance(pool=TermPool())
        inst.add(atom("R", 1))
        mark = inst.bump_generation()
        inst.add(atom("R", 2))
        inst.add(atom("S", 3))
        delta = inst.rows_since(mark)
        assert {rel for rel, _ in delta} == {"R", "S"}
        assert inst.facts_since(mark) == [atom("R", 2), atom("S", 3)]
        assert inst.rows_since(mark, "S") == [("S", 0)]


class TestExtendEncoded:
    def rows(self, inst, n, start=0):
        return [
            inst.encode_row(atom("R", i, i % 3).terms)
            for i in range(start, start + n)
        ]

    def test_bulk_matches_per_row_inserts(self):
        pool = TermPool()
        per_row = ColumnarInstance(pool=pool)
        bulk = ColumnarInstance(pool=pool)
        rows = self.rows(per_row, 50)
        rows_with_dups = rows + rows[:10]
        for row in rows_with_dups:
            per_row.add_encoded("R", row)
        assert bulk.extend_encoded("R", rows_with_dups) == 50
        assert bulk == per_row
        assert bulk.live_row_ids("R") == per_row.live_row_ids("R")
        assert bulk.rows_since(0) == per_row.rows_since(0)

    def test_resurrects_tombstoned_rows_in_batch(self):
        inst = ColumnarInstance(pool=TermPool())
        rows = self.rows(inst, 3)
        inst.extend_encoded("R", rows)
        inst.remove(atom("R", 1, 1))
        mark = inst.bump_generation()
        fresh = self.rows(inst, 1, start=10)
        assert inst.extend_encoded("R", [rows[1]] + fresh) == 2
        assert inst.live_row_ids("R") == [0, 1, 2, 3]  # id 1 reused
        assert inst.generation_of(atom("R", 1, 1)) == mark

    def test_maintains_live_indexes_incrementally(self):
        inst = ColumnarInstance(pool=TermPool())
        inst.extend_encoded("R", self.rows(inst, 6))
        index = inst.encoded_index("R", (1,))
        assert inst.index_builds == 1
        inst.extend_encoded("R", self.rows(inst, 6, start=6))
        fresh_index = inst.encoded_index("R", (1,))
        assert inst.index_builds == 1  # extended in place, not rebuilt
        assert sum(len(bucket) for bucket in fresh_index.values()) == 12
        assert index is fresh_index

    def test_empty_and_all_duplicate_batches_are_noops(self):
        inst = ColumnarInstance(pool=TermPool())
        rows = self.rows(inst, 4)
        inst.extend_encoded("R", rows)
        version = inst.version
        assert inst.extend_encoded("R", []) == 0
        assert inst.extend_encoded("R", rows) == 0
        assert inst.version == version

    def test_mixed_arities_raise_schema_error(self):
        inst = ColumnarInstance(pool=TermPool())
        with pytest.raises(SchemaError, match="mixed arities"):
            inst.extend_encoded("R", [(1, 2), (1, 2, 3)])


class TestPickleAndCopy:
    def test_pickle_round_trip_reinterns_decoded_rows(self):
        inst = ColumnarInstance(pool=TermPool())
        inst.add(atom("R", "a", "b"))
        inst.bump_generation()
        inst.add(Atom("R", (Constant("c"), Null(2, "addr"))))
        clone = pickle.loads(pickle.dumps(inst))
        assert clone == inst
        assert clone.current_generation == inst.current_generation
        assert set(clone.facts_since(1)) == set(inst.facts_since(1))
        (fact,) = clone.facts_since(1)
        assert fact.terms[1].hint == "addr"

    def test_pickled_clone_keeps_logging_new_generations(self):
        # Guards the cached insertion-log tail: a rehydrated instance
        # must append new rows to the *restored* generation's log.
        inst = ColumnarInstance(pool=TermPool())
        inst.add(atom("R", 1))
        inst.bump_generation()
        clone = pickle.loads(pickle.dumps(inst))
        mark = clone.bump_generation()
        clone.add(atom("R", 2))
        assert clone.facts_since(mark) == [atom("R", 2)]

    def test_copy_isolates_storage_and_log(self):
        inst = ColumnarInstance(pool=TermPool())
        inst.add(atom("R", 1))
        clone = inst.copy()
        inst.add(atom("R", 2))
        clone.add(atom("R", 3))
        assert inst.facts("R") == frozenset({atom("R", 1), atom("R", 2)})
        assert clone.facts("R") == frozenset({atom("R", 1), atom("R", 3)})
        # The clone's log tail is its own list, not the original's.
        assert atom("R", 3) not in inst.facts_since(0)
        assert atom("R", 2) not in clone.facts_since(0)

    def test_restricted_to_keeps_live_rows_and_null_hints(self):
        inst = ColumnarInstance(pool=TermPool())
        for i in range(6):
            inst.add(atom("R", i, i + 1))
        inst.add(Atom("S", (Constant("x"), Null(4, "who"))))
        inst.add(atom("T", "dropped"))
        inst.add(atom("U"))  # arity 0
        inst.remove(atom("R", 2, 3))  # a tombstone inside R
        clone = inst.restricted_to(["R", "S", "U", "missing"])
        assert sorted(clone.relations()) == ["R", "S", "U"]
        for relation in ("R", "S", "U"):
            assert clone.facts(relation) == inst.facts(relation)
            assert clone.size(relation) == inst.size(relation)
        assert clone.size("T") == 0
        (fact,) = clone.facts("S")
        assert fact.terms[1].hint == "who"
        # Rows arrive in row-id order, in one generation window.
        assert clone.rows_since(0) == [
            (relation, row_id)
            for relation in ("R", "S", "U")
            for row_id in range(clone.size(relation))
        ]
        assert clone.kernel_stats.encoded_appends == len(clone)

    def test_to_instance_decodes_once_and_counts(self):
        inst = ColumnarInstance(pool=TermPool())
        inst.add(atom("R", 1, 2))
        inst.add(Atom("S", (Null(7, "h"),)))
        decoded = inst.to_instance(relations=["S"])
        assert decoded.facts("S") == inst.facts("S")
        assert decoded.size("R") == 0
        assert next(iter(decoded.facts("S"))).terms[0].hint == "h"
        # One row for the decode, one for the facts("S") comparison.
        assert inst.kernel_stats.decoded_rows == 2
        assert inst.to_instance() == inst


class TestIngestAndEquality:
    def test_ingest_same_pool_moves_encoded_rows(self):
        pool = TermPool()
        source = ColumnarInstance(pool=pool)
        source.add(atom("R", "a"))
        source.add(Atom("S", (Null(1, "who"),)))
        sink = ColumnarInstance(pool=pool)
        sink.add(atom("R", "a"))  # overlap dedups
        assert sink.ingest(source) == 1
        assert len(sink) == 2
        (fact,) = sink.facts("S")
        assert fact.terms[0].hint == "who"

    def test_ingest_foreign_pool_falls_back_to_atoms(self):
        source = ColumnarInstance(pool=TermPool())
        source.add(atom("R", "a"))
        source.add(atom("R", "b"))
        sink = ColumnarInstance(pool=TermPool())
        assert sink.ingest(source) == 2
        assert sink == source

    def test_cross_kernel_equality_compares_fact_sets(self):
        columnar = ColumnarInstance(pool=TermPool())
        reference = Instance()
        for target in (columnar, reference):
            target.add(atom("R", "a", "b"))
            target.add(Atom("S", (Null(0),)))
        assert columnar == reference
        assert reference == columnar
        reference.add(atom("R", "z", "z"))
        assert columnar != reference
