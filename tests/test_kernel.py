"""Unit tests for the columnar instance kernel.

:class:`TermPool` interning, the
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

    @staticmethod
    def layout(inst, relation="R"):
        """Everything a batch insert decides: row ids, column order,
        generations and the insertion log."""
        table = inst._tables[relation]
        return (
            dict(table.row_ids),
            [list(column) for column in table.columns],
            list(table.generations),
            table.live_count,
            {gen: list(log) for gen, log in inst._insertion_log.items() if log},
        )

    @pytest.mark.parametrize("duplicates", [0, 1, 7])
    def test_seeding_an_empty_table_matches_the_per_row_loop(self, duplicates):
        # Into an empty table a duplicate-free batch takes the C-level
        # id assignment; a batch with duplicates must keep each row's
        # first id, as the per-row loop does.
        pool = TermPool()
        per_row = ColumnarInstance(pool=pool)
        bulk = ColumnarInstance(pool=pool)
        nan_a, nan_b = float("nan"), float("nan")
        rows = self.rows(per_row, 20) + [
            per_row.encode_row((Constant(nan_a), Constant(1))),
            per_row.encode_row((Constant(nan_b), Constant(1))),
        ]
        assert rows[-1] != rows[-2]  # two NaN objects, two codes
        batch = rows + [rows[-1], rows[3], rows[-2]][:duplicates] + rows[:duplicates]
        for row in batch:
            per_row.add_encoded("R", row)
        assert bulk.extend_encoded("R", batch) == len(rows)
        assert self.layout(bulk) == self.layout(per_row)
        assert bulk.extend_encoded("R", batch) == 0

    def test_seeding_nan_value_rows_matches_per_fact_adds(self):
        nan_a, nan_b = float("nan"), float("nan")
        source = Instance()
        for value in (nan_a, nan_b, nan_a, 1, 2.5, "x"):
            source.add_row("R", value, 0)
        per_fact = ColumnarInstance(pool=TermPool())
        bulk = ColumnarInstance(pool=per_fact.pool)
        for relation in source.relations():
            for row in source.rows(relation):
                per_fact.add(Atom(relation, tuple(map(Constant, row))))
        bulk.add_all(source)
        assert self.layout(bulk) == self.layout(per_fact)

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


class TestPostings:
    """Set-valued indexes: key codes -> codes at the remaining position."""

    def _store(self):
        store = ColumnarInstance(pool=TermPool())
        store.add(atom("E", 1, 2))
        store.add(atom("E", 1, 3))
        store.add(atom("E", 2, 3))
        return store

    def _codes(self, store, *values):
        return {store.pool.encode(Constant(v)) for v in values}

    def test_keys_map_to_the_codes_at_the_other_position(self):
        store = self._store()
        one, three = (store.pool.encode(Constant(v)) for v in (1, 3))
        out = store.posting("E", (0,))
        into = store.posting("E", (1,))
        assert out[(one,)] == self._codes(store, 2, 3)
        assert into[(three,)] == self._codes(store, 1, 2)
        # The posting answers the planner's distinct-key statistics.
        assert store.cached_key_count("E", (0,)) == 2

    def test_live_posting_follows_appends_and_resurrections(self):
        store = self._store()
        out = store.posting("E", (0,))
        one = store.pool.encode(Constant(1))
        store.add(atom("E", 1, 4))
        store.extend_encoded("E", [store.encode_row(atom("E", 1, 5).terms)] * 2)
        assert store.posting("E", (0,)) is out
        assert out[(one,)] == self._codes(store, 2, 3, 4, 5)
        store.remove(atom("E", 1, 2))  # drops the posting
        rebuilt = store.posting("E", (0,))
        assert rebuilt is not out and rebuilt[(one,)] == self._codes(store, 3, 4, 5)
        store.add(atom("E", 1, 2))  # resurrects the tombstoned row
        assert rebuilt[(one,)] == self._codes(store, 2, 3, 4, 5)

    def test_null_maps_drop_postings_and_copies_share_none(self):
        store = self._store()
        store.add(Atom("E", (Constant(1), Null(0))))
        out = store.posting("E", (0,))
        clone = store.copy()
        clone.add(atom("E", 1, 9))
        one = store.pool.encode(Constant(1))
        assert clone.posting("E", (0,)) is not out
        assert -1 in out[(one,)] and store.pool.encode(Constant(9)) not in out[(one,)]
        store.apply_null_map_encoded({-1: store.pool.encode(Constant(7))})
        assert store.posting("E", (0,))[(one,)] == self._codes(store, 2, 3, 7)


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


# -- column scans: encoded_index / key_count edge cases ---------------------

SCAN_POSITIONS = [(), (0,), (1,), (0, 1), (1, 0)]


def _scan_states():
    """(label, columnar, reference) pairs covering the scan edge cases:
    a relation never added, a table whose rows are all tombstoned, a
    table with holes, and one whose holes were resurrected."""

    def pair():
        return ColumnarInstance(pool=TermPool()), Instance()

    def fill(stores, n=9):
        for store in stores:
            for i in range(n):
                store.add(atom("R", i % 4, i % 2))

    states = [("absent", *pair())]
    stores = pair()
    fill(stores, 3)
    for store in stores:
        for i in range(3):
            store.remove(atom("R", i % 4, i % 2))
    states.append(("all-tombstoned", *stores))
    stores = pair()
    fill(stores)
    for store in stores:
        store.remove(atom("R", 1, 1))
        store.remove(atom("R", 0, 0))
    states.append(("tombstoned", *stores))
    stores = pair()
    fill(stores)
    for store in stores:
        store.remove(atom("R", 1, 1))
        store.remove(atom("R", 2, 0))
        store.add(atom("R", 2, 0))  # resurrects its old row id
    states.append(("resurrected", *stores))
    stores = pair()
    fill(stores)
    states.append(("dense", *stores))
    return states


def _brute_index(store, positions):
    built = {}
    for row_id in range(len(store._tables["R"].generations) if "R" in store._tables else 0):
        if store._tables["R"].generations[row_id] < 0:
            continue
        row = store.row_values("R", row_id)
        built.setdefault(tuple(row[p] for p in positions), []).append(row_id)
    return built


def _term_keys(instance, positions):
    """Distinct term tuples at ``positions`` of the set-based twin."""
    return len({tuple(f.terms[p] for p in positions) for f in instance.facts("R")})


class TestColumnScans:
    @pytest.mark.parametrize("positions", SCAN_POSITIONS)
    def test_encoded_index_matches_brute_force(self, positions):
        for label, columnar, _reference in _scan_states():
            expected = _brute_index(columnar, positions)
            assert dict(columnar.encoded_index("R", positions)) == expected, label

    @pytest.mark.parametrize("positions", SCAN_POSITIONS)
    def test_key_count_matches_brute_force_and_reference(self, positions):
        for label, columnar, reference in _scan_states():
            expected = len(_brute_index(columnar, positions))
            assert _term_keys(reference, positions) == expected, label
            # The scan path: no index is live yet.
            assert columnar.cached_key_count("R", positions) is None, label
            assert columnar.key_count("R", positions) == expected, label
            assert columnar.cached_key_count("R", positions) == expected, label
            # The index path: a live index answers with len(index).
            columnar.encoded_index("R", positions)
            columnar.add(atom("R", 99, 99))
            reference.add(atom("R", 99, 99))
            expected = _term_keys(reference, positions)
            assert columnar.cached_key_count("R", positions) == expected, label
            assert columnar.key_count("R", positions) == expected, label

    def test_empty_positions_key_every_live_row(self):
        # Dropping the () case would make every cross-product probe miss
        # (the triangle chase would find no triangles at all).
        store = ColumnarInstance(pool=TermPool())
        for i in range(5):
            store.add(atom("R", i, i))
        store.remove(atom("R", 2, 2))
        assert dict(store.encoded_index("R", ())) == {(): [0, 1, 3, 4]}
        assert store.key_count("S", ()) == 0


# -- bulk seeding: add_all over a decoded Instance ---------------------------


def _mixed_instance():
    source = Instance()
    for i in range(40):
        source.add(atom("R", i, i % 3, "x" if i % 2 else 1.5))
        source.add(atom("S", f"s{i % 7}"))
    source.add(Atom("S", (Null(4, "hint"),)))
    source.add(Atom("T", (Null(4), Null(5, "other"))))
    return source


class TestBulkAddAll:
    def test_bulk_matches_per_fact_adds(self):
        source = _mixed_instance()
        pool = TermPool()
        per_fact = ColumnarInstance(pool=pool)
        for fact in source:
            per_fact.add(fact)
        bulk = ColumnarInstance(pool=pool)
        assert bulk.add_all(source) == len(source)
        assert bulk == per_fact
        for relation in ("R", "S", "T"):
            assert bulk.live_row_ids(relation) == per_fact.live_row_ids(relation)
            assert [
                bulk.row_values(relation, r) for r in bulk.live_row_ids(relation)
            ] == [
                per_fact.row_values(relation, r)
                for r in per_fact.live_row_ids(relation)
            ]
        assert bulk.rows_since(0) == per_fact.rows_since(0)
        assert (
            bulk.kernel_stats.encoded_appends
            == per_fact.kernel_stats.encoded_appends
            == len(source)
        )
        assert {n.id: n.hint for n in bulk.nulls()} == {4: "hint", 5: "other"}

    def test_bulk_into_a_populated_store_dedups(self):
        source = _mixed_instance()
        pool = TermPool()
        per_fact = ColumnarInstance(pool=pool)
        bulk = ColumnarInstance(pool=pool)
        for store in (per_fact, bulk):
            store.add(atom("R", 3, 0, "x"))
            store.add(atom("Q", 1))
        added = sum(per_fact.add(fact) for fact in source)
        assert bulk.add_all(source) == added == len(source) - 1
        assert bulk.live_row_ids("R") == per_fact.live_row_ids("R")
        assert bulk.rows_since(0) == per_fact.rows_since(0)

    def test_bulk_around_tombstones_matches_per_fact(self):
        # A table with tombstones resurrects rows; the per-fact path
        # keeps the insertion log in fact order.
        pool = TermPool()
        source = _mixed_instance()
        stores = [ColumnarInstance(pool=pool), ColumnarInstance(pool=pool)]
        for store in stores:
            store.add(atom("R", 0, 0, 1.5))
            store.add(atom("R", 999, 0, 1.5))
            store.remove(atom("R", 0, 0, 1.5))
        for fact in source:
            stores[0].add(fact)
        stores[1].add_all(source)
        assert stores[0].rows_since(0) == stores[1].rows_since(0)
        assert stores[0].live_row_ids("R") == stores[1].live_row_ids("R")

    def test_non_ground_atom_still_raises(self):
        from repro.logic.terms import Variable

        source = Instance()
        source.add(atom("R", 1))
        # Only a corrupted row store can hold a variable: add() and
        # add_row() reject one.
        source._rows["R"].add((Variable("v"),))
        store = ColumnarInstance(pool=TermPool())
        with pytest.raises(SchemaError, match="non-ground"):
            store.add_all(source)

    def test_mixed_arity_still_raises(self):
        source = Instance()
        source.add(atom("R", 1))
        source.add(atom("R", 1, 2))
        store = ColumnarInstance(pool=TermPool())
        with pytest.raises(SchemaError, match="arity"):
            store.add_all(source)

    def test_arity_clash_with_existing_table_still_raises(self):
        store = ColumnarInstance(pool=TermPool())
        store.add(atom("R", 1, 2))
        source = Instance()
        source.add(atom("R", 1))
        with pytest.raises(SchemaError, match="arity"):
            store.add_all(source)

    def test_schema_store_validates_every_fact(self):
        from repro.errors import TypingError
        from repro.relational.schema import Attribute, Relation, Schema
        from repro.relational.types import DataType

        schema = Schema("s", [Relation("R", [Attribute("a", DataType.INT)])])
        source = Instance()
        source.add(atom("R", 1))
        assert ColumnarInstance(schema).add_all(source) == 1
        source.add(atom("R", "not an int"))
        with pytest.raises(TypingError):
            ColumnarInstance(schema).add_all(source)
        stray = Instance()
        stray.add(atom("Elsewhere", 1))
        with pytest.raises(SchemaError, match="does not belong"):
            ColumnarInstance(schema).add_all(stray)
