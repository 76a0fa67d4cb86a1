"""The block probe pipeline: RowMask restriction, generated drivers,
probe counters, and the block/row differential.

PR 10 rewrote the encoded probe path to touch columns in blocks: each
join step's generated driver looks up an index bucket per input row,
restricts it through a :class:`RowMask` (bucket identity or bisect
slice instead of per-row membership), checks repeated-variable
equalities as comprehension filters over column locals, and flushes
result tuples in blocks.  The old row-at-a-time loop is the
differential baseline: ``tests/row_oracle.py`` holds it, and its
:func:`row_probe_mode` runs every encoded plan on it.  These tests pin
the pieces the e14 bench races.
"""

import pytest

from repro.logic.atoms import Atom, Comparison, Conjunction, NegatedConjunction
from repro.logic.terms import Constant, Variable
from repro.relational.kernel import ColumnarInstance, RowMask, TermPool
from repro.relational.query import _PROBE_BLOCK, compile_query

from row_oracle import row_probe_mode

x, y, z = Variable("x"), Variable("y"), Variable("z")


def c(v):
    return Constant(v)


class TestRowMask:
    def test_covering_contiguous_mask_returns_bucket_identity(self):
        # The e2 hot-path regression: a fresh-generation window covering
        # the whole bucket must hand the bucket back *by identity* — the
        # old `[r for r in rows if r in delta]` allocated a copy per
        # probe even when nothing was filtered.
        mask = RowMask(range(0, 100))
        bucket = [3, 17, 42, 99]
        assert mask.restrict(bucket) is bucket

    def test_covering_sparse_mask_returns_bucket_identity(self):
        mask = RowMask({0, 2, 4, 6, 8})
        bucket = [2, 6, 8]
        assert mask.restrict(bucket) is bucket

    def test_contiguous_window_slices_by_bisect(self):
        mask = RowMask(range(10, 20))
        assert mask.restrict([5, 8, 11, 14, 19, 23]) == [11, 14, 19]

    def test_sparse_window_filters_by_membership(self):
        mask = RowMask({10, 14, 18})
        assert mask.restrict([5, 10, 12, 14, 30]) == [10, 14]

    def test_disjoint_bucket_is_empty(self):
        mask = RowMask(range(100, 200))
        assert mask.restrict([1, 2, 3]) == ()
        assert mask.restrict([300, 400]) == ()

    def test_empty_inputs(self):
        assert RowMask(range(5)).restrict([]) == ()
        empty = RowMask(())
        assert empty.restrict([1, 2]) == ()
        assert len(empty) == 0 and not empty

    def test_container_protocol(self):
        # Masks stand in for a round's row-id sets wherever the engine
        # sizes, tests or iterates a delta; they must behave like them.
        mask = RowMask({7, 3, 11})
        assert sorted(mask) == [3, 7, 11]
        assert len(mask) == 3
        assert 7 in mask and 5 not in mask


def _store():
    """R(k, a) joined with S(a, b, b): three probe keys, fan-out with a
    repeated-variable check that culls half of one bucket."""
    store = ColumnarInstance(pool=TermPool())
    for k, a in [(1, 10), (2, 10), (3, 20)]:
        store.add(Atom("R", (c(k), c(a))))
    for a, b, bb in [(10, 5, 5), (10, 6, 7), (20, 8, 8)]:
        store.add(Atom("S", (c(a), c(b), c(bb))))
    return store


def _plan(store, **kwargs):
    body = Conjunction(atoms=(Atom("R", (x, y)), Atom("S", (y, z, z))))
    return compile_query(body, **kwargs).encoded(store.pool)


def _drain(plan, store, delta=None):
    stats = store.kernel_stats
    probed0, surv0 = stats.probe_rows, stats.probe_survivors
    rows = []
    for block in plan.blocks(store, delta=delta):
        rows += block
    return rows, stats.probe_rows - probed0, stats.probe_survivors - surv0


class TestProbeCounters:
    def test_probe_rows_counts_candidates_and_survivors_counts_yields(self):
        store = _store()
        plan = _plan(store, first_atom=0)
        rows, probed, survivors = _drain(plan, store)
        # Step R: 3 candidate rows, all survive (no checks).  Step S:
        # a=10 twice (2 candidates each) + a=20 once (1 candidate) = 5
        # candidates; the z==z column check kills (10, 6, 7), leaving
        # one survivor per probe.
        assert len(rows) == 3
        assert probed == 3 + 5
        assert survivors == 3 + 3

    def test_delta_restriction_counts_candidates_after_the_mask(self):
        store = _store()
        plan = _plan(store, first_atom=0)
        r_ids = store.live_row_ids("R")
        delta = RowMask(r_ids[-1:])  # only R(3, 20) is "new"
        rows, probed, survivors = _drain(plan, store, delta)
        # Anchor candidates are counted *after* the mask restriction:
        # 1 R row, then 1 S candidate for a=20.
        assert len(rows) == 1
        assert probed == 1 + 1
        assert survivors == 1 + 1

    def test_block_and_row_modes_report_identical_counters(self):
        store = _store()
        plan = _plan(store, first_atom=0)
        block = _drain(plan, store)
        with row_probe_mode():
            row = _drain(plan, store)
        assert block == row


class TestBlockRowDifferential:
    """row_probe_mode must be observationally identical to the drivers."""

    @pytest.mark.parametrize("anchor", [None, 0, 1])
    def test_identical_streams_across_anchors(self, anchor):
        store = _store()
        kwargs = {} if anchor is None else {"first_atom": anchor}
        plan = _plan(store, **kwargs)
        block_rows, *_ = _drain(plan, store)
        with row_probe_mode():
            row_rows, *_ = _drain(plan, store)
        assert block_rows == row_rows
        assert len(block_rows) == 3

    def test_identical_streams_under_delta_shapes(self):
        store = _store()
        plan = _plan(store, first_atom=0)
        r_ids = store.live_row_ids("R")
        for delta in (
            RowMask(r_ids),            # covering
            RowMask(r_ids[1:]),        # contiguous window
            RowMask(set(r_ids[::2])),  # sparse
            set(r_ids[:1]),            # raw set: wrapped by blocks()
        ):
            block_rows, *_ = _drain(plan, store, delta)
            with row_probe_mode():
                row_rows, *_ = _drain(plan, store, delta)
            assert block_rows == row_rows

    def test_identical_streams_with_comparisons_and_negation(self):
        store = _store()
        store.add(Atom("Bad", (c(10),)))
        body = Conjunction(
            atoms=(Atom("R", (x, y)), Atom("S", (y, z, z))),
            comparisons=(Comparison("<", x, c(3)),),
            negations=(
                NegatedConjunction(Conjunction(atoms=(Atom("Bad", (y,)),))),
            ),
        )
        plan = compile_query(body).encoded(store.pool)
        block_rows, *_ = _drain(plan, store)
        with row_probe_mode():
            row_rows, *_ = _drain(plan, store)
        # The comparison keeps k in {1, 2}; the negation then kills both
        # a=10 rows, leaving nothing (R(3, 20) fails the comparison).
        assert block_rows == row_rows == []

    def test_corpus_scenario_chases_identically(self):
        # End-to-end: one full rewrite + chase per mode over a corpus
        # scenario — every probe the chase makes goes through whichever
        # pipeline is active.
        from repro.pipeline import run_scenario
        from repro.runtime.fingerprint import fingerprint_instance

        from corpus import pipeline_specs

        spec = pipeline_specs()[0]
        built = spec.build()
        block = run_scenario(built.scenario, built.instance)
        built = spec.build()
        with row_probe_mode():
            row = run_scenario(built.scenario, built.instance)
        assert block.chase.status == row.chase.status
        assert fingerprint_instance(block.target) == fingerprint_instance(
            row.target
        )


class TestBlockSurface:
    def test_blocks_yield_tuples_in_bounded_blocks(self):
        store = ColumnarInstance(pool=TermPool())
        rows = [(i, i % 7) for i in range(3 * _PROBE_BLOCK)]
        store.add_all(Atom("T", (c(a), c(b))) for a, b in rows)
        plan = compile_query(
            Conjunction(atoms=(Atom("T", (x, y)),))
        ).encoded(store.pool)
        blocks = list(plan.blocks(store))
        assert sum(len(block) for block in blocks) == len(rows)
        for block in blocks:
            assert block and len(block) <= _PROBE_BLOCK
            assert all(type(row) is tuple for row in block)

    def test_zero_step_plan_yields_the_seed(self):
        # A body with no atoms (a ded's pure-comparison branch): the
        # seed block flows through _finalize untouched.
        store = ColumnarInstance(pool=TermPool())
        plan = compile_query(
            Conjunction(comparisons=(Comparison("<", x, c(5)),)),
            bound=(x,),
        ).encoded(store.pool)
        slot = plan.slot_of[x]
        ok = [(slot, store.encode_term(c(1)))]
        bad = [(slot, store.encode_term(c(9)))]
        assert [
            row for block in plan.blocks(store, ok) for row in block
        ] == [(store.encode_term(c(1)),)]
        assert list(plan.blocks(store, bad)) == []
