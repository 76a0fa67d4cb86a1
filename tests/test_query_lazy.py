"""Regression tests for the lazy compiled evaluator's short-circuiting.

The chase probes ``exists()`` once per premise match, so probe cost must
be independent of relation size: a satisfied conclusion on a 10k-fact
relation has to be found by one hash-index lookup, not by computing the
full join and truncating.  These tests read the store's kernel counters:
``probe_rows`` counts the index-bucket rows a join step examined and
``probe_survivors`` the rows that left a step, so a probe that stops
early shows as a survivor count bounded by one output block.
"""

import pytest

from repro.chase.universal import satisfies, violations
from repro.core.verify import _check
from repro.errors import UnsafeDependencyError
from repro.logic.atoms import Atom, Comparison, Conjunction
from repro.logic.dependencies import tgd
from repro.logic.terms import Constant, Variable
from repro.relational.instance import Instance
from repro.relational.kernel import ColumnarInstance
from repro.relational.query import (
    _PROBE_BLOCK,
    compile_query,
    evaluate,
    evaluate_iter,
    exists,
    reference_evaluator,
)

x, y, z = Variable("x"), Variable("y"), Variable("z")


def _work(store):
    stats = store.kernel_stats
    return {"probe_rows": stats.probe_rows, "survivors": stats.probe_survivors}


def _reset(store):
    store.kernel_stats.probe_rows = store.kernel_stats.probe_survivors = 0


def _bulk_store(n):
    store = ColumnarInstance()
    for i in range(n):
        store.add(Atom("R", (Constant(i), Constant(f"name_{i}"), Constant(i % 7))))
    return store


def _chain_store(n):
    store = ColumnarInstance()
    for i in range(n):
        store.add(Atom("E", (Constant(i), Constant(i + 1))))
    return store


class TestExistsShortCircuit:
    def test_seeded_probe_is_constant_work(self):
        """A chase-style satisfaction probe does O(1) work at any size."""
        work = {}
        for n in (100, 10_000):
            store = _bulk_store(n)
            body = Conjunction(atoms=(Atom("R", (x, y, z)),))
            seed = {x: Constant(n // 2), y: Constant(f"name_{n // 2}")}
            assert exists(body, store, seed=seed)
            _reset(store)
            for _ in range(10):
                assert exists(body, store, seed=seed)
            work[n] = _work(store)
        # Identical work at 100x the data: the probe is a key-membership
        # test on a live hash index, so no bucket row is ever examined.
        assert work[100] == work[10_000] == {"probe_rows": 0, "survivors": 0}

    def test_unseeded_exists_examines_no_row(self):
        store = _bulk_store(10_000)
        body = Conjunction(atoms=(Atom("R", (x, y, z)),))
        assert exists(body, store)
        _reset(store)
        assert exists(body, store)
        assert _work(store) == {"probe_rows": 0, "survivors": 0}

    def test_join_probe_stops_early(self):
        """exists() over a join stops after the first output block."""
        store = _chain_store(5_000)
        body = Conjunction(atoms=(Atom("E", (x, y)), Atom("E", (y, z))))
        full = evaluate(body, store)
        assert len(full) == 4_999
        _reset(store)
        assert exists(body, store)
        # One block out of each step, not the 5000 + 4999 rows of the
        # whole join.
        assert _work(store)["survivors"] <= 2 * _PROBE_BLOCK

    def test_negative_probe_misses_cheaply(self):
        store = _bulk_store(10_000)
        body = Conjunction(atoms=(Atom("R", (x, y, z)),))
        seed = {x: Constant(-1), y: Constant("nope")}
        _reset(store)
        assert not exists(body, store, seed=seed)
        assert _work(store) == {"probe_rows": 0, "survivors": 0}


class TestEvaluateLimit:
    def test_limit_truncates_work_not_just_output(self):
        store = _bulk_store(10_000)
        body = Conjunction(atoms=(Atom("R", (x, y, z)),))
        evaluate(body, store, limit=1)  # warm plan + index
        _reset(store)
        rows = evaluate(body, store, limit=5)
        assert len(rows) == 5
        assert _work(store)["survivors"] <= _PROBE_BLOCK

    def test_iterator_is_lazy(self):
        store = _bulk_store(10_000)
        body = Conjunction(atoms=(Atom("R", (x, y, z)),))
        next(evaluate_iter(body, store))  # warm
        _reset(store)
        stream = evaluate_iter(body, store)
        for _ in range(3):
            next(stream)
        assert 3 <= _work(store)["survivors"] <= _PROBE_BLOCK

    def test_limit_matches_reference_semantics(self):
        instance = Instance()
        instance.add_all(_bulk_store(50))
        body = Conjunction(
            atoms=(Atom("R", (x, y, z)),),
            comparisons=(Comparison("<", x, Constant(10)),),
        )
        fast = evaluate(body, instance)
        with reference_evaluator():
            slow = evaluate(body, instance)
        key = lambda b: sorted((v.name, str(t)) for v, t in b.items())
        assert sorted(map(key, fast)) == sorted(map(key, slow))
        assert len(evaluate(body, instance, limit=3)) == 3


class TestViolationsStopAtCap:
    """``satisfies``/``violations`` stop reading a premise at the cap;
    the verifier's check still reads it to the end."""

    N = 10_000

    def _violated(self):
        store = ColumnarInstance()
        store.extend_encoded(
            "P", [(store.encode_term(Constant(i)),) for i in range(self.N)]
        )
        dependency = tgd(
            Conjunction(atoms=(Atom("P", (x,)),)), [Atom("Q", (x,))], name="copy"
        )
        return store, dependency

    def test_satisfies_examines_at_most_one_block(self):
        store, dependency = self._violated()
        _reset(store)
        assert not satisfies([dependency], store)
        assert 0 < _work(store)["probe_rows"] <= _PROBE_BLOCK

    def test_violations_stop_at_the_limit(self):
        store, dependency = self._violated()
        _reset(store)
        found = violations([dependency], store, limit=3)
        assert [binding[x] for _, binding in found] == [Constant(i) for i in range(3)]
        assert _work(store)["probe_rows"] <= _PROBE_BLOCK

    def test_verifier_check_reads_the_whole_premise(self):
        store, dependency = self._violated()
        _reset(store)
        found = []
        matched = _check(dependency, store, store, None, ("", ""), found, 1)
        assert matched == self.N and len(found) == 1
        assert _work(store)["probe_rows"] == self.N


class TestCompiledQueryEdgeCases:
    def test_unsafe_comparison_still_raises(self):
        body = Conjunction(
            atoms=(Atom("R", (x, y, z)),),
            comparisons=(Comparison("<", Variable("unbound"), Constant(1)),),
        )
        with pytest.raises(UnsafeDependencyError):
            evaluate(body, _bulk_store(3))

    def test_unsafe_comparison_silent_on_empty_data(self):
        # The materialized evaluator returned [] before reaching the
        # safety check when no binding survived; the pipeline matches.
        body = Conjunction(
            atoms=(Atom("Missing", (x,)),),
            comparisons=(Comparison("<", Variable("unbound"), Constant(1)),),
        )
        assert evaluate(body, _bulk_store(3)) == []

    def test_compile_cache_reuses_plans(self):
        body = Conjunction(atoms=(Atom("R", (x, y, z)),))
        store = _bulk_store(10)
        first = compile_query(body, (), store)
        second = compile_query(Conjunction(atoms=(Atom("R", (x, y, z)),)), (), store)
        assert first is second

    def test_repeated_fresh_variable_checked(self):
        instance = Instance()
        instance.add(Atom("P", (Constant(1), Constant(2))))
        instance.add(Atom("P", (Constant(3), Constant(3))))
        rows = evaluate(Conjunction(atoms=(Atom("P", (x, x)),)), instance)
        assert len(rows) == 1 and rows[0][x] == Constant(3)
