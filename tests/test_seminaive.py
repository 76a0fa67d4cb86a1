"""The shared delta engine and the semi-naive materializer.

Covers the incremental layer extracted from the chase
(:mod:`repro.relational.delta`): plan-cache recompile policy (growth +
selectivity drift), anchored delta joins, generation windows — and its
Datalog consumer: per-component fixpoints (the recursive-view
regression the old single-pass evaluator got wrong), incremental
refresh, and the negation rebuild rule.
"""

import pytest

from repro.datalog.evaluate import SemanticDatabase, materialize
from repro.datalog.program import ViewProgram
from repro.datalog.stratify import stratified_components
from repro.errors import RecursionError_
from repro.logic.atoms import Atom, Conjunction, NegatedConjunction
from repro.logic.terms import Constant, Variable
from repro.relational.delta import DeltaPlans, GenerationWindow, PlanCache
from repro.relational.instance import Instance
from repro.relational.kernel import ColumnarInstance, TermPool
from repro.relational.schema import Schema

from kernel_oracle import materialize_naive

x, y, z = Variable("x"), Variable("y"), Variable("z")


def c(v):
    return Constant(v)


@pytest.fixture()
def edge_schema():
    schema = Schema("graph")
    schema.add_relation("Edge", [("src", "int"), ("dst", "int")])
    schema.add_relation("Node", [("id", "int")])
    return schema


def chain_instance(schema, length):
    instance = Instance(schema)
    for i in range(length):
        instance.add_row("Edge", i, i + 1)
    return instance


def tc_program(schema):
    """Transitive closure: the canonical positively-recursive view."""
    program = ViewProgram(schema)
    program.define(Atom("TC", (x, y)), Conjunction(atoms=(Atom("Edge", (x, y)),)))
    program.define(
        Atom("TC", (x, z)),
        Conjunction(atoms=(Atom("TC", (x, y)), Atom("Edge", (y, z)))),
    )
    return program


# ---------------------------------------------------------------------------
# The shared engine primitives
# ---------------------------------------------------------------------------


def store():
    """A columnar store on a private pool (codes start afresh)."""
    return ColumnarInstance(pool=TermPool())


def decoded(store, rows):
    """(relation, row id) pairs as the facts they hold."""
    return {store.decode_row(relation, row_id) for relation, row_id in rows}


class TestGenerationWindow:
    def test_advance_returns_exactly_the_new_facts(self):
        instance = store()
        instance.add_row("R", 1)
        window = GenerationWindow(instance)
        instance.add_row("R", 2)
        instance.add_row("R", 3)
        rows = window.advance_rows()
        assert {f.terms[0].value for f in decoded(instance, rows)} == {1, 2, 3}
        # The window moved: nothing new yields an empty delta.
        assert window.advance_rows() == []
        instance.add_row("R", 4)
        rows = window.advance_rows()
        assert {f.terms[0].value for f in decoded(instance, rows)} == {4}

    def test_facts_inserted_mid_iteration_land_in_next_window(self):
        instance = store()
        window = GenerationWindow(instance)
        instance.add_row("R", 1)
        first = window.advance_rows()
        instance.add_row("R", 2)  # after the advance: next window's fact
        assert {f.terms[0].value for f in decoded(instance, first)} == {1}
        rows = window.advance_rows()
        assert {f.terms[0].value for f in decoded(instance, rows)} == {2}


class TestDeltaPlans:
    def body(self):
        return Conjunction(atoms=(Atom("R", (x, y)), Atom("S", (y, z))))

    def test_delta_matches_require_a_delta_fact(self):
        instance = store()
        instance.add_row("R", 1, 2)
        instance.add_row("S", 2, 3)
        plans = DeltaPlans(self.body())
        mark = instance.bump_generation()
        instance.add_row("R", 10, 20)
        instance.add_row("S", 20, 30)
        delta = {"R": {row_id for _, row_id in instance.rows_since(mark, "R")}}
        found = plans.delta_matches_encoded(instance, delta)
        # Only the match through the delta fact; the old R(1,2)⋈S(2,3)
        # combination must not reappear.
        assert len(found) == 1
        slot = plans.varlist(instance).index(x)
        assert instance.decode_term(found[0][slot]) == c(10)

    def test_delta_matches_deduplicate_across_anchors(self):
        instance = store()
        instance.add_row("R", 1, 2)
        instance.add_row("S", 2, 3)
        plans = DeltaPlans(self.body())
        found = plans.delta_matches_encoded(instance, {"R": {0}, "S": {0}})
        # Both atoms are anchors for the same match: one row, not two.
        assert len(found) == 1

    def test_full_matches_and_exists(self):
        instance = store()
        instance.add_row("R", 1, 2)
        instance.add_row("S", 2, 3)
        plans = DeltaPlans(self.body())
        assert len(plans.matches_encoded(instance)) == 1
        assert len(plans.matches_encoded(store())) == 0
        # Seeded existence: S(y, z) given y from an outer (x, y) row.
        probe = DeltaPlans(Conjunction(atoms=(Atom("S", (y, z)),)), bound={y})
        outer = (x, y)
        row = (instance.encode_term(c(1)), instance.encode_term(c(2)))
        assert probe.exists_encoded(instance, outer, row)
        row = (instance.encode_term(c(1)), instance.encode_term(c(9)))
        assert not probe.exists_encoded(instance, outer, row)


class TestPlanCacheRecompile:
    def test_plan_is_reused_while_statistics_hold(self):
        instance = store()
        for i in range(20):
            instance.add_row("R", i, i)
        cache = PlanCache()
        body = Conjunction(atoms=(Atom("R", (x, y)),))
        first = cache.plan("k", body, frozenset(), instance)
        again = cache.plan("k", body, frozenset(), instance)
        assert first is again

    def test_recompiles_on_size_doubling(self):
        instance = store()
        for i in range(20):
            instance.add_row("R", i, i)
        cache = PlanCache()
        body = Conjunction(atoms=(Atom("R", (x, y)),))
        first = cache.plan("k", body, frozenset(), instance)
        for i in range(100, 145):  # more than doubles the relation
            instance.add_row("R", i, i)
        assert cache.plan("k", body, frozenset(), instance) is not first

    def test_recompiles_on_selectivity_drift_without_doubling(self):
        instance = store()
        for i in range(64):
            instance.add_row("R", i, 0)  # column 1 constant: useless key
        instance.add_row("S", 0, 0)
        cache = PlanCache()
        # Two-atom body so a probe on a column subset exists: S binds y,
        # then R is probed on column 1 (bucket estimate 64/1 = 64).
        body = Conjunction(atoms=(Atom("R", (x, y)), Atom("S", (y, z))))
        first = cache.plan("k", body, frozenset(), instance)
        # Run the plan once so its probe indexes go live (the drift check
        # only reads O(1) statistics).
        list(first.bindings(instance))
        # Well under 2x growth in size, but column 1 turns near-unique:
        # the bucket estimate collapses 64 -> ~5, far past DRIFT_FACTOR,
        # so the join order deserves a rethink.
        for i in range(16):
            instance.add_row("R", 1000 + i, 100 + i)
        assert instance.size("R") < 2 * 64
        second = cache.plan("k", body, frozenset(), instance)
        assert second is not first


# ---------------------------------------------------------------------------
# Recursive views: the fixpoint regression
# ---------------------------------------------------------------------------


class TestRecursiveViews:
    def test_transitive_closure_reaches_fixpoint(self, edge_schema):
        """Regression: one pass per stratum derives only paths of length
        ≤ 2; the fixpoint must find *all* pairs of a length-6 chain."""
        program = tc_program(edge_schema)
        instance = chain_instance(edge_schema, 6)
        extent = materialize(program, instance).facts("TC")
        pairs = {(f.terms[0].value, f.terms[1].value) for f in extent}
        expected = {(i, j) for i in range(7) for j in range(i + 1, 7)}
        assert pairs == expected
        # The pair needing 6 applications of the recursive rule is the
        # one a bounded number of passes misses.
        assert (0, 6) in pairs

    def test_mutually_recursive_component(self, edge_schema):
        """Even/odd path length: a two-view recursive component."""
        program = ViewProgram(edge_schema)
        program.define(
            Atom("Odd", (x, y)), Conjunction(atoms=(Atom("Edge", (x, y)),))
        )
        program.define(
            Atom("Odd", (x, z)),
            Conjunction(atoms=(Atom("Even", (x, y)), Atom("Edge", (y, z)))),
        )
        program.define(
            Atom("Even", (x, z)),
            Conjunction(atoms=(Atom("Odd", (x, y)), Atom("Edge", (y, z)))),
        )
        instance = chain_instance(edge_schema, 5)
        extents = materialize(program, instance)
        odd = {(f.terms[0].value, f.terms[1].value) for f in extents.facts("Odd")}
        even = {(f.terms[0].value, f.terms[1].value) for f in extents.facts("Even")}
        assert odd == {(i, j) for i in range(6) for j in range(6) if (j - i) % 2 == 1 and j > i}
        assert even == {(i, j) for i in range(6) for j in range(6) if (j - i) % 2 == 0 and j > i}

    def test_matches_naive_reference(self, edge_schema):
        program = tc_program(edge_schema)
        instance = chain_instance(edge_schema, 8)
        assert materialize(program, instance) == materialize_naive(program, instance)

    def test_recursion_through_negation_rejected(self, edge_schema):
        program = ViewProgram(edge_schema)
        program.define(
            Atom("A", (x,)),
            Conjunction(
                atoms=(Atom("Node", (x,)),),
                negations=(
                    NegatedConjunction(Conjunction(atoms=(Atom("A", (x,)),))),
                ),
            ),
        )
        with pytest.raises(RecursionError_):
            materialize(program, Instance())

    def test_recursion_through_double_negation(self, edge_schema):
        """Even-depth negation is monotone (¬¬P ≡ P) so the cycle is
        stratifiable — but delta anchoring cannot see facts arriving
        behind the double negation, so such rules must re-run in full.
        Regression for the semi-naive engine's fixpoint loop."""
        schema = Schema("dn")
        schema.add_relation("Seed", [("id", "int")])
        schema.add_relation("Base", [("id", "int")])
        schema.add_relation("Link", [("src", "int"), ("dst", "int")])
        program = ViewProgram(schema)
        program.define(Atom("V", (x,)), Conjunction(atoms=(Atom("Seed", (x,)),)))
        program.define(
            Atom("V", (x,)),
            Conjunction(
                atoms=(Atom("Base", (x,)),),
                negations=(
                    NegatedConjunction(
                        Conjunction(
                            negations=(
                                NegatedConjunction(
                                    Conjunction(atoms=(Atom("V2", (x,)),))
                                ),
                            )
                        )
                    ),
                ),
            ),
        )
        program.define(
            Atom("V2", (x,)),
            Conjunction(atoms=(Atom("V", (y,)), Atom("Link", (y, x)))),
        )
        instance = Instance(schema)
        instance.add_row("Seed", 1)
        instance.add_row("Link", 1, 2)
        instance.add_row("Link", 2, 3)
        instance.add_row("Base", 2)
        instance.add_row("Base", 3)
        fast = materialize(program, instance)
        slow = materialize_naive(program, instance)
        assert fast == slow
        # The chain needs two trips around the V -> V2 -> V cycle.
        assert {f.terms[0].value for f in fast.facts("V")} == {1, 2, 3}

    def test_negation_over_lower_recursive_stratum(self, edge_schema):
        """Unreachable = nodes with no incoming path from node 0."""
        program = tc_program(edge_schema)
        program.define(
            Atom("Unreachable", (x,)),
            Conjunction(
                atoms=(Atom("Node", (x,)),),
                negations=(
                    NegatedConjunction(
                        Conjunction(atoms=(Atom("TC", (Constant(0), x)),))
                    ),
                ),
            ),
        )
        instance = chain_instance(edge_schema, 3)
        instance.add_row("Edge", 10, 11)  # disconnected component
        for node in (1, 2, 3, 10, 11):
            instance.add_row("Node", node)
        extent = materialize(program, instance).facts("Unreachable")
        assert {f.terms[0].value for f in extent} == {10, 11}


class TestStratifiedComponents:
    def test_singleton_components_in_dependency_order(self, edge_schema):
        program = ViewProgram(edge_schema)
        program.define(Atom("V1", (x,)), Conjunction(atoms=(Atom("Node", (x,)),)))
        program.define(Atom("V2", (x,)), Conjunction(atoms=(Atom("V1", (x,)),)))
        components = stratified_components(program)
        assert components.index(["V1"]) < components.index(["V2"])

    def test_recursive_group_is_one_component(self, edge_schema):
        program = tc_program(edge_schema)
        program.define(Atom("V", (x,)), Conjunction(atoms=(Atom("TC", (x, y)),)))
        components = stratified_components(program)
        assert ["TC"] in components
        assert components.index(["TC"]) < components.index(["V"])

    def test_negative_cycle_rejected(self, edge_schema):
        program = ViewProgram(edge_schema)
        program.define(
            Atom("A", (x,)),
            Conjunction(
                atoms=(Atom("Node", (x,)),),
                negations=(
                    NegatedConjunction(Conjunction(atoms=(Atom("B", (x,)),))),
                ),
            ),
        )
        program.define(Atom("B", (x,)), Conjunction(atoms=(Atom("A", (x,)),)))
        with pytest.raises(RecursionError_):
            stratified_components(program)


# ---------------------------------------------------------------------------
# The incremental semantic database
# ---------------------------------------------------------------------------


class TestSemanticDatabase:
    def test_incremental_extension_matches_from_scratch(self, edge_schema):
        program = tc_program(edge_schema)
        database = SemanticDatabase(program, base=chain_instance(edge_schema, 3))
        database.add_fact(Atom("Edge", (c(3), c(4))))
        database.add_fact(Atom("Edge", (c(4), c(5))))
        database.refresh()
        scratch = materialize(program, chain_instance(edge_schema, 5))
        assert database.instance.facts("TC") == scratch.facts("TC")

    def test_refresh_is_lazy_and_idempotent(self, edge_schema):
        program = tc_program(edge_schema)
        database = SemanticDatabase(program, base=chain_instance(edge_schema, 3))
        before = database.instance.version
        database.refresh()
        database.refresh()
        assert database.instance.version == before

    def test_incremental_delta_is_cheaper_than_rebuild(self, edge_schema):
        """The semi-naive contract: one appended edge must not re-derive
        the whole closure (additions are counted via the version)."""
        program = tc_program(edge_schema)
        database = SemanticDatabase(program, base=chain_instance(edge_schema, 30))
        closure_size = database.instance.size("TC")
        database.add_fact(Atom("Edge", (c(100), c(101))))
        database.refresh()
        assert database.instance.size("TC") == closure_size + 1

    def test_negation_affected_stratum_is_rebuilt(self, edge_schema):
        program = ViewProgram(edge_schema)
        program.define(
            Atom("Isolated", (x,)),
            Conjunction(
                atoms=(Atom("Node", (x,)),),
                negations=(
                    NegatedConjunction(Conjunction(atoms=(Atom("Edge", (x, y)),))),
                ),
            ),
        )
        instance = Instance(edge_schema)
        instance.add_row("Node", 1)
        instance.add_row("Node", 2)
        database = SemanticDatabase(program, base=instance)
        assert {f.terms[0].value for f in database.instance.facts("Isolated")} == {1, 2}
        # An inserted edge *removes* node 1 from the extent: insertion is
        # non-monotone through negation, so the stratum must rebuild.
        database.add_fact(Atom("Edge", (c(1), c(9))))
        database.refresh()
        assert {f.terms[0].value for f in database.instance.facts("Isolated")} == {2}

    def test_seeded_view_facts_survive_rebuilds(self, edge_schema):
        program = ViewProgram(edge_schema)
        program.define(
            Atom("Flagged", (x,)),
            Conjunction(
                atoms=(Atom("Node", (x,)),),
                negations=(
                    NegatedConjunction(Conjunction(atoms=(Atom("Edge", (x, y)),))),
                ),
            ),
        )
        instance = Instance()
        instance.add_row("Node", 1)
        instance.add_row("Flagged", 99)  # caller-asserted view fact
        database = SemanticDatabase(program, base=instance)
        database.add_fact(Atom("Edge", (c(1), c(2))))  # forces a rebuild
        database.refresh()
        values = {f.terms[0].value for f in database.instance.facts("Flagged")}
        assert values == {99}

    def test_constant_rule_fires_without_body(self, edge_schema):
        program = ViewProgram(edge_schema)
        program.define(Atom("Marker", (Constant("v1"),)), Conjunction())
        database = SemanticDatabase(program, base=Instance())
        assert database.instance.facts("Marker") == frozenset(
            {Atom("Marker", (Constant("v1"),))}
        )
