"""Tests for weak acyclicity and universal-solution utilities."""


from repro.analysis.termination import (
    is_weakly_acyclic,
    position_graph,
    weak_acyclicity_report,
)
from repro.chase.universal import core_of, is_universal_for, satisfies, violations
from repro.logic.atoms import Atom, Conjunction, Equality
from repro.logic.dependencies import Disjunct, ded, egd, tgd
from repro.logic.terms import Constant, Null, Variable
from repro.relational.instance import Instance

x, y, z = Variable("x"), Variable("y"), Variable("z")


def c(v):
    return Constant(v)


class TestWeakAcyclicity:
    def test_copy_tgd_is_weakly_acyclic(self):
        dependency = tgd(
            Conjunction(atoms=(Atom("S", (x, y)),)), (Atom("T", (x, y)),)
        )
        assert is_weakly_acyclic([dependency])

    def test_self_growing_tgd_is_not(self):
        grow = tgd(
            Conjunction(atoms=(Atom("T", (x, y)),)), (Atom("T", (y, z)),)
        )
        assert not is_weakly_acyclic([grow])
        ok, culprits = weak_acyclicity_report([grow])
        assert not ok and culprits

    def test_regular_cycle_alone_is_fine(self):
        # T(x, y) -> T(y, x): cycles, but with no existential edge.
        flip = tgd(Conjunction(atoms=(Atom("T", (x, y)),)), (Atom("T", (y, x)),))
        assert is_weakly_acyclic([flip])

    def test_two_step_special_cycle(self):
        first = tgd(Conjunction(atoms=(Atom("A", (x,)),)), (Atom("B", (x, z)),))
        second = tgd(Conjunction(atoms=(Atom("B", (x, y)),)), (Atom("A", (y,)),))
        assert not is_weakly_acyclic([first, second])

    def test_ded_branches_each_count(self):
        dependency = ded(
            Conjunction(atoms=(Atom("T", (x, y)),)),
            (
                Disjunct(atoms=(Atom("U", (x,)),)),
                Disjunct(atoms=(Atom("T", (y, z)),)),  # the bad branch
            ),
        )
        assert not is_weakly_acyclic([dependency])

    def test_egds_and_denials_do_not_affect(self):
        key = egd(
            Conjunction(atoms=(Atom("T", (x, y)), Atom("T", (x, z)))),
            (Equality(y, z),),
        )
        assert is_weakly_acyclic([key])

    def test_rewritten_running_example_weakly_acyclic(self, rewritten):
        assert is_weakly_acyclic(rewritten.dependencies)

    def test_position_graph_edges(self):
        dependency = tgd(
            Conjunction(atoms=(Atom("S", (x,)),)), (Atom("T", (x, z)),)
        )
        graph = position_graph([dependency])
        assert (("S", 0), ("T", 0)) in graph.regular
        assert (("S", 0), ("T", 1)) in graph.special


class TestSatisfaction:
    def test_satisfies_and_violations(self):
        dependency = tgd(
            Conjunction(atoms=(Atom("S", (x,)),)), (Atom("T", (x,)),)
        )
        instance = Instance()
        instance.add_row("S", 1)
        assert not satisfies([dependency], instance)
        found = violations([dependency], instance)
        assert len(found) == 1
        instance.add_row("T", 1)
        assert satisfies([dependency], instance)

    def test_violations_limit(self):
        dependency = tgd(
            Conjunction(atoms=(Atom("S", (x,)),)), (Atom("T", (x,)),)
        )
        instance = Instance()
        for i in range(20):
            instance.add_row("S", i)
        assert len(violations([dependency], instance, limit=5)) == 5

    def test_egd_violation_detected(self):
        key = egd(
            Conjunction(atoms=(Atom("T", (x, y)), Atom("T", (x, z)))),
            (Equality(y, z),),
        )
        instance = Instance()
        instance.add_row("T", 1, 10)
        instance.add_row("T", 1, 20)
        assert not satisfies([key], instance)

    def test_denial_violation_detected(self):
        from repro.logic.dependencies import denial

        block = denial(Conjunction(atoms=(Atom("T", (x, x)),)))
        instance = Instance()
        instance.add_row("T", 2, 2)
        assert not satisfies([block], instance)

    def test_nulls_satisfy_via_homomorphic_extension(self):
        dependency = tgd(
            Conjunction(atoms=(Atom("S", (x,)),)), (Atom("T", (x, z)),)
        )
        instance = Instance()
        instance.add_row("S", 1)
        instance.add(Atom("T", (c(1), Null(5))))
        assert satisfies([dependency], instance)


class TestUniversality:
    def test_null_solution_universal_for_ground_ones(self):
        universal = Instance()
        universal.add(Atom("T", (c(1), Null(1))))
        specific = Instance()
        specific.add(Atom("T", (c(1), c(42))))
        assert is_universal_for(universal, [specific])
        assert not is_universal_for(specific, [universal])


class TestCore:
    def test_core_removes_redundant_null_fact(self):
        instance = Instance()
        instance.add(Atom("T", (c(1), c(2))))
        instance.add(Atom("T", (c(1), Null(1))))  # folds onto the ground fact
        core = core_of(instance)
        assert len(core) == 1
        assert Atom("T", (c(1), c(2))) in core

    def test_core_keeps_necessary_nulls(self):
        instance = Instance()
        instance.add(Atom("T", (c(1), Null(1))))
        core = core_of(instance)
        assert len(core) == 1

    def test_core_of_ground_instance_is_identity(self):
        instance = Instance()
        instance.add_row("T", 1, 2)
        instance.add_row("T", 3, 4)
        assert core_of(instance) == instance

    def test_core_folds_chains(self):
        # T(1, n1), T(n1, n2) with also T(1, 1): everything folds onto T(1,1).
        instance = Instance()
        instance.add(Atom("T", (c(1), c(1))))
        instance.add(Atom("T", (c(1), Null(1))))
        instance.add(Atom("T", (Null(1), Null(2))))
        core = core_of(instance)
        assert len(core) == 1

    def test_core_is_homomorphically_equivalent(self):
        from repro.logic.homomorphism import homomorphically_equivalent

        instance = Instance()
        instance.add(Atom("T", (c(1), Null(1))))
        instance.add(Atom("T", (c(1), Null(2))))
        instance.add(Atom("U", (Null(2),)))
        core = core_of(instance)
        assert homomorphically_equivalent(list(instance), list(core))
        assert len(core) == 2
