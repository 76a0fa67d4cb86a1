"""Tests for the standard chase: tgds, egds, denials, mixed, policies."""

from pathlib import Path

import pytest

from repro.chase.engine import ChaseConfig, StandardChase, chase
from repro.chase.result import ChaseStatus
from repro.errors import ChaseError
from repro.logic.atoms import (
    Atom,
    Comparison,
    Conjunction,
    Equality,
    NegatedConjunction,
)
from repro.logic.dependencies import Dependency, Disjunct, ded, denial, egd, tgd
from repro.logic.terms import Constant, Null, Variable
from repro.relational.instance import Instance

x, y, z = Variable("x"), Variable("y"), Variable("z")

REPO_ROOT = str(Path(__file__).resolve().parent.parent)


def c(v):
    return Constant(v)


def instance_with(*facts):
    instance = Instance()
    for relation, *values in facts:
        instance.add_row(relation, *values)
    return instance


class TestTgdChase:
    def test_simple_copy(self):
        dependency = tgd(
            Conjunction(atoms=(Atom("S", (x, y)),)), (Atom("T", (x, y)),)
        )
        result = chase([dependency], instance_with(("S", 1, 2)), ["S"])
        assert result.ok
        assert result.target.facts("T") == frozenset({Atom("T", (c(1), c(2)))})

    def test_existential_invents_null(self):
        dependency = tgd(Conjunction(atoms=(Atom("S", (x,)),)), (Atom("T", (x, z)),))
        result = chase([dependency], instance_with(("S", 1)), ["S"])
        fact = next(iter(result.target.facts("T")))
        assert fact.terms[0] == c(1)
        assert isinstance(fact.terms[1], Null)
        assert result.stats.nulls_created == 1

    def test_restricted_does_not_refire_satisfied(self):
        dependency = tgd(
            Conjunction(atoms=(Atom("S", (x,)),)), (Atom("T", (x, z)),)
        )
        source = instance_with(("S", 1))
        source.add_row("T", 1, 99)
        result = chase([dependency], source, ["S"])
        assert result.ok
        # T(1, 99) already witnesses the conclusion: nothing new.
        assert result.target.size("T") == 1
        assert result.stats.tgd_fires == 0

    def test_oblivious_fires_regardless(self):
        dependency = tgd(
            Conjunction(atoms=(Atom("S", (x,)),)), (Atom("T", (x, z)),)
        )
        source = instance_with(("S", 1))
        source.add_row("T", 1, 99)
        result = chase(
            [dependency], source, ["S"], config=ChaseConfig(policy="oblivious")
        )
        assert result.target.size("T") == 2
        # ... but only once per trigger.
        assert result.stats.tgd_fires == 1

    def test_cascading_tgds(self):
        first = tgd(Conjunction(atoms=(Atom("S", (x,)),)), (Atom("A", (x,)),))
        second = tgd(Conjunction(atoms=(Atom("A", (x,)),)), (Atom("B", (x,)),))
        result = chase([second, first], instance_with(("S", 1)), ["S"])
        assert result.target.size("B") == 1
        assert result.stats.rounds >= 2

    def test_join_premise(self):
        dependency = tgd(
            Conjunction(atoms=(Atom("S", (x, y)), Atom("S", (y, z)))),
            (Atom("T", (x, z)),),
        )
        result = chase(
            [dependency], instance_with(("S", 1, 2), ("S", 2, 3)), ["S"]
        )
        assert result.target.facts("T") == frozenset({Atom("T", (c(1), c(3)))})

    def test_multi_atom_conclusion_shares_nulls(self):
        dependency = tgd(
            Conjunction(atoms=(Atom("S", (x,)),)),
            (Atom("T", (x, z)), Atom("U", (z,))),
        )
        result = chase([dependency], instance_with(("S", 1)), ["S"])
        t_fact = next(iter(result.target.facts("T")))
        u_fact = next(iter(result.target.facts("U")))
        assert t_fact.terms[1] == u_fact.terms[0]

    def test_source_relations_excluded_from_target(self):
        dependency = tgd(Conjunction(atoms=(Atom("S", (x,)),)), (Atom("T", (x,)),))
        result = chase([dependency], instance_with(("S", 1)), ["S"])
        assert result.target.size("S") == 0


class TestEgdChase:
    def test_null_unified_with_constant(self):
        make = tgd(Conjunction(atoms=(Atom("S", (x,)),)), (Atom("T", (x, z)),))
        key = egd(
            Conjunction(atoms=(Atom("T", (x, y)), Atom("T", (x, z)))),
            (Equality(y, z),),
        )
        copy = tgd(
            Conjunction(atoms=(Atom("S2", (x, y)),)), (Atom("T", (x, y)),)
        )
        source = instance_with(("S", 1), ("S2", 1, 42))
        result = chase([make, copy, key], source, ["S", "S2"])
        assert result.ok
        assert result.target.facts("T") == frozenset({Atom("T", (c(1), c(42)))})
        assert result.stats.egd_unifications >= 1

    def test_null_null_unification(self):
        make1 = tgd(Conjunction(atoms=(Atom("S", (x,)),)), (Atom("T", (x, z)),))
        make2 = tgd(Conjunction(atoms=(Atom("S", (x,)),)), (Atom("U", (x, z)),))
        key = egd(
            Conjunction(atoms=(Atom("T", (x, y)), Atom("U", (x, z)))),
            (Equality(y, z),),
        )
        result = chase([make1, make2, key], instance_with(("S", 1)), ["S"])
        assert result.ok
        t_value = next(iter(result.target.facts("T"))).terms[1]
        u_value = next(iter(result.target.facts("U"))).terms[1]
        assert t_value == u_value

    def test_constant_clash_fails(self):
        key = egd(
            Conjunction(atoms=(Atom("T", (x, y)), Atom("T", (x, z)))),
            (Equality(y, z),),
        )
        source = Instance()
        source.add_row("T", 1, 10)
        source.add_row("T", 1, 20)
        result = chase([key], source, [])
        assert result.status is ChaseStatus.FAILURE
        assert "cannot equate" in result.failure_reason

    def test_egd_then_tgd_interaction(self):
        """Unification can make a tgd premise match where it did not."""
        make = tgd(
            Conjunction(atoms=(Atom("T", (x, c(5))),)), (Atom("Out", (x,)),)
        )
        key = egd(
            Conjunction(atoms=(Atom("T", (x, y)), Atom("Five", (x, z)))),
            (Equality(y, z),),
        )
        source = Instance()
        source.add(Atom("T", (c(1), Null(7))))
        source.add_row("Five", 1, 5)
        result = chase([make, key], source, ["Five"])
        assert result.ok
        assert result.target.size("Out") == 1


class TestDenials:
    def test_denial_fires(self):
        dependency = denial(Conjunction(atoms=(Atom("T", (x, x)),)), name="no_loop")
        source = Instance()
        source.add_row("T", 1, 1)
        result = chase([dependency], source, [])
        assert result.status is ChaseStatus.FAILURE
        assert "no_loop" in result.failure_reason

    def test_denial_quiet_when_unmatched(self):
        dependency = denial(Conjunction(atoms=(Atom("T", (x, x)),)))
        source = Instance()
        source.add_row("T", 1, 2)
        assert chase([dependency], source, []).ok


class TestDisjunctComparisons:
    def test_failing_required_comparison_fails_chase(self):
        dependency = Dependency(
            Conjunction(atoms=(Atom("S", (x, y)),)),
            (Disjunct(
                atoms=(Atom("T", (x,)),),
                comparisons=(Comparison("<", x, y),),
            ),),
            "cmp",
        )
        result = chase([dependency], instance_with(("S", 5, 1)), ["S"])
        assert result.status is ChaseStatus.FAILURE

    def test_satisfied_comparison_passes(self):
        dependency = Dependency(
            Conjunction(atoms=(Atom("S", (x, y)),)),
            (Disjunct(
                atoms=(Atom("T", (x,)),),
                comparisons=(Comparison("<", x, y),),
            ),),
            "cmp",
        )
        result = chase([dependency], instance_with(("S", 1, 5)), ["S"])
        assert result.ok
        assert result.target.size("T") == 1


class TestMixedDependencies:
    def test_equality_and_atoms_together(self):
        dependency = Dependency(
            Conjunction(atoms=(Atom("S", (x, y)),)),
            (Disjunct(atoms=(Atom("T", (x,)),), equalities=(Equality(x, y),)),),
            "mixed",
        )
        source = Instance()
        source.add(Atom("S", (c(1), Null(9))))
        result = chase([dependency], source, [])
        assert result.ok
        # Null(9) was unified with 1 and T(1) created.
        assert Atom("T", (c(1),)) in result.target


class TestGuards:
    def test_ded_without_choice_rejected(self):
        dependency = ded(
            Conjunction(atoms=(Atom("S", (x,)),)),
            (Disjunct(atoms=(Atom("T", (x,)),)), Disjunct(atoms=(Atom("U", (x,)),))),
        )
        with pytest.raises(ChaseError):
            StandardChase([dependency])

    def test_ded_with_choice_accepted(self):
        dependency = ded(
            Conjunction(atoms=(Atom("S", (x,)),)),
            (Disjunct(atoms=(Atom("T", (x,)),)), Disjunct(atoms=(Atom("U", (x,)),))),
        )
        engine = StandardChase([dependency], ["S"], branch_choice={0: 1})
        result = engine.run(instance_with(("S", 1)))
        assert result.ok
        assert result.target.size("U") == 1
        assert result.target.size("T") == 0

    def test_ded_choice_respects_satisfaction_of_other_branch(self):
        dependency = ded(
            Conjunction(atoms=(Atom("S", (x,)),)),
            (Disjunct(atoms=(Atom("T", (x,)),)), Disjunct(atoms=(Atom("U", (x,)),))),
        )
        source = instance_with(("S", 1))
        source.add_row("T", 1)  # first branch already satisfied
        engine = StandardChase([dependency], ["S"], branch_choice={0: 1})
        result = engine.run(source)
        assert result.target.size("U") == 0

    def test_target_negation_in_premise_rejected(self):
        dependency = tgd(
            Conjunction(
                atoms=(Atom("S", (x,)),),
                negations=(
                    NegatedConjunction(Conjunction(atoms=(Atom("T", (x,)),))),
                ),
            ),
            (Atom("U", (x,)),),
        )
        with pytest.raises(ChaseError):
            StandardChase([dependency], source_relations=["S"])

    def test_source_negation_in_premise_allowed(self):
        dependency = tgd(
            Conjunction(
                atoms=(Atom("S", (x,)),),
                negations=(
                    NegatedConjunction(
                        Conjunction(atoms=(Atom("S0", (x,)),))
                    ),
                ),
            ),
            (Atom("U", (x,)),),
        )
        engine = StandardChase([dependency], source_relations=["S", "S0"])
        source = instance_with(("S", 1), ("S", 2), ("S0", 2))
        result = engine.run(source)
        assert result.target.facts("U") == frozenset({Atom("U", (c(1),))})


class TestTermination:
    def test_round_budget(self):
        # x -> fresh null, repeatedly (not weakly acyclic).
        grow = tgd(Conjunction(atoms=(Atom("T", (x, y)),)), (Atom("T", (y, z)),))
        source = Instance()
        source.add_row("T", 1, 2)
        result = chase([grow], source, [], config=ChaseConfig(max_rounds=5))
        assert result.status is ChaseStatus.NONTERMINATION

    def test_fact_budget(self):
        grow = tgd(Conjunction(atoms=(Atom("T", (x, y)),)), (Atom("T", (y, z)),))
        source = Instance()
        source.add_row("T", 1, 2)
        result = chase(
            [grow], source, [], config=ChaseConfig(max_facts=10, max_rounds=10_000)
        )
        assert result.status is ChaseStatus.NONTERMINATION


class TestPreexistingTarget:
    def test_target_instance_merged(self):
        dependency = tgd(
            Conjunction(atoms=(Atom("S", (x,)),)), (Atom("T", (x, z)),)
        )
        target = Instance()
        target.add_row("T", 1, 42)
        result = StandardChase([dependency], ["S"]).run(
            instance_with(("S", 1)), target_instance=target
        )
        assert result.ok
        assert result.target.size("T") == 1  # satisfied by preexisting fact


class TestTriggerMemory:
    """Oblivious-policy trigger dedup must not grow without bound."""

    def make_memory(self, limit):
        from repro.chase.engine import _TriggerMemory

        return _TriggerMemory(limit)

    def test_exact_below_limit(self):
        memory = self.make_memory(100)
        triggers = [(0, (c(i),)) for i in range(50)]
        for trigger in triggers:
            assert trigger not in memory
            memory.add(trigger)
        assert all(trigger in memory for trigger in triggers)
        assert memory.exact_size == 50
        assert memory.spilled == 0

    def test_memory_growth_is_bounded_past_the_limit(self):
        """Regression: 50k triggers through a limit of 1k must cap the
        exact tier and park the rest in the fixed-size Bloom filter."""
        memory = self.make_memory(1_000)
        for i in range(50_000):
            memory.add((0, (c(i),)))
        assert memory.exact_size <= 1_000
        assert memory.spilled == 49_000
        # Exact tuples plus the (fixed) Bloom bits: bounded regardless
        # of how many more triggers arrive.
        ceiling = memory.approximate_bytes
        for i in range(50_000, 60_000):
            memory.add((0, (c(i),)))
        assert memory.approximate_bytes == ceiling

    def test_no_false_negatives_after_spilling(self):
        memory = self.make_memory(10)
        triggers = [(1, (c(i), c(i + 1))) for i in range(5_000)]
        for trigger in triggers:
            memory.add(trigger)
        # Every fired trigger is still found: a trigger never fires twice.
        assert all(trigger in memory for trigger in triggers)

    def test_oblivious_chase_uses_bounded_memory(self):
        """A long oblivious run keeps its exact tier at the config cap."""
        dependency = tgd(
            Conjunction(atoms=(Atom("S", (x,)),)), (Atom("T", (x, z)),)
        )
        source = Instance()
        for i in range(200):
            source.add_row("S", i)
        engine = StandardChase(
            [dependency],
            ["S"],
            config=ChaseConfig(policy="oblivious", oblivious_trigger_limit=50),
        )
        result = engine.run(source)
        assert result.ok
        assert result.target.size("T") == 200  # every trigger fired once
        assert engine._trigger_memory.exact_size <= 50
        assert engine._trigger_memory.spilled >= 150

    def test_restricted_policy_unaffected_by_tiny_limit(self):
        dependency = tgd(
            Conjunction(atoms=(Atom("S", (x,)),)), (Atom("T", (x, z)),)
        )
        source = instance_with(*[("S", i) for i in range(40)])
        result = chase(
            [dependency], source, ["S"],
            config=ChaseConfig(oblivious_trigger_limit=0),
        )
        assert result.ok and result.target.size("T") == 40


class TestStableBloomProbes:
    def test_probes_independent_of_hash_randomization(self):
        # Which triggers collide in the Bloom spill must be identical
        # across interpreter runs, or two oblivious chases of the same
        # input could diverge once spilling starts.
        import subprocess
        import sys

        snippet = (
            "import sys; sys.path.insert(0, 'src');"
            "from repro.chase.engine import _TriggerMemory;"
            "from repro.logic.terms import Constant, Null;"
            "t = (3, (Constant('abc'), Null(7, 'hint'), Constant(42)));"
            "m = _TriggerMemory(0);"
            "print(m._probes(t))"
        )
        outputs = {
            subprocess.run(
                [sys.executable, "-c", snippet],
                env={"PYTHONHASHSEED": seed, "PATH": ""},
                cwd=REPO_ROOT,
                capture_output=True,
                text=True,
                check=True,
            ).stdout
            for seed in ("0", "12345")
        }
        assert len(outputs) == 1

    def test_null_hint_excluded_like_equality(self):
        from repro.chase.engine import _TriggerMemory
        from repro.logic.terms import Null

        with_hint = (0, (Null(5, "a"),))
        other_hint = (0, (Null(5, "b"),))
        assert _TriggerMemory._stable_digest(with_hint) == (
            _TriggerMemory._stable_digest(other_hint)
        )
