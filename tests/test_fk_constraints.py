"""Tests for tgd-style target constraints: the paper's footnote 1.

"Previous papers [9] discuss how to handle foreign-key constraints as
well" — inclusion dependencies over the semantic schema.  A constraint
``SoldAt(pid, stid) → Store(stid, n, a)`` has a view premise *and* a
view conclusion; the rewriter must unfold both.
"""


from repro.core.analysis import predict_deds
from repro.core.rewriter import rewrite
from repro.core.scenario import MappingScenario
from repro.datalog.program import ViewProgram
from repro.logic.atoms import Atom, Conjunction, NegatedConjunction
from repro.logic.dependencies import DependencyKind, tgd
from repro.logic.terms import Variable
from repro.pipeline import run_scenario
from repro.relational.schema import Schema
from repro.scenarios.running_example import (
    build_scenario,
    generate_source_instance,
)

x, y, z = Variable("x"), Variable("y"), Variable("z")


class TestRunningExampleForeignKey:
    def test_fk_accepted_by_scenario(self):
        scenario = build_scenario(include_fk=True)
        assert "fk0" in scenario.constraint_names()

    def test_fk_rewrites_to_physical_tgd(self):
        scenario = build_scenario(include_key=False, include_fk=True)
        result = rewrite(scenario)
        assert not result.has_deds
        fk = next(d for d in result.dependencies if d.name.startswith("fk0"))
        assert fk.kind is DependencyKind.TGD
        # Premise: SoldAt unfolds to T_Product; conclusion: Store unfolds
        # to T_Store with existential address/phone.
        assert [a.relation for a in fk.premise.atoms] == ["T_Product"]
        assert [a.relation for a in fk.disjuncts[0].atoms] == ["T_Store"]
        existentials = fk.existential_variables(fk.disjuncts[0])
        assert len(existentials) == 3  # name, address, phone invented

    def test_fk_chases_and_verifies(self):
        scenario = build_scenario(include_fk=True)
        source = generate_source_instance(products=12, seed=6)
        outcome = run_scenario(scenario, source)
        assert outcome.ok
        assert outcome.verification is not None and outcome.verification.ok
        # Every T_Product store id now has a T_Store row.
        store_ids = {f.terms[0] for f in outcome.target.facts("T_Store")}
        for product in outcome.target.facts("T_Product"):
            assert product.terms[2] in store_ids

    def test_fk_prediction_no_deds(self):
        scenario = build_scenario(include_key=False, include_fk=True)
        prediction = predict_deds(scenario)
        assert not prediction.may_have_deds


class TestTgdConstraintVariants:
    def make(self, constraint_views, constraints):
        source_schema = Schema("src")
        source_schema.add_relation("S", [("a", "int")])
        target_schema = Schema("tgt")
        target_schema.add_relation("T", [("a", "int"), ("b", "int")])
        target_schema.add_relation("W", [("a", "int")])
        program = ViewProgram(target_schema)
        for head, body in constraint_views:
            program.define(head, body)
        mapping = tgd(
            Conjunction(atoms=(Atom("S", (x,)),)), (Atom("T", (x, x)),), name="m"
        )
        return MappingScenario(
            source_schema,
            target_schema,
            [mapping],
            target_views=program,
            target_constraints=constraints,
        )

    def test_union_view_in_constraint_conclusion_gives_ded(self):
        views = [
            (Atom("U", (x,)), Conjunction(atoms=(Atom("T", (x, y)),))),
            (Atom("U", (x,)), Conjunction(atoms=(Atom("W", (x,)),))),
        ]
        fk = tgd(
            Conjunction(atoms=(Atom("T", (x, y)),)), (Atom("U", (x,)),), name="fk"
        )
        scenario = self.make(views, [fk])
        result = rewrite(scenario)
        assert result.has_deds
        assert len(result.deds()[0].disjuncts) == 2
        assert predict_deds(scenario).may_have_deds

    def test_negated_view_in_constraint_conclusion_gives_denial(self):
        views = [
            (
                Atom("V", (x,)),
                Conjunction(
                    atoms=(Atom("T", (x, y)),),
                    negations=(
                        NegatedConjunction(Conjunction(atoms=(Atom("W", (x,)),))),
                    ),
                ),
            ),
        ]
        fk = tgd(
            Conjunction(atoms=(Atom("W", (x,)),)), (Atom("V", (x,)),), name="fk"
        )
        scenario = self.make(views, [fk])
        result = rewrite(scenario)
        assert not result.has_deds
        denials = result.denials()
        assert len(denials) == 1
        # The companion forbids W(x) in the enforced context... which is
        # also the constraint's own premise: the scenario demands
        # V-membership for W-members whose view excludes W-members.
        relations = [a.relation for a in denials[0].premise.atoms]
        assert relations.count("W") >= 1

    def test_mixed_constraint_supported(self):
        from repro.logic.atoms import Equality
        from repro.logic.dependencies import Dependency, Disjunct

        constraint = Dependency(
            Conjunction(atoms=(Atom("T", (x, y)), Atom("T", (x, z)))),
            (Disjunct(atoms=(Atom("W", (x,)),), equalities=(Equality(y, z),)),),
            "mx",
        )
        scenario = self.make([], [constraint])
        result = rewrite(scenario)
        assert len(result.dependencies) == 2  # mapping + constraint
        mixed = next(d for d in result.dependencies if d.name == "mx")
        assert mixed.kind is DependencyKind.MIXED

    def test_fk_chain_through_views_terminates(self):
        """An inclusion dependency whose conclusion re-feeds its own
        premise view is not weakly acyclic; the chase budget catches it."""
        from repro.chase.engine import ChaseConfig
        from repro.analysis.termination import is_weakly_acyclic
        from repro.relational.instance import Instance

        views = [
            (Atom("V", (x,)), Conjunction(atoms=(Atom("T", (x, y)),))),
        ]
        fk = tgd(
            Conjunction(atoms=(Atom("T", (x, y)),)), (Atom("V", (y,)),), name="fk"
        )
        scenario = self.make(views, [fk])
        result = rewrite(scenario)
        assert not is_weakly_acyclic(result.dependencies)
        source = Instance()
        source.add_row("S", 1)
        outcome = run_scenario(
            scenario, source, config=ChaseConfig(max_rounds=20), verify=False
        )
        # Either the chase finds a fixpoint via null reuse or the budget
        # trips; it must not loop forever.
        assert outcome.chase.status is not None
