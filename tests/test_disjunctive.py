"""Tests for the full disjunctive chase (universal model sets)."""

import pytest

from repro.chase.disjunctive import DisjunctiveChase, disjunctive_chase
from repro.chase.universal import satisfies
from repro.core.rewriter import rewrite
from repro.logic.atoms import Atom, Conjunction, Equality
from repro.logic.dependencies import Disjunct, ded, denial, tgd
from repro.logic.terms import Constant, Variable
from repro.relational.instance import Instance
from repro.runtime.fingerprint import fingerprint_instance
from repro.scenarios.generators import (
    flagged_instance,
    flagged_scenario,
    partition_case,
)

from corpus import (
    ded_sweep_dependencies,
    ded_sweep_instance,
    ded_sweep_relations,
)
from kernel_oracle import OracleDisjunctiveChase, oracle_kernel

x, y = Variable("x"), Variable("y")


def c(v):
    return Constant(v)


def choice_ded(name="d"):
    """S(x) -> A(x) | B(x): both branches always applicable."""
    return ded(
        Conjunction(atoms=(Atom("S", (x,)),)),
        (Disjunct(atoms=(Atom("A", (x,)),)), Disjunct(atoms=(Atom("B", (x,)),))),
        name=name,
    )


class TestModelSets:
    def test_single_firing_two_models(self):
        source = Instance()
        source.add_row("S", 1)
        result = disjunctive_chase([choice_ded()], source, ["S"])
        assert result.satisfiable
        assert len(result.models) == 2
        relations = {tuple(sorted(m.relations())) for m in result.models}
        assert relations == {("A",), ("B",)}

    def test_exponential_growth_in_firings(self):
        sizes = {}
        for n in (1, 2, 3, 4):
            source = Instance()
            for i in range(n):
                source.add_row("S", i)
            result = disjunctive_chase([choice_ded()], source, ["S"])
            sizes[n] = len(result.models)
        assert sizes == {1: 2, 2: 4, 3: 8, 4: 16}

    def test_branch_pruned_by_denial(self):
        block_a = denial(Conjunction(atoms=(Atom("A", (x,)),)), name="no_a")
        source = Instance()
        source.add_row("S", 1)
        result = disjunctive_chase([choice_ded(), block_a], source, ["S"])
        assert len(result.models) == 1
        assert result.models[0].size("B") == 1
        assert result.failures >= 1

    def test_unsatisfiable_when_all_branches_blocked(self):
        block_a = denial(Conjunction(atoms=(Atom("A", (x,)),)), name="no_a")
        block_b = denial(Conjunction(atoms=(Atom("B", (x,)),)), name="no_b")
        source = Instance()
        source.add_row("S", 1)
        result = disjunctive_chase([choice_ded(), block_a, block_b], source, ["S"])
        assert not result.satisfiable
        assert result.models == []

    def test_equality_branch_with_constants_prunes_itself(self):
        dependency = ded(
            Conjunction(atoms=(Atom("S", (x, y)),)),
            (
                Disjunct(equalities=(Equality(x, y),)),
                Disjunct(atoms=(Atom("A", (x,)),)),
            ),
            name="d",
        )
        source = Instance()
        source.add_row("S", 1, 2)
        result = disjunctive_chase([dependency], source, ["S"])
        # The equality branch is inapplicable on distinct constants.
        assert len(result.models) == 1
        assert result.models[0].size("A") == 1

    def test_first_only_stops_early(self):
        source = Instance()
        for i in range(4):
            source.add_row("S", i)
        result = disjunctive_chase(
            [choice_ded()], source, ["S"], first_only=True
        )
        assert len(result.models) == 1
        assert result.leaves == 1

    def test_max_leaves_truncation(self):
        source = Instance()
        for i in range(6):
            source.add_row("S", i)
        result = disjunctive_chase(
            [choice_ded()], source, ["S"], max_leaves=5
        )
        assert result.truncated
        assert result.leaves <= 5

    def test_every_model_satisfies_dependencies(self):
        dependencies = [
            tgd(Conjunction(atoms=(Atom("S", (x,)),)), (Atom("T", (x,)),)),
            choice_ded(),
        ]
        source = Instance()
        source.add_row("S", 1)
        source.add_row("S", 2)
        result = disjunctive_chase(dependencies, source, ["S"])
        for model in result.models:
            working = Instance()
            for fact in source:
                working.add(fact)
            for fact in model:
                working.add(fact)
            assert satisfies(dependencies, working)

    def test_minimize_drops_dominated_models(self):
        # S(x) -> A(x) | A(x), B(x):  the A-only model subsumes the other.
        dependency = ded(
            Conjunction(atoms=(Atom("S", (x,)),)),
            (
                Disjunct(atoms=(Atom("A", (x,)),)),
                Disjunct(atoms=(Atom("A", (x,)), Atom("B", (x,)))),
            ),
            name="d",
        )
        source = Instance()
        source.add_row("S", 1)
        full = disjunctive_chase([dependency], source, ["S"])
        # The A|B branch check: A-branch satisfied -> second never fires...
        # force distinct shapes with fresh instance per run:
        assert len(full.models) >= 1
        minimized = disjunctive_chase([dependency], source, ["S"], minimize=True)
        assert len(minimized.models) <= len(full.models)


class TestGreedyVsExhaustiveAgreement:
    def test_satisfiability_agreement_on_running_example(self, rewritten):
        from repro.chase.ded import GreedyDedChase
        from repro.scenarios.running_example import generate_source_instance

        for conflicts, expected in ((0, True), (1, False)):
            source = generate_source_instance(
                products=4, seed=5, popular_name_conflicts=conflicts
            )
            greedy = GreedyDedChase(
                rewritten.dependencies, rewritten.source_relations()
            ).run(source)
            exhaustive = disjunctive_chase(
                rewritten.dependencies, source, rewritten.source_relations()
            )
            assert exhaustive.satisfiable is expected
            assert greedy.ok is expected


class TestExhaustiveChaseAcrossKernels:
    """The exhaustive disjunctive chase explores the same tree, in the
    same order, whether its per-node chases run on the columnar engine
    or on the set-based oracle of ``tests/kernel_oracle.py``."""

    @staticmethod
    def _on_oracle(*args, **kwargs):
        """A disjunctive chase built — and so chasing — on the oracle."""
        with oracle_kernel():
            return DisjunctiveChase(*args, **kwargs)

    def _ded_setup(self):
        return (
            list(ded_sweep_dependencies(deds=2, insert_branches=2)),
            ded_sweep_relations(deds=2),
            ded_sweep_instance(deds=2),
        )

    def test_model_set_identical(self):
        deps, relations, instance = self._ded_setup()
        columnar = DisjunctiveChase(deps, relations).run(instance)
        oracle = self._on_oracle(deps, relations).run(instance)
        assert columnar.satisfiable
        assert len(columnar.models) == len(oracle.models)
        for left, right in zip(columnar.models, oracle.models):
            assert left == right  # bit-identical, including null ids
            assert fingerprint_instance(left) == fingerprint_instance(right)
        assert (columnar.leaves, columnar.failures, columnar.branchings) == (
            oracle.leaves, oracle.failures, oracle.branchings
        )

    def test_first_only_identical(self):
        deps, relations, instance = self._ded_setup()
        columnar = DisjunctiveChase(deps, relations).run(
            instance, first_only=True
        )
        oracle = self._on_oracle(deps, relations).run(
            instance, first_only=True
        )
        assert columnar.models and columnar.models == oracle.models
        assert columnar.leaves == oracle.leaves

    def test_truncation_identical(self):
        deps, relations, instance = self._ded_setup()
        columnar = DisjunctiveChase(deps, relations, max_leaves=3).run(
            instance
        )
        oracle = self._on_oracle(deps, relations, max_leaves=3).run(instance)
        assert columnar.truncated and oracle.truncated
        assert columnar.leaves == oracle.leaves == 3
        assert columnar.models == oracle.models

    def test_minimize_identical(self):
        deps, relations, instance = self._ded_setup()
        columnar = DisjunctiveChase(deps, relations).run(
            instance, minimize=True
        )
        oracle = self._on_oracle(deps, relations).run(
            instance, minimize=True
        )
        assert columnar.models == oracle.models


# -- the decoded oracle ---------------------------------------------------------


def _source(**rows):
    source = Instance()
    for relation, values in rows.items():
        for value in values:
            source.add_row(relation, *value)
    return source


def _unit_cases():
    """The hand-written shapes of this file, as (dependencies, source
    relations, instance)."""
    block_a = denial(Conjunction(atoms=(Atom("A", (x,)),)), name="no_a")
    block_b = denial(Conjunction(atoms=(Atom("B", (x,)),)), name="no_b")
    equality_or_atom = ded(
        Conjunction(atoms=(Atom("S", (x, y)),)),
        (Disjunct(equalities=(Equality(x, y),)), Disjunct(atoms=(Atom("A", (x,)),))),
        name="d",
    )
    dominated = ded(
        Conjunction(atoms=(Atom("S", (x,)),)),
        (
            Disjunct(atoms=(Atom("A", (x,)),)),
            Disjunct(atoms=(Atom("A", (x,)), Atom("B", (x,)))),
        ),
        name="d",
    )
    copy = tgd(Conjunction(atoms=(Atom("S", (x,)),)), (Atom("T", (x,)),))
    # An invented null, then a ded whose equality branch unifies it with
    # a constant: the null sits on the left of one equality and on the
    # right of the other.
    invent = tgd(Conjunction(atoms=(Atom("S", (x,)),)), (Atom("T", (x, y)),))
    null_left, null_right = (
        ded(
            Conjunction(atoms=(Atom("T", (x, y)),)),
            (Disjunct(equalities=(equality,)), Disjunct(atoms=(Atom("B", (x,)),))),
            name="d",
        )
        for equality in (Equality(y, x), Equality(x, y))
    )
    ones = [(i,) for i in range(4)]
    return {
        "choice-4": ([choice_ded()], ["S"], _source(S=ones)),
        "denial-pruned": ([choice_ded(), block_a], ["S"], _source(S=ones[:2])),
        "all-blocked": ([choice_ded(), block_a, block_b], ["S"], _source(S=ones[:1])),
        "equality-or-atom": (
            [equality_or_atom], ["S"], _source(S=[(1, 2), (3, 3)])
        ),
        "dominated": ([dominated], ["S"], _source(S=ones[:2])),
        "tgd-then-ded": ([copy, choice_ded()], ["S"], _source(S=ones[:2])),
        "null-equals-constant": ([invent, null_left], ["S"], _source(S=ones[:2])),
        "constant-equals-null": ([invent, null_right], ["S"], _source(S=ones[:2])),
    }


def _generated_cases():
    """E3's flagged shapes (1–6 conflicting name pairs over 4 and 40
    products) and partition cases, rewritten."""
    cases = {}
    flagged = rewrite(flagged_scenario(flags=1))
    for products in (4, 40):
        for pairs in range(1, 7):
            cases[f"flagged-{products}x{pairs}"] = (
                flagged.dependencies,
                flagged.source_relations(),
                flagged_instance(products=products, name_pairs=pairs, seed=1),
            )
    for width in (2, 3):
        for params in (
            dict(default_key=True, duplicate_names=1),
            dict(default_key=True, duplicate_names=0),
            dict(class_keys=True),
        ):
            case = partition_case(width=width, items=8, **params)
            rewritten = rewrite(case.scenario)
            label = "-".join(f"{k}={v}" for k, v in sorted(params.items()))
            cases[f"partition-{width}-{label}"] = (
                rewritten.dependencies,
                rewritten.source_relations(),
                case.instance,
            )
    return cases


CASES = {**_unit_cases(), **_generated_cases()}
#: Run options compared on every case.
RUNS = {
    "full": {},
    "first-only": {"first_only": True},
    "truncated": {"max_leaves": 3},
}
#: ``minimize`` runs one homomorphism query per ordered pair of models,
#: so its cost is quadratic in the model count: it runs on every case
#: with at most 16 models (the flagged shapes with up to four name
#: pairs); 32 and 64 models take seconds per case.
SMALL = [
    label
    for label in CASES
    if not label.startswith("flagged-") or int(label.rsplit("x", 1)[1]) <= 4
]


def test_minimize_keeps_the_incomparable_flagged_models():
    """No model of ``flagged-4x2`` maps into another, so ``minimize``
    keeps all four, in order."""
    dependencies, relations, instance = CASES["flagged-4x2"]
    runs = [
        DisjunctiveChase(dependencies, relations).run(instance, minimize=minimize)
        for minimize in (False, True)
    ]
    plain, minimized = ([sorted(map(repr, m)) for m in run.models] for run in runs)
    assert len(plain) == 4
    assert minimized == plain


def _observed(result):
    """Everything a run reports: each model's facts as reprs (null ids
    and hints included), and the tree's counters."""
    return (
        [sorted(map(repr, model)) for model in result.models],
        result.leaves,
        result.failures,
        result.branchings,
        result.truncated,
    )


def _both(label, max_leaves=4096, **options):
    dependencies, relations, instance = CASES[label]
    return [
        _observed(
            engine(dependencies, relations, max_leaves=max_leaves).run(
                instance, **options
            )
        )
        for engine in (DisjunctiveChase, OracleDisjunctiveChase)
    ]


class TestDecodedOracle:
    """The kernel's node logic — violation scan, branch checks, child
    edits on code rows — against the decoded node logic it replaced
    (``OracleDisjunctiveChase``): the same models, null ids and hints,
    leaves, failures, branchings and truncation."""

    @pytest.mark.parametrize("run", sorted(RUNS))
    @pytest.mark.parametrize("label", sorted(CASES))
    def test_identical_to_oracle(self, label, run):
        kernel, oracle = _both(label, **RUNS[run])
        assert kernel == oracle

    @pytest.mark.parametrize("label", sorted(SMALL))
    def test_minimized_identical_to_oracle(self, label):
        kernel, oracle = _both(label, minimize=True)
        assert kernel == oracle

    def test_cases_branch_and_fail(self):
        """The comparison covers branching trees, failed leaves and
        truncation, not only single-model runs."""
        models, leaves, failures, branchings, _ = _both("choice-4")[0]
        assert (len(models), leaves, failures, branchings) == (16, 16, 0, 15)
        models, _, failures, _, _ = _both("all-blocked")[0]
        assert not models and failures == 2
        models = _both("null-equals-constant")[0][0]
        assert len(models) == 4 and any("Null" not in "".join(m) for m in models)
        assert _both("flagged-4x6", max_leaves=3)[0][4]
