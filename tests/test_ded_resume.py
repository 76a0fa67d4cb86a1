"""Resuming the greedy ded sweep from its checkpoint, against chasing
every selection from scratch.

The sweep chases the prefix every derived scenario shares once — up to
the first ded enforcement — and resumes each later selection from that
checkpoint (see :mod:`repro.chase.ded` and :mod:`repro.chase.engine`).
The contract is that resuming is invisible: status, statistics (all but
``elapsed_seconds``), ``scenarios_tried``/``pruned``, ``failure_reason``,
the winning selection, the timeline, every null id and hint and the
target equal the from-scratch sweep (``unpruned_sweep``), run on the
columnar engine and on the set-based oracle.  Cases that must resume
assert it, and the last class shows that a checkpoint missing its null
factory position or its trigger memory is caught by the comparison.
"""

import dataclasses

import pytest

from repro.chase.ded import GreedyDedChase
from repro.chase.engine import ChaseConfig, StandardChase, _TriggerMemory
from repro.chase.result import ChaseStats, ChaseStatus
from repro.errors import ChaseError
from repro.logic.atoms import Atom, Comparison, Conjunction, Equality
from repro.logic.dependencies import Disjunct, ded, egd, tgd
from repro.logic.terms import Constant, NullFactory, Variable
from repro.obs.recorder import TraceConfig
from repro.relational.instance import Instance
from repro.scenarios.generators import flagged_case, partition_case

from corpus import DISJUNCTIVE, FAILING, chase_cases
from kernel_oracle import OracleChase
from test_ded_pruning import _pipeline_setup, assert_matches_oracle, unpruned_sweep

x, y, z, w, v = (Variable(name) for name in "xyzwv")


def _rendered(instance):
    """The facts with every null's id *and* hint (``Null`` equality and
    hashing ignore hints)."""
    return sorted(map(str, instance))


def _null_labels(instance):
    return sorted((null.id, null.hint) for null in instance.nulls())


def assert_resume_matches(search, source, label, min_resumed=0):
    """The sweep against the from-scratch sweep on both engines."""
    result = search.run(source)
    for engine in (StandardChase, OracleChase):
        oracle = unpruned_sweep(search, source, engine=engine)
        tag = f"{label}/{engine.__name__}"
        assert_matches_oracle(result, oracle, tag)
        assert _rendered(result.target) == _rendered(oracle.target), tag
        assert _null_labels(result.target) == _null_labels(oracle.target), tag
    assert result.scenarios_resumed >= min_resumed, label
    chased = result.scenarios_tried - result.scenarios_pruned
    # Only the first chased selection runs from scratch.
    assert result.scenarios_resumed <= max(chased - 1, 0), label
    return result


# ---------------------------------------------------------------------------
# Hand-built ded scenarios
# ---------------------------------------------------------------------------


def _rewrite_then_deds(items=12):
    """Two tgds invent a null per key and an egd unifies each pair, so
    the first round rewrites nulls before either ded enforces.  Each
    ded's equality branch maps every null to one constant, which the
    key egd then refutes; only the all-insert selection succeeds."""
    dependencies = [
        tgd(Conjunction(atoms=(Atom("S", (x, y)),)), (Atom("T", (x, z)),), name="invent"),
        tgd(Conjunction(atoms=(Atom("S", (x, y)),)), (Atom("U", (x, z)),), name="again"),
        egd(
            Conjunction(atoms=(Atom("T", (x, y)), Atom("U", (x, z)))),
            (Equality(y, z),),
            name="unify",
        ),
        egd(
            Conjunction(atoms=(Atom("T", (x, y)), Atom("T", (z, y)))),
            (Equality(x, z),),
            name="key",
        ),
    ]
    for i in range(2):
        dependencies.append(
            ded(
                Conjunction(atoms=(Atom("T", (x, y)),)),
                (
                    Disjunct(equalities=(Equality(y, Constant(f"k{i}")),)),
                    Disjunct(atoms=(Atom(f"X{i}", (x, y, w)),)),
                ),
                name=f"d{i}",
            )
        )
    source = Instance()
    for i in range(items):
        source.add(Atom("S", (Constant(i), Constant(i % 3))))
    return dependencies, ("S",), source


def _recursion_after_deds(length=8):
    """Both deds enforce in the first round on every branch, and a
    transitive closure then needs more rounds than ``max_rounds``
    allows: every selection trips the budget after the checkpoint."""
    dependencies = [
        tgd(Conjunction(atoms=(Atom("E", (x, y)),)), (Atom("P", (x, y)),), name="base"),
    ]
    for i in range(2):
        dependencies.append(
            ded(
                Conjunction(atoms=(Atom("E", (x, y)),)),
                (
                    Disjunct(atoms=(Atom(f"M{i}", (x,)),)),
                    Disjunct(atoms=(Atom(f"N{i}", (x, w)),)),
                ),
                name=f"d{i}",
            )
        )
    dependencies.append(
        tgd(
            Conjunction(atoms=(Atom("P", (x, y)), Atom("E", (y, z)))),
            (Atom("P", (x, z)),),
            name="closure",
        )
    )
    source = Instance()
    for i in range(length):
        source.add(Atom("E", (Constant(i), Constant(i + 1))))
    return dependencies, ("E",), source


def _comparison_branches(items=10):
    """Ded branches guarded by comparisons: the cheap branch demands
    ``x > 100`` and fails at the first match, after a copy tgd ran."""
    dependencies = [
        tgd(Conjunction(atoms=(Atom("S", (x, y)),)), (Atom("T", (x, y)),), name="copy"),
    ]
    for i in range(2):
        dependencies.append(
            ded(
                Conjunction(atoms=(Atom("T", (x, y)),)),
                (
                    Disjunct(
                        atoms=(Atom(f"C{i}", (x,)),),
                        comparisons=(Comparison(">", x, Constant(100)),),
                    ),
                    Disjunct(atoms=(Atom(f"D{i}", (x, y, v)),)),
                ),
                name=f"d{i}",
            )
        )
    source = Instance()
    for i in range(items):
        source.add(Atom("S", (Constant(i), Constant(f"v{i}"))))
    return dependencies, ("S",), source


def _search(built, config=None, max_scenarios=256):
    dependencies, relations, source = built
    return GreedyDedChase(dependencies, relations, config, max_scenarios), source


def _checkpoint(search, source):
    """The checkpoint the sweep's first selection captures."""
    dependencies, choice = search.scenario_for(next(search.selections()))
    engine = StandardChase(
        dependencies, search.source_relations, search.config,
        branch_choice=choice, termination=search.termination,
    )
    engine.run(source, capture=True)
    return engine.checkpoint


# ---------------------------------------------------------------------------
# Differential cases
# ---------------------------------------------------------------------------


FLAGGED = [
    (flags, seed) for flags in (3, 4) for seed in (1, 2)
]


class TestResumeDifferential:
    @pytest.mark.parametrize("flags,seed", FLAGGED)
    def test_flagged_cases(self, flags, seed):
        search, source = _pipeline_setup(
            flagged_case(flags=flags, products=12, name_pairs=2, seed=seed), None
        )
        result = assert_resume_matches(
            search, source, f"flagged-{flags}-{seed}", min_resumed=1
        )
        assert result.ok

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_partition_case_fails_after_resuming(self, seed):
        search, source = _pipeline_setup(
            partition_case(
                width=4, default_key=True, duplicate_names=1, items=16, seed=seed
            ),
            None,
        )
        result = assert_resume_matches(
            search, source, f"partition-{seed}", min_resumed=1
        )
        assert result.status is ChaseStatus.FAILURE
        # Nothing prunes here, so every selection after the first resumed.
        assert result.scenarios_resumed == result.scenarios_tried - 1

    @pytest.mark.parametrize(
        "case",
        chase_cases(require={DISJUNCTIVE}) + chase_cases(require={FAILING}),
        ids=lambda case: case.label,
    )
    def test_corpus_sweep_cases(self, case):
        setup = case.build()
        search = GreedyDedChase(
            list(setup.dependencies), setup.source_relations, setup.config
        )
        assert_resume_matches(search, setup.instance, case.label)

    def test_null_rewrites_before_the_checkpoint(self):
        search, source = _search(_rewrite_then_deds())
        checkpoint = _checkpoint(search, source)
        assert checkpoint.stats.null_rewrites > 0
        assert checkpoint.round_state.rewrites > 0  # in flight this round
        result = assert_resume_matches(search, source, "rewrite", min_resumed=1)
        assert result.ok and result.stats.null_rewrites > 0

    def test_oblivious_policy_spilled_before_the_checkpoint(self):
        config = ChaseConfig(policy="oblivious", oblivious_trigger_limit=3)
        search, source = _search(_rewrite_then_deds(), config)
        checkpoint = _checkpoint(search, source)
        assert checkpoint.round_state.triggers.spilled > 0
        assert_resume_matches(search, source, "oblivious", min_resumed=1)

    def test_max_rounds_trips_after_the_checkpoint(self):
        config = ChaseConfig(max_rounds=4)
        search, source = _search(_recursion_after_deds(), config)
        assert _checkpoint(search, source).stats.rounds < config.max_rounds
        result = assert_resume_matches(search, source, "max-rounds", min_resumed=1)
        assert result.status is ChaseStatus.NONTERMINATION
        assert "exceeded 4 chase rounds" in result.failure_reason

    def test_comparison_branches(self):
        search, source = _search(_comparison_branches())
        result = assert_resume_matches(search, source, "comparisons", min_resumed=1)
        assert result.ok

    @pytest.mark.parametrize("guards", ["on", "auto"])
    def test_guards(self, guards):
        search, source = _pipeline_setup(
            flagged_case(flags=3, products=10, name_pairs=2, seed=1),
            ChaseConfig(guards=guards),
        )
        result = assert_resume_matches(search, source, guards, min_resumed=1)
        assert result.guards == ("enforced" if guards == "on" else "dropped")

    @pytest.mark.parametrize("max_scenarios,resumed", [(1, 0), (2, 1)])
    def test_small_budgets(self, max_scenarios, resumed):
        search, source = _search(_rewrite_then_deds(), max_scenarios=max_scenarios)
        result = assert_resume_matches(search, source, f"budget-{max_scenarios}")
        assert not result.ok
        assert result.scenarios_resumed == resumed

    def test_a_resumed_run_neither_captures_nor_takes_a_factory(self):
        search, source = _search(_rewrite_then_deds())
        checkpoint = _checkpoint(search, source)
        dependencies, choice = search.scenario_for(next(search.selections()))
        engine = StandardChase(dependencies, search.source_relations, branch_choice=choice)
        with pytest.raises(ChaseError, match="neither captures"):
            engine.run(source, capture=True, resume=checkpoint)
        with pytest.raises(ChaseError, match="neither captures"):
            engine.run(source, null_factory=NullFactory(), resume=checkpoint)

    def test_rerun_starts_from_a_fresh_checkpoint(self):
        search, source = _search(_rewrite_then_deds())
        first, second = search.run(source), search.run(source)
        assert _rendered(first.target) == _rendered(second.target)
        assert first.scenarios_resumed == second.scenarios_resumed > 0


# ---------------------------------------------------------------------------
# What a trace shows
# ---------------------------------------------------------------------------


class TestResumeTrace:
    def test_traced_sweep_matches_and_counts_only_the_work_done(self):
        config = ChaseConfig(trace=TraceConfig(enabled=True))
        search, source = _search(_rewrite_then_deds(), config)
        result = assert_resume_matches(search, source, "traced", min_resumed=1)
        payload = result.trace
        counters = payload["metrics"]["counters"]
        chased = result.scenarios_tried - result.scenarios_pruned
        assert counters["search.resumed"] == result.scenarios_resumed
        assert counters["chase.runs"] == chased
        spans = payload["spans"]
        seeds = [s for s in spans if s["name"] == "chase.seed"]
        assert len(seeds) == chased - result.scenarios_resumed
        checkpoint = _checkpoint(search, source)
        resumed_runs = [
            s for s in spans
            if s["name"] == "chase.run" and "resumed_from" in s["attrs"]
        ]
        assert len(resumed_runs) == result.scenarios_resumed
        assert {s["attrs"]["resumed_from"] for s in resumed_runs} == {
            f"round {checkpoint.stats.rounds} dependency {checkpoint.index}"
        }
        (search_span,) = [s for s in spans if s["name"] == "chase.search"]
        assert search_span["attrs"]["resumed"] == result.scenarios_resumed
        # Counters add up the chased runs' stats, minus the prefix each
        # resumed run did not chase again; ``ChaseResult.stats`` stays
        # the logical sum over every selection.
        chased_stats = ChaseStats()
        for timing in result.branch_timings:
            if not timing["pruned"]:
                dependencies, choice = search.scenario_for(tuple(timing["selection"]))
                chased_stats = chased_stats.merge(
                    StandardChase(
                        dependencies, search.source_relations, branch_choice=choice
                    ).run(source).stats
                )
        for _ in range(result.scenarios_resumed):
            chased_stats = chased_stats.minus(checkpoint.stats)
        for name in ("rounds", "tgd_fires", "premise_matches", "nulls_created",
                     "egd_unifications", "null_rewrites", "facts_created"):
            assert counters.get(f"chase.{name}", 0) == getattr(chased_stats, name), name
        assert counters["chase.premise_matches"] < result.stats.premise_matches

    def test_timings_mark_resumed_selections(self):
        search, source = _search(_rewrite_then_deds())
        result = search.run(source)
        flags = [(t["pruned"], t["resumed"]) for t in result.branch_timings]
        assert flags[0] == (False, False)
        assert sum(resumed for _, resumed in flags) == result.scenarios_resumed


# ---------------------------------------------------------------------------
# The comparison can fail
# ---------------------------------------------------------------------------


def _resume_with(monkeypatch, damage):
    """Make every resume start from ``damage(checkpoint)``."""
    real_run = StandardChase.run

    def run(self, *args, resume=None, **kwargs):
        if resume is not None:
            resume = damage(resume)
        return real_run(self, *args, resume=resume, **kwargs)

    monkeypatch.setattr(StandardChase, "run", run)


class TestDamagedCheckpoints:
    def test_without_the_factory_position(self, monkeypatch):
        search, source = _search(_rewrite_then_deds())
        oracle = unpruned_sweep(search, source)
        _resume_with(
            monkeypatch, lambda cp: dataclasses.replace(cp, next_null=1)
        )
        damaged = search.run(source)
        assert damaged.scenarios_resumed > 0
        with pytest.raises(AssertionError):
            assert_matches_oracle(damaged, oracle)
            assert _null_labels(damaged.target) == _null_labels(oracle.target)

    def test_without_the_trigger_memory(self, monkeypatch):
        config = ChaseConfig(policy="oblivious", oblivious_trigger_limit=3)
        search, source = _search(_rewrite_then_deds(), config)
        oracle = unpruned_sweep(search, source)

        def forget(checkpoint):
            state = checkpoint.round_state.copy()
            state.triggers = _TriggerMemory(config.oblivious_trigger_limit)
            return dataclasses.replace(checkpoint, round_state=state)

        _resume_with(monkeypatch, forget)
        damaged = search.run(source)
        assert damaged.scenarios_resumed > 0
        with pytest.raises(AssertionError):
            assert_matches_oracle(damaged, oracle)
