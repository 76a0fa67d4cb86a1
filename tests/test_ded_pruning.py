"""Nogood pruning in the greedy ded sweep, against the unpruned oracle.

The sweep answers a selection from an earlier failure's nogood when the
selection agrees with that failure on every (ded, branch) pair that
enforced (see :mod:`repro.chase.ded`).  The contract is that pruning is
invisible: status, target, aggregate statistics, ``scenarios_tried``,
``failure_reason``, the winning selection and the per-selection
timeline are bit-identical to chasing every selection.  The unpruned
sweep lives here, in the tests, as the oracle; there is no switch for
it in the library.

The suite sweeps the disjunctive and failing chase cases of
``tests/corpus.py``, the flag-view family (``flagged_case``) and the
partition family (``partition_case``) through the columnar engine, a
traced columnar run, and the set-based chase oracle
(``tests/kernel_oracle.py``) — plain and under
``reference_evaluator()``.  Cases that must prune assert it, so the
comparison never passes vacuously.
"""

import dataclasses
import gc
import itertools
import weakref

import pytest

from repro.analysis import analyze_dependencies
from repro.chase.ded import GreedyDedChase
from repro.chase.engine import ChaseConfig, StandardChase
from repro.chase.result import ChaseStats
from repro.core.compose import extend_source
from repro.core.rewriter import rewrite
from repro.obs.recorder import FlightRecorder, TraceConfig
from repro.runtime.fingerprint import fingerprint_instance
from repro.scenarios.generators import flagged_case, partition_case

from corpus import (
    DISJUNCTIVE,
    FAILING,
    chase_cases,
    ded_sweep_dependencies,
    ded_sweep_instance,
    ded_sweep_relations,
)
from kernel_oracle import OracleChase, oracle_kernel

# ---------------------------------------------------------------------------
# The oracle
# ---------------------------------------------------------------------------


def unpruned_sweep(search, source, target=None, engine=StandardChase):
    """The greedy ded sweep with every selection chased by ``engine``."""
    selections = list(
        itertools.islice(search.selections(), search.max_scenarios)
    )
    aggregate = ChaseStats()
    timings = []
    last = None
    for index, selection in enumerate(selections):
        dependencies, choice = search.scenario_for(selection)
        result = engine(
            dependencies,
            search.source_relations,
            search.config,
            branch_choice=choice,
            termination=search.termination,
        ).run(source, target)
        timings.append(
            {
                "index": index,
                "selection": list(selection),
                "status": str(result.status),
            }
        )
        aggregate = aggregate.merge(result.stats)
        if result.ok:
            result.stats = aggregate
            result.scenarios_tried = index + 1
            result.branch_selection = {
                ded.describe(): branch
                for ded, branch in zip(search.deds, selection)
            }
            result.branch_timings = timings
            return result
        last = result
    last.stats = aggregate
    last.scenarios_tried = len(selections)
    last.failure_reason = (
        f"all {len(selections)} derived scenarios failed "
        f"(last: {last.failure_reason})"
    )
    last.branch_timings = timings
    return last


def _stats(result):
    stats = dataclasses.asdict(result.stats)
    del stats["elapsed_seconds"]
    return stats


def _timeline(result):
    return [
        (t["index"], t["selection"], t["status"]) for t in result.branch_timings
    ]


#: The keys of one ``branch_timings`` entry.
TIMING_KEYS = {"index", "selection", "status", "seconds", "pruned"}


def assert_matches_oracle(pruned, oracle, label=""):
    assert pruned.status == oracle.status, label
    assert pruned.target == oracle.target, label
    assert fingerprint_instance(pruned.target) == fingerprint_instance(
        oracle.target
    ), label
    assert _stats(pruned) == _stats(oracle), label
    assert pruned.scenarios_tried == oracle.scenarios_tried, label
    assert pruned.failure_reason == oracle.failure_reason, label
    assert pruned.branch_selection == oracle.branch_selection, label
    assert _timeline(pruned) == _timeline(oracle), label
    marked = [t["pruned"] for t in pruned.branch_timings]
    assert sum(marked) == pruned.scenarios_pruned, label
    assert all(set(t) == TIMING_KEYS for t in pruned.branch_timings), label


# ---------------------------------------------------------------------------
# Cases
# ---------------------------------------------------------------------------


def _class_key_clash(seed):
    """A partition case whose class-key egd fails before the ded ever
    enforces: the first failure's nogood is empty, so it covers every
    later selection — the final one included."""
    built = partition_case(
        width=3, default_key=True, class_keys=True, duplicate_names=1,
        items=20, seed=seed,
    )
    rows = sorted(
        tuple(term.value for term in fact.terms)
        for fact in built.instance.facts("S_Item")
    )
    _id, name, cls = next(row for row in rows if row[2] > 0)
    built.instance.add_row("S_Item", 1000, name, cls)
    return built


def _pipeline_setup(built, config):
    rewritten = rewrite(built.scenario)
    assert rewritten.has_deds
    analysis = analyze_dependencies(
        rewritten.dependencies,
        rewritten.source_relations(),
        rewritten.target_relations(),
    )
    search = GreedyDedChase(
        rewritten.dependencies,
        rewritten.source_relations(),
        config,
        termination=analysis.termination,
    )
    return search, extend_source(built.scenario, built.instance)


# (label, case factory, minimum pruned selections)
PIPELINE_CASES = (
    [
        (
            f"flagged-{flags}-seed{seed}",
            lambda flags=flags, seed=seed: flagged_case(
                flags=flags, products=10, name_pairs=2, seed=seed
            ),
            1 if flags >= 3 else 0,
        )
        for flags in (1, 2, 3, 4)
        for seed in (1, 2, 3)
    ]
    + [
        # The ded-search shape: one wide ded that enforces in every
        # selection, so no selection repeats another (nothing prunes).
        (
            f"partition-seed{seed}",
            lambda seed=seed: partition_case(
                width=4, default_key=True, duplicate_names=1, items=16,
                seed=seed,
            ),
            0,
        )
        for seed in (1, 2, 3)
    ]
    + [
        (f"partition-clash-seed{seed}", lambda seed=seed: _class_key_clash(seed), 1)
        for seed in (1, 2, 3)
    ]
)

SWEEP_CASES = {
    case.label: case
    for case in chase_cases(require={DISJUNCTIVE}) + chase_cases(require={FAILING})
}

#: How each mode changes the search's config.  The ``oracle`` modes
#: chase both sweeps on the set-based oracle instead; ``oracle-reference``
#: does so under ``reference_evaluator()``.
MODE_CONFIGS = {
    "columnar": {},
    "oracle": {},
    "oracle-reference": {},
    "traced": {"trace": TraceConfig(enabled=True)},
}
MODES = list(MODE_CONFIGS)


def _mode_config(config, mode):
    return dataclasses.replace(config or ChaseConfig(), **MODE_CONFIGS[mode])


def _run_both(search, source, mode):
    if mode.startswith("oracle"):
        with oracle_kernel(reference=mode == "oracle-reference"):
            return (
                search.run(source),
                unpruned_sweep(search, source, engine=OracleChase),
            )
    pruned = search.run(source)
    # A traced sweep must actually have recorded, or the mode compares
    # two uninstrumented runs.
    assert (pruned.trace is not None) == (mode == "traced"), mode
    return pruned, unpruned_sweep(search, source)


class TestOracleDifferential:
    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize(
        "label,build,min_pruned",
        PIPELINE_CASES,
        ids=[case[0] for case in PIPELINE_CASES],
    )
    def test_generated_cases_match_the_oracle(self, label, build, min_pruned, mode):
        search, source = _pipeline_setup(build(), _mode_config(None, mode))
        pruned, oracle = _run_both(search, source, mode)
        assert_matches_oracle(pruned, oracle, f"{label}/{mode}")
        assert pruned.scenarios_pruned >= min_pruned, label

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("label", sorted(SWEEP_CASES))
    def test_chase_cases_match_the_oracle(self, label, mode):
        case = SWEEP_CASES[label]
        setup = case.build()
        search = GreedyDedChase(
            list(setup.dependencies),
            setup.source_relations,
            _mode_config(setup.config, mode),
        )
        pruned, oracle = _run_both(search, setup.instance, mode)
        case.check_baseline(oracle)
        assert_matches_oracle(pruned, oracle, f"{label}/{mode}")

    def test_pruned_final_selection_of_an_exhausted_sweep(self):
        search, source = _pipeline_setup(_class_key_clash(1), None)
        pruned = search.run(source)
        oracle = unpruned_sweep(search, source)
        assert not pruned.ok
        assert pruned.branch_timings[-1]["pruned"]
        assert pruned.scenarios_pruned == pruned.scenarios_tried - 1
        assert pruned.target == oracle.target
        assert len(pruned.target) > 0
        assert pruned.failure_reason == oracle.failure_reason


# ---------------------------------------------------------------------------
# What the engine records, and what the sweep keeps
# ---------------------------------------------------------------------------


class TestEnforcedPositions:
    @pytest.mark.parametrize("label", sorted(SWEEP_CASES))
    def test_kernels_agree_on_enforced_positions(self, label):
        setup = SWEEP_CASES[label].build()
        search = GreedyDedChase(
            list(setup.dependencies), setup.source_relations, setup.config
        )
        dependencies, choice = search.scenario_for(next(search.selections()))

        def chase(engine):
            return engine(
                dependencies, setup.source_relations, setup.config,
                branch_choice=choice,
            ).run(setup.instance)

        columnar = chase(StandardChase)
        oracle = chase(OracleChase)
        assert columnar.enforced == oracle.enforced

    def test_satisfied_dependencies_never_enforce(self):
        setup = SWEEP_CASES["ded-sweep"].build()
        search = GreedyDedChase(list(setup.dependencies), setup.source_relations)
        winner = search.run(setup.instance)
        assert winner.ok
        # Chasing the source over the solution enforces nothing.
        dependencies, choice = search.scenario_for(next(search.selections()))
        again = StandardChase(
            dependencies, setup.source_relations, branch_choice=choice
        ).run(setup.instance, winner.target)
        assert again.ok and again.enforced == frozenset()

    def test_sweep_keeps_at_most_two_failed_results(self, monkeypatch):
        # A sweep over many failures must not keep every failed run's
        # store alive: only ``last`` and the one nogood covering the
        # final selection may survive past their own iteration.
        alive = []
        peak = []
        real_run = StandardChase.run

        def run(self, *args, **kwargs):
            gc.collect()
            peak.append(sum(1 for ref in alive if ref() is not None))
            result = real_run(self, *args, **kwargs)
            alive.append(weakref.ref(result))
            return result

        monkeypatch.setattr(StandardChase, "run", run)
        deps = list(ded_sweep_dependencies(deds=4))
        search = GreedyDedChase(
            deps, ded_sweep_relations(deds=4), max_scenarios=15
        )
        result = search.run(ded_sweep_instance(deds=4))
        assert not result.ok and result.scenarios_tried == 15
        assert len(alive) > 3
        assert max(peak) <= 2


class TestSearchObservability:
    def test_trace_counts_pruned_selections(self):
        search, source = _pipeline_setup(
            flagged_case(flags=3, products=10, name_pairs=2, seed=1), None
        )
        rec = FlightRecorder()
        result = search.run(source, recorder=rec)
        assert result.ok and result.scenarios_pruned > 0
        payload = rec.to_payload()
        counters = payload["metrics"]["counters"]
        chased = result.scenarios_tried - result.scenarios_pruned
        assert counters["search.pruned"] == result.scenarios_pruned
        assert counters["chase.runs"] == chased
        histogram = payload["metrics"]["histograms"]["search.branch_seconds"]
        assert histogram["count"] == chased
        (span,) = [s for s in payload["spans"] if s["name"] == "chase.search"]
        assert span["attrs"]["pruned"] == result.scenarios_pruned
        assert span["attrs"]["selections"] >= result.scenarios_tried

    def test_batch_records_and_summary_carry_pruned_counts(self, tmp_path):
        from repro.reporting import batch_summary_table
        from repro.runtime.corpus import get_corpus
        from repro.runtime.executor import BatchOptions, run_batch
        from repro.runtime.results import read_jsonl, write_jsonl

        report = run_batch(get_corpus("smoke"), BatchOptions(use_cache=False))
        path = tmp_path / "records.jsonl"
        write_jsonl(report.records, path)
        back = read_jsonl(path)
        assert [r.scenarios_pruned for r in back] == [
            r.scenarios_pruned for r in report.records
        ]
        summary = report.summary
        assert summary.scenarios_pruned == sum(
            r.scenarios_pruned for r in report.records
        )
        assert summary.scenarios_tried == sum(
            r.scenarios_tried for r in report.records
        )
        rendered = batch_summary_table(report).render()
        assert (
            f"{summary.scenarios_pruned}/{summary.scenarios_tried}" in rendered
        )


# ---------------------------------------------------------------------------
# The sweep's other guarantees (isolation, reruns, timings)
# ---------------------------------------------------------------------------


def _compare_chases(left, right, label):
    assert right.status == left.status, label
    assert right.target == left.target, label
    assert right.failure_reason == left.failure_reason, label
    assert right.scenarios_tried == left.scenarios_tried, label
    assert right.scenarios_pruned == left.scenarios_pruned, label
    assert right.branch_selection == left.branch_selection, label
    assert _stats(right) == _stats(left), label


class TestSweepIsolation:
    def test_source_instance_untouched(self):
        setup = chase_cases(require={DISJUNCTIVE})[0].build()
        source = setup.instance
        before = (set(source), source.version)
        result = GreedyDedChase(
            list(setup.dependencies), setup.source_relations
        ).run(source)
        assert result.ok
        # Every selection chased its own working copy.
        assert (set(source), source.version) == before

    def test_rerun_is_identical(self):
        # The sweep object (compiled plans, ded infos) carries no nogood
        # from one run into the next.
        setup = chase_cases(require={DISJUNCTIVE})[0].build()
        engine = GreedyDedChase(list(setup.dependencies), setup.source_relations)
        first = engine.run(setup.instance)
        second = engine.run(setup.instance)
        _compare_chases(first, second, "rerun")

    def test_serial_sweep_records_timings(self):
        setup = chase_cases(require={DISJUNCTIVE})[0].build()
        result = GreedyDedChase(
            list(setup.dependencies), setup.source_relations
        ).run(setup.instance)
        assert [t["index"] for t in result.branch_timings] == list(
            range(result.scenarios_tried)
        )
        for timing in result.branch_timings:
            assert set(timing) == TIMING_KEYS
            assert timing["seconds"] >= 0
            assert isinstance(timing["pruned"], bool)
