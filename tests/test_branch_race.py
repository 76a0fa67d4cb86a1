"""Differential suite for the branch-raced disjunctive search.

The racing contract is *bit-identical* results: whatever the racer
(forked workers, or the serial reference), the greedy ded sweep must
return the same winning selection, target instance, failure reason,
aggregated statistics and ``scenarios_tried`` as the serial sweep — the
winner is decided by canonical selection order, never by completion
order.  These tests sweep the shared scenario corpus
(``tests/corpus.py``) plus the ded-pressure cases through every racing
mode and compare, and unit-test the racer machinery (deterministic
winner, early cancellation, no partial state, the serial fallback, the
three-tier worker budget).
"""

import multiprocessing
import time
from dataclasses import replace

import pytest

from repro.chase.ded import GreedyDedChase
from repro.chase.disjunctive import DisjunctiveChase
from repro.chase.engine import ChaseConfig
from repro.chase.parallel import compose_parallelism
from repro.chase.race import (
    ProcessRacer,
    SerialRacer,
    create_racer,
)
from repro.core.rewriter import rewrite
from repro.pipeline import run_rewritten
from repro.runtime.fingerprint import fingerprint_instance

from corpus import (
    DISJUNCTIVE,
    chase_cases,
    ded_sweep_dependencies,
    ded_sweep_instance,
    ded_sweep_relations,
    pipeline_specs,
)

# Three workers race a window that the branch count does not divide.
RACE_MODES = ["process:2", "process:3"]

needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="needs fork",
)

DISJUNCTIVE_SPECS = pipeline_specs(require={DISJUNCTIVE})


def _compare_chases(serial, raced, label):
    assert raced.status == serial.status, label
    assert raced.target == serial.target, label
    assert raced.failure_reason == serial.failure_reason, label
    assert raced.scenarios_tried == serial.scenarios_tried, label
    assert raced.branch_selection == serial.branch_selection, label
    assert raced.stats.rounds == serial.stats.rounds, label
    assert raced.stats.premise_matches == serial.stats.premise_matches, label
    assert raced.stats.nulls_created == serial.stats.nulls_created, label
    assert raced.stats.egd_unifications == serial.stats.egd_unifications, label
    assert raced.stats.tgd_fires == serial.stats.tgd_fires, label


class TestCorpusDifferential:
    """Branch-raced pipelines are bit-identical, corpus-wide."""

    @pytest.mark.parametrize(
        "spec", DISJUNCTIVE_SPECS, ids=[s.label for s in DISJUNCTIVE_SPECS]
    )
    def test_disjunctive_pipeline_specs_agree(self, spec):
        built = spec.build()
        rewritten = rewrite(built.scenario)
        assert rewritten.has_deds, spec.label  # the corpus flag is honest
        baseline = run_rewritten(
            built.scenario, rewritten, built.instance, verify=True
        )
        for mode in RACE_MODES:
            raced = run_rewritten(
                built.scenario,
                rewritten,
                built.instance,
                verify=True,
                config=ChaseConfig(branch_parallelism=mode),
            )
            _compare_chases(baseline.chase, raced.chase, f"{spec.label}/{mode}")
            assert raced.target == baseline.target, mode
            assert raced.ok == baseline.ok, mode
            if baseline.verification is not None:
                assert raced.verification.ok == baseline.verification.ok

    @pytest.mark.parametrize(
        "case",
        chase_cases(require={DISJUNCTIVE}),
        ids=lambda c: c.label,
    )
    @pytest.mark.parametrize("mode", RACE_MODES)
    def test_ded_chase_cases_agree(self, case, mode):
        setup = case.build()
        serial = GreedyDedChase(
            list(setup.dependencies), setup.source_relations
        ).run(setup.instance)
        case.check_baseline(serial)
        raced = GreedyDedChase(
            list(setup.dependencies),
            setup.source_relations,
            ChaseConfig(branch_parallelism=mode),
        ).run(setup.instance)
        _compare_chases(serial, raced, f"{case.label}/{mode}")
        assert raced.branch_racing.startswith(mode.split(":")[0]) or (
            "degraded" in raced.branch_racing
        )

    @pytest.mark.parametrize("mode", RACE_MODES)
    def test_deep_winner_identical(self, mode):
        # Three 2-branch deds whose equality branches all fail: the
        # winner is the *last* of the 8 selections, so the race must
        # resolve every earlier selection before declaring it.
        deps = list(ded_sweep_dependencies(deds=3))
        instance = ded_sweep_instance(deds=3)
        relations = ded_sweep_relations(deds=3)
        serial = GreedyDedChase(deps, relations).run(instance)
        raced = GreedyDedChase(
            deps, relations, ChaseConfig(branch_parallelism=mode)
        ).run(instance)
        assert serial.ok and serial.scenarios_tried == 8
        _compare_chases(serial, raced, mode)
        assert [t["status"] for t in raced.branch_timings] == [
            t["status"] for t in serial.branch_timings
        ]
        assert [t["selection"] for t in raced.branch_timings] == [
            t["selection"] for t in serial.branch_timings
        ]


class TestEarlyCancellation:
    """A losing/cancelled branch leaves no trace in shared structures."""

    @pytest.mark.parametrize("mode", RACE_MODES)
    def test_source_instance_untouched(self, mode):
        setup = chase_cases(require={DISJUNCTIVE})[0].build()
        source = setup.instance
        before_facts = set(source)
        before_generation = source.current_generation
        before_version = source.version
        engine = GreedyDedChase(
            list(setup.dependencies),
            setup.source_relations,
            ChaseConfig(branch_parallelism=mode),
        )
        result = engine.run(source)
        assert result.ok
        # Every branch — winner, losers, cancelled stragglers — chased
        # its own working copy; the shared source instance's contents
        # and version stamps are exactly those of a never-started run.
        assert set(source) == before_facts
        assert source.current_generation == before_generation
        assert source.version == before_version

    @pytest.mark.parametrize("mode", RACE_MODES)
    def test_rerun_after_race_is_identical(self, mode):
        # The sweep object itself (compiled plans, ded infos) must not
        # be contaminated by a race: a second run — raced or serial —
        # reproduces the result bit-identically.
        setup = chase_cases(require={DISJUNCTIVE})[0].build()
        engine = GreedyDedChase(
            list(setup.dependencies),
            setup.source_relations,
            ChaseConfig(branch_parallelism=mode),
        )
        first = engine.run(setup.instance)
        second = engine.run(setup.instance)
        _compare_chases(first, second, mode)
        serial = GreedyDedChase(
            list(setup.dependencies), setup.source_relations
        ).run(setup.instance)
        _compare_chases(serial, first, mode)

    def test_no_leftover_worker_processes(self):
        setup = chase_cases(require={DISJUNCTIVE})[0].build()
        engine = GreedyDedChase(
            list(setup.dependencies),
            setup.source_relations,
            ChaseConfig(branch_parallelism="process:2"),
        )
        engine.run(setup.instance)
        deadline = time.time() + 5
        while time.time() < deadline:
            racers = [
                p
                for p in multiprocessing.active_children()
                if p.name.startswith("branch-race")
            ]
            if not racers:
                break
            time.sleep(0.05)
        assert not racers, "race workers must not outlive the race"

    def test_cancelled_branches_never_run_serially(self):
        # The serial reference stops at the winner: later branches are
        # never even started (the strongest form of cancellation).
        ran = []

        def run(index):
            ran.append(index)
            return index  # every branch "succeeds"

        race = SerialRacer().race(8, run, success=lambda r: True)
        assert race.winner == 0
        assert ran == [0]

    @needs_fork
    def test_process_racer_winner_is_canonical_not_fastest(self):
        # Branch 1 finishes long before branch 0, but both succeed:
        # the winner must still be branch 0.
        def run(index):
            if index == 0:
                time.sleep(0.2)
            return f"branch-{index}"

        race = ProcessRacer(2).race(2, run, success=lambda r: True)
        assert race.winner == 0
        assert race.outcomes[0].result == "branch-0"

    def test_error_in_reachable_branch_raises_original_type(self):
        # The serial sweep would hit the ValueError at branch 1 before
        # reaching the success at branch 3 — the race must re-raise the
        # exact same exception, not a wrapper.
        def run(index):
            if index == 1:
                raise ValueError("boom")
            return index

        racers = [SerialRacer()]
        if "fork" in multiprocessing.get_all_start_methods():
            racers.append(ProcessRacer(2))
        for racer in racers:
            with pytest.raises(ValueError, match="boom"):
                racer.race(4, run, success=lambda r: r == 3)

    def test_process_racer_error_preserves_exception_type(self):
        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("needs fork")

        def run(index):
            raise KeyError(f"branch-{index}")

        with pytest.raises(KeyError, match="branch-0"):
            ProcessRacer(2).race(3, run, success=lambda r: True)

    @needs_fork
    def test_error_beyond_winner_is_ignored(self):
        def run(index):
            if index == 3:
                raise ValueError("boom")
            return index

        for racer in (SerialRacer(), ProcessRacer(2)):
            race = racer.race(4, run, success=lambda r: r == 0)
            assert race.winner == 0


class TestProcessRacer:
    def test_all_fail_resolves_every_branch(self):
        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("needs fork")
        race = ProcessRacer(2).race(
            5, lambda i: i * 10, success=lambda r: False
        )
        assert race.winner is None
        assert sorted(race.outcomes) == [0, 1, 2, 3, 4]
        assert race.outcomes[3].result == 30
        assert race.tried == 5

    def test_fork_worker_labels(self):
        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("needs fork")
        race = ProcessRacer(2).race(
            3, lambda i: i, success=lambda r: False
        )
        assert all(
            outcome.worker.startswith("fork-")
            for outcome in race.outcomes.values()
        )

    def test_create_racer_modes(self):
        assert type(create_racer("serial")) is SerialRacer
        if "fork" in multiprocessing.get_all_start_methods():
            assert isinstance(create_racer("process:2"), ProcessRacer)
        else:
            assert type(create_racer("process:2")) is SerialRacer

    def test_describe(self):
        assert SerialRacer().describe() == "serial"
        assert ProcessRacer(4).describe() == "process:4"
        degraded = ProcessRacer(4)
        degraded._degraded = True
        assert degraded.describe() == "serial (degraded from process:4)"


class TestSerialFallback:
    """A process spec the caller cannot honour sweeps serially: the
    result is bit-identical to a serial sweep and says ``serial``."""

    def _assert_serial_fallback(self):
        assert type(create_racer("process:3")) is SerialRacer
        deps = list(ded_sweep_dependencies(deds=3))
        instance = ded_sweep_instance(deds=3)
        relations = ded_sweep_relations(deds=3)
        serial = GreedyDedChase(deps, relations).run(instance)
        fallback = GreedyDedChase(
            deps, relations, ChaseConfig(branch_parallelism="process:3")
        ).run(instance)
        _compare_chases(serial, fallback, "fallback")
        assert fallback.branch_racing == "serial"
        assert [t["worker"] for t in fallback.branch_timings] == (
            ["serial"] * serial.scenarios_tried
        )

    def test_daemonic_caller_falls_back_to_serial(self, monkeypatch):
        class _Daemonic:
            daemon = True

        monkeypatch.setattr(
            multiprocessing, "current_process", lambda: _Daemonic()
        )
        self._assert_serial_fallback()

    def test_missing_fork_falls_back_to_serial(self, monkeypatch):
        monkeypatch.setattr(
            multiprocessing, "get_all_start_methods", lambda: ["spawn"]
        )
        self._assert_serial_fallback()


class TestExhaustiveChaseIgnoresParallelKnobs:
    """The exhaustive disjunctive chase has no parallel tier: a config
    asking for process racing and sharding explores the same tree, in
    the same order, as the default config."""

    PARALLEL = ChaseConfig(
        parallelism="process:2", branch_parallelism="process:2"
    )

    def _ded_setup(self):
        return (
            list(ded_sweep_dependencies(deds=2, insert_branches=2)),
            ded_sweep_relations(deds=2),
            ded_sweep_instance(deds=2),
        )

    def test_model_set_identical(self):
        deps, relations, instance = self._ded_setup()
        serial = DisjunctiveChase(deps, relations).run(instance)
        knobbed = DisjunctiveChase(deps, relations, self.PARALLEL).run(
            instance
        )
        assert serial.satisfiable
        assert len(serial.models) == len(knobbed.models)
        for left, right in zip(serial.models, knobbed.models):
            assert left == right  # bit-identical, including null ids
            assert fingerprint_instance(left) == fingerprint_instance(right)
        assert (serial.leaves, serial.failures, serial.branchings) == (
            knobbed.leaves, knobbed.failures, knobbed.branchings
        )

    def test_first_only_identical(self):
        deps, relations, instance = self._ded_setup()
        serial = DisjunctiveChase(deps, relations).run(
            instance, first_only=True
        )
        knobbed = DisjunctiveChase(deps, relations, self.PARALLEL).run(
            instance, first_only=True
        )
        assert serial.models and serial.models == knobbed.models
        assert serial.leaves == knobbed.leaves

    def test_truncation_identical(self):
        deps, relations, instance = self._ded_setup()
        serial = DisjunctiveChase(deps, relations, max_leaves=3).run(instance)
        knobbed = DisjunctiveChase(
            deps, relations, self.PARALLEL, max_leaves=3
        ).run(instance)
        assert serial.truncated and knobbed.truncated
        assert serial.leaves == knobbed.leaves == 3
        assert serial.models == knobbed.models

    def test_minimize_identical(self):
        deps, relations, instance = self._ded_setup()
        serial = DisjunctiveChase(deps, relations).run(instance, minimize=True)
        knobbed = DisjunctiveChase(deps, relations, self.PARALLEL).run(
            instance, minimize=True
        )
        assert serial.models == knobbed.models


class TestThreeTierBudget:
    """jobs × branch workers × chase workers ≤ cpu_count, always."""

    def test_branch_workers_take_the_job_share_first(self):
        branch, chase = compose_parallelism(
            2, "process:4", "process:4", cpu_count=16
        )
        assert branch == "process:4"  # 16 // 2 jobs = 8, capped at 4
        assert chase == "process:2"  # 16 // (2 × 4) = 2

    def test_chase_serializes_when_branches_eat_the_budget(self):
        branch, chase = compose_parallelism(
            2, "process:4", "process:4", cpu_count=8
        )
        assert branch == "process:4"
        assert chase == "serial"  # 8 // (2 × 4) = 1

    def test_serial_branch_leaves_chase_budget_unchanged(self):
        branch, chase = compose_parallelism(
            2, "serial", "process:4", cpu_count=8
        )
        assert branch == "serial"
        assert chase == "process:4"

    def test_single_cpu_serializes_everything(self):
        branch, chase = compose_parallelism(
            1, "process:4", "process:4", cpu_count=1
        )
        assert branch == "serial"
        assert chase == "serial"

    def test_raced_sweep_caps_inner_sharding(self):
        # A raced GreedyDedChase divides the chase's own shard budget by
        # the racer width (observable through the inner config).
        from repro.chase.parallel import effective_parallelism

        assert effective_parallelism("process:4", jobs=2, cpu_count=8) == (
            "process:4"
        )
        assert effective_parallelism("process:4", jobs=4, cpu_count=8) == (
            "process:2"
        )


class TestRacedResultMetadata:
    @pytest.mark.parametrize("mode", RACE_MODES)
    def test_branch_timings_cover_the_serial_prefix(self, mode):
        setup = chase_cases(require={DISJUNCTIVE})[0].build()
        raced = GreedyDedChase(
            list(setup.dependencies),
            setup.source_relations,
            ChaseConfig(branch_parallelism=mode),
        ).run(setup.instance)
        assert raced.branch_timings is not None
        assert [t["index"] for t in raced.branch_timings] == list(
            range(raced.scenarios_tried)
        )
        for timing in raced.branch_timings:
            assert timing["seconds"] >= 0
            assert timing["status"] in ("success", "failure", "nontermination")

    def test_serial_sweep_records_timings_too(self):
        setup = chase_cases(require={DISJUNCTIVE})[0].build()
        serial = GreedyDedChase(
            list(setup.dependencies), setup.source_relations
        ).run(setup.instance)
        assert serial.branch_racing == "serial"
        assert [t["worker"] for t in serial.branch_timings] == (
            ["serial"] * serial.scenarios_tried
        )

    def test_batch_records_carry_branch_metadata(self, tmp_path):
        from repro.runtime.corpus import get_corpus
        from repro.runtime.executor import BatchOptions, run_batch
        from repro.runtime.results import read_jsonl, write_jsonl

        corpus = get_corpus("smoke").limited(2)
        report = run_batch(
            corpus,
            BatchOptions(branch_parallelism="process:2", use_cache=False),
        )
        assert report.branch_parallelism in ("serial", "process:2")
        assert report.summary.branch_parallelism == report.branch_parallelism
        path = tmp_path / "records.jsonl"
        write_jsonl(report.records, path)
        back = read_jsonl(path)
        assert [r.branch_parallelism for r in back] == [
            r.branch_parallelism for r in report.records
        ]

    def test_chase_config_replace_keeps_branch_field(self):
        config = replace(
            ChaseConfig(), parallelism="process:2",
            branch_parallelism="process:4",
        )
        assert config.branch_parallelism == "process:4"
