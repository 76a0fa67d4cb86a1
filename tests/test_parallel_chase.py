"""Differential suite for the parallel chase: sharded == serial, always.

The sharded chase's contract is *bit-identical* results: whatever the
sharder (forked replica processes, or the serial fallback),
the produced instances, null resolutions, failure reasons and counters
must match the serial chase exactly.  These tests sweep the scenario
corpus — including disjunctive (ded) and failing scenarios — through
every mode and compare, plus unit-test the sharding machinery itself
(worker budget, fallbacks, replica-event bookkeeping, trigger-memory
spill under the parallel path).
"""

import multiprocessing
import os

import pytest

from repro.chase.ded import GreedyDedChase
from repro.chase.engine import ChaseConfig, StandardChase
from repro.chase.parallel import (
    MatchSharder,
    ProcessSharder,
    chase_worker_budget,
    create_sharder,
    effective_parallelism,
    parse_parallelism,
)
from repro.core.rewriter import rewrite
from repro.core.verify import ScenarioVerifier
from repro.errors import ChaseError
from repro.logic.atoms import Atom, Conjunction
from repro.logic.dependencies import tgd
from repro.logic.terms import Constant, Variable
from repro.pipeline import run_rewritten
from repro.relational.instance import Instance, ProbeView
from repro.runtime.corpus import get_corpus

from corpus import (
    BLOOM_SPILL,
    chase_cases,
    dense_pair_instance as _dense_pair_instance,
)

# An even and an odd worker count: three workers split the shards unevenly.
MODES = ["process:2", "process:3"]

x, y, z = Variable("x"), Variable("y"), Variable("z")


def _run_case(setup, mode=None):
    """Chase a corpus case under a parallelism mode (None = serial)."""
    config = setup.config or ChaseConfig()
    if mode is not None:
        from dataclasses import replace

        config = replace(config, parallelism=mode)
    dependencies = list(setup.dependencies)
    if any(d.is_ded() for d in dependencies):
        engine = GreedyDedChase(
            dependencies, setup.source_relations, config
        )
    else:
        engine = StandardChase(dependencies, setup.source_relations, config)
    return engine.run(setup.instance)


def _compare_results(serial, other, mode):
    assert other.status == serial.status, mode
    assert other.target == serial.target, mode
    assert other.failure_reason == serial.failure_reason, mode
    assert other.stats.nulls_created == serial.stats.nulls_created, mode
    assert other.stats.premise_matches == serial.stats.premise_matches, mode
    assert other.stats.rounds == serial.stats.rounds, mode
    assert other.stats.egd_unifications == serial.stats.egd_unifications, mode


class TestCorpusDifferential:
    """Every smoke-corpus scenario, every mode, identical pipelines."""

    @pytest.mark.parametrize(
        "spec", list(get_corpus("smoke")), ids=lambda s: s.label
    )
    def test_smoke_corpus_modes_agree(self, spec):
        built = spec.build()
        rewritten = rewrite(built.scenario)
        baseline = run_rewritten(
            built.scenario, rewritten, built.instance, verify=True
        )
        for mode in MODES:
            outcome = run_rewritten(
                built.scenario,
                rewritten,
                built.instance,
                verify=True,
                config=ChaseConfig(parallelism=mode),
            )
            _compare_results(baseline.chase, outcome.chase, mode)
            assert outcome.target == baseline.target, mode
            assert outcome.ok == baseline.ok, mode
            if baseline.verification is not None:
                assert (
                    outcome.verification.ok == baseline.verification.ok
                ), mode

    @pytest.mark.parametrize("mode", MODES)
    def test_disjunctive_sweep_agrees(self, mode):
        # flagged scenarios rewrite to deds -> the greedy branch search;
        # name pairs put failure pressure on early selections.
        from repro.runtime.corpus import spec as make_spec

        spec = make_spec("flagged", flags=2, products=12, name_pairs=2, seed=1)
        built = spec.build()
        rewritten = rewrite(built.scenario)
        baseline = run_rewritten(
            built.scenario, rewritten, built.instance, verify=True
        )
        outcome = run_rewritten(
            built.scenario,
            rewritten,
            built.instance,
            verify=True,
            config=ChaseConfig(parallelism=mode),
        )
        _compare_results(baseline.chase, outcome.chase, mode)
        assert outcome.chase.scenarios_tried == baseline.chase.scenarios_tried


class TestChaseCaseDifferential:
    """Every registered chase case (failing, recursive, disjunctive,
    Bloom-spill) produces identical results under every sharder."""

    @pytest.mark.parametrize(
        "case", chase_cases(), ids=lambda c: c.label
    )
    @pytest.mark.parametrize("mode", MODES)
    def test_sharded_matches_serial(self, case, mode):
        serial = _run_case(case.build())
        case.check_baseline(serial)  # the case still bites
        sharded = _run_case(case.build(), mode)
        _compare_results(serial, sharded, f"{case.label}/{mode}")
        if "failing" in case.flags:
            assert not serial.ok, case.label
        if "disjunctive" in case.flags:
            assert sharded.scenarios_tried == serial.scenarios_tried
            assert sharded.branch_selection == serial.branch_selection


class TestTriggerMemoryUnderParallelism:
    @pytest.mark.parametrize("mode", ["serial"] + MODES)
    def test_bloom_spill_matches_serial(self, mode):
        from dataclasses import replace

        [case] = chase_cases(require={BLOOM_SPILL})
        setup = case.build()
        config = replace(setup.config, parallelism=mode)
        engine = StandardChase(
            list(setup.dependencies), setup.source_relations, config
        )
        result = engine.run(setup.instance)
        assert result.ok
        memory = engine._trigger_memory
        assert memory.exact_size == 5
        assert memory.spilled > 0  # the Bloom tier engaged
        if mode == "serial":
            TestTriggerMemoryUnderParallelism._baseline = (
                result.target,
                memory.spilled,
            )
        else:
            target, spilled = TestTriggerMemoryUnderParallelism._baseline
            assert result.target == target, mode
            assert memory.spilled == spilled, mode


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
                cwd="/root/repo",
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


class TestSharderMachinery:
    def test_parse_parallelism_forms(self):
        assert parse_parallelism(None) == ("serial", 1)
        assert parse_parallelism("serial") == ("serial", 1)
        assert parse_parallelism("1") == ("serial", 1)
        assert parse_parallelism(4) == ("process", 4)
        assert parse_parallelism("3") == ("process", 3)
        assert parse_parallelism("process:6") == ("process", 6)
        assert parse_parallelism("PROCESS:2") == ("process", 2)
        assert parse_parallelism("process:1") == ("serial", 1)
        with pytest.raises(ChaseError):
            parse_parallelism("gpu:2")
        with pytest.raises(ChaseError):
            parse_parallelism("process:lots")

    @pytest.mark.parametrize("spec", ["thread:2", "thread", "threads:4"])
    def test_thread_specs_are_rejected(self, spec):
        with pytest.raises(ChaseError) as info:
            parse_parallelism(spec)
        message = str(info.value)
        for form in ("serial", "process[:N]", "N"):
            assert form in message

    def test_chase_worker_budget_arithmetic(self):
        # jobs x chase workers never exceeds the cpu budget
        assert chase_worker_budget(jobs=1, requested=4, cpu_count=8) == 4
        assert chase_worker_budget(jobs=2, requested=4, cpu_count=8) == 4
        assert chase_worker_budget(jobs=4, requested=4, cpu_count=8) == 2
        assert chase_worker_budget(jobs=8, requested=4, cpu_count=8) == 1
        assert chase_worker_budget(jobs=3, requested=8, cpu_count=8) == 2
        assert chase_worker_budget(jobs=1, requested=2, cpu_count=1) == 1
        # degenerate inputs stay sane
        assert chase_worker_budget(jobs=0, requested=4, cpu_count=4) == 4
        assert chase_worker_budget(jobs=2, requested=0, cpu_count=8) == 1

    def test_effective_parallelism_caps_and_canonicalizes(self):
        assert effective_parallelism("process:4", jobs=1, cpu_count=8) == "process:4"
        assert effective_parallelism("process:4", jobs=4, cpu_count=8) == "process:2"
        assert effective_parallelism("process:4", jobs=8, cpu_count=8) == "serial"
        assert effective_parallelism("process", jobs=2, cpu_count=4) == "process:2"
        assert effective_parallelism("serial", jobs=1, cpu_count=8) == "serial"

    def test_create_sharder_modes(self):
        assert type(create_sharder("serial")) is MatchSharder
        process = create_sharder("process:2")
        if "fork" in multiprocessing.get_all_start_methods():
            assert isinstance(process, ProcessSharder)
            assert process.workers == 2
        else:
            assert type(process) is MatchSharder

    def test_describe(self):
        assert MatchSharder().describe() == "serial"
        assert ProcessSharder(4).describe() == "process:4"

    def test_describe_reports_degradation(self):
        sharder = ProcessSharder(4)
        sharder._broken = True
        assert sharder.describe() == "serial (degraded from process:4)"

    def test_worker_death_degrades_to_serial(self):
        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("needs fork")
        deps = [
            tgd(
                Conjunction(atoms=(Atom("S", (x, y)), Atom("R", (y, z)))),
                (Atom("T", (x, z)),),
                name="join",
            ),
        ]
        source = _dense_pair_instance()
        engine = StandardChase(deps, ("S", "R"))
        working = Instance()
        for fact in source:
            working.add(fact)
        working.bump_generation()
        sharder = ProcessSharder(2)
        sharder.begin_run(working, engine.compiled)
        try:
            for process in sharder._processes:
                process.terminate()
                process.join()
            sharder.begin_round(None, None)
            matches = sharder.enumerate_matches(0)
            assert sharder._broken
            serial = engine.compiled[0].premise_matches(working, None)
            assert sorted(
                tuple(sorted(b.items())) for b in matches
            ) == sorted(tuple(sorted(b.items())) for b in serial)
        finally:
            sharder.end_run()


class TestProbeView:
    def test_read_surface_delegates(self):
        instance = _dense_pair_instance(10)
        view = instance.probe_view()
        assert isinstance(view, ProbeView)
        assert len(view) == len(instance)
        assert view.size("S") == instance.size("S")
        assert set(view.facts("S")) == set(instance.facts("S"))
        assert view.relations() == instance.relations()
        assert view.key_count("S", (0,)) == instance.key_count("S", (0,))
        assert view.current_generation == instance.current_generation
        some_fact = next(iter(instance))
        assert some_fact in view
        assert view.index("S", (0,)) is instance.index("S", (0,))

    def test_no_mutation_surface(self):
        view = _dense_pair_instance(4).probe_view()
        for forbidden in ("add", "add_all", "remove", "apply_null_map",
                          "bump_generation"):
            assert not hasattr(view, forbidden)


class TestSerialFallback:
    """A process spec the caller cannot honour chases serially: the
    result is bit-identical to a serial run and says ``serial``."""

    def _chase(self, parallelism):
        deps = [
            tgd(
                Conjunction(atoms=(Atom("S", (x, y)), Atom("R", (y, z)))),
                (Atom("T", (x, z)),),
                name="join",
            ),
        ]
        return StandardChase(
            deps, ("S", "R"), ChaseConfig(parallelism=parallelism)
        ).run(_dense_pair_instance())

    def _assert_serial_fallback(self):
        assert type(create_sharder("process:3")) is MatchSharder
        serial = self._chase("serial")
        fallback = self._chase("process:3")
        _compare_results(serial, fallback, "fallback")
        assert fallback.stats.tgd_fires == serial.stats.tgd_fires
        assert fallback.sharding == "serial"

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


class TestVerifierCap:
    def test_violations_capped_to_the_uncapped_prefix(self):
        # An empty target violates every premise match; the capped
        # report keeps exactly the first violations of an uncapped one.
        spec = list(get_corpus("smoke"))[0]
        built = spec.build()
        verifier = ScenarioVerifier(built.scenario, built.instance)
        uncapped = verifier.verify(Instance())
        capped = verifier.verify(Instance(), max_violations=3)
        assert not capped.ok and len(uncapped.violations) > 3
        assert [str(v) for v in capped.violations] == [
            str(v) for v in uncapped.violations[:3]
        ]
        assert capped.premise_matches == uncapped.premise_matches


@pytest.mark.skipif(os.cpu_count() is None, reason="cpu_count unavailable")
def test_chase_result_records_sharding():
    deps = [
        tgd(
            Conjunction(atoms=(Atom("S", (x, y)),)),
            (Atom("T", (x, y)),),
            name="copy",
        ),
    ]
    source = _dense_pair_instance(8)
    serial = StandardChase(deps, ("S", "R")).run(source)
    assert serial.sharding == "serial"
    forked = StandardChase(
        deps, ("S", "R"), ChaseConfig(parallelism="process:2")
    ).run(source)
    if "fork" in multiprocessing.get_all_start_methods():
        assert forked.sharding == "process:2"
    else:
        assert forked.sharding == "serial"
