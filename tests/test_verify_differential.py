"""Differential suite: the encoded verifier against the decoded oracle.

:class:`~repro.core.verify.ScenarioVerifier` checks premise rows and
conclusion probes on the columnar kernel and decodes only violations.
Over every pipeline spec of the shared corpus (``tests/corpus.py``) and
over deliberately broken candidates — the chased target minus one fact,
plus one fact that contradicts an existing one, and the empty target —
its report must equal the decoded per-binding oracle's
(``tests/verify_oracle.py``): ``ok``, the check counts,
``premise_matches`` and the violation list, in order and under the
``max_violations`` cap.  On the columnar kernel with set-based
candidates, with candidates handed in already encoded (a
:class:`~repro.relational.kernel.ColumnarInstance`, read without
decoding), and under the reference evaluator.
"""

from __future__ import annotations

import pickle
from contextlib import nullcontext
from functools import lru_cache

import pytest

from repro.chase.ded import GreedyDedChase
from repro.core.rewriter import rewrite
from repro.core.verify import (
    ScenarioVerifier,
    semantic_target,
    target_side,
    verify_solution,
)
from repro.logic.atoms import Atom
from repro.logic.terms import Constant
from repro.obs.recorder import FlightRecorder
from repro.pipeline import run_rewritten, run_scenario
from repro.relational.instance import Instance
from repro.relational.kernel import ColumnarInstance
from repro.relational.query import reference_evaluator
from repro.runtime.corpus import get_corpus

from corpus import (
    ded_sweep_dependencies,
    ded_sweep_instance,
    ded_sweep_relations,
    pipeline_specs,
)
from verify_oracle import oracle_verify

SPECS = pipeline_specs()
MODES = ["serial", "columnar", "reference"]


@lru_cache(maxsize=None)
def _chased(label):
    spec = next(s for s in SPECS if s.label == label)
    built = spec.build()
    outcome = run_rewritten(
        built.scenario, rewrite(built.scenario), built.instance, verify=False
    )
    return built.scenario, built.instance, outcome.target, outcome.chase.ok


def _contradicting(fact: Atom) -> Atom:
    """``fact`` with its last term replaced by a fresh constant of the
    same type: a second value under any key the other positions form."""
    terms = list(fact.terms)
    value = getattr(terms[-1], "value", None)
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        terms[-1] = Constant("violation")
    elif isinstance(value, int):
        terms[-1] = Constant(value + 1_000_003)
    else:
        terms[-1] = Constant(value + "~violation")
    return Atom(fact.relation, tuple(terms))


def _candidates(target: Instance):
    facts = sorted(target, key=str)
    yield "chased", target, 100
    if not facts:
        return
    dropped = Instance()
    dropped.add_all(facts[1:])
    yield "dropped", dropped, 100
    added = Instance()
    added.add_all(facts)
    added.add(_contradicting(facts[0]))
    yield "added", added, 100
    yield "empty-capped", Instance(), 3


def _assert_same(report, expected, label):
    assert report.ok == expected.ok, label
    assert report.mappings_checked == expected.mappings_checked, label
    assert report.constraints_checked == expected.constraints_checked, label
    assert report.premise_matches == expected.premise_matches, label
    assert report.violations == expected.violations, label
    assert [str(v) for v in report.violations] == [
        str(v) for v in expected.violations
    ], label


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("label", [s.label for s in SPECS])
def test_encoded_verifier_matches_oracle(label, mode):
    scenario, source, target, solved = _chased(label)
    context = reference_evaluator() if mode == "reference" else nullcontext()
    with context:
        verifier = ScenarioVerifier(scenario, source)
        for name, candidate, cap in _candidates(target):
            if mode == "columnar":
                encoded = ColumnarInstance()
                encoded.add_all(candidate)
                report = verifier.verify(encoded, max_violations=cap)
            else:
                report = verifier.verify(candidate, max_violations=cap)
            expected = oracle_verify(
                scenario,
                verifier._encoded_source(),
                target_side(scenario, candidate),
                max_violations=cap,
            )
            _assert_same(report, expected, f"{label}/{name}/{mode}")


def test_broken_candidates_are_caught():
    """The suite is not vacuous: broken candidates fail verification."""
    failed = {"dropped": 0, "added": 0, "empty-capped": 0}
    for spec in SPECS:
        scenario, source, target, solved = _chased(spec.label)
        verifier = ScenarioVerifier(scenario, source)
        for name, candidate, cap in _candidates(target):
            report = verifier.verify(candidate, max_violations=cap)
            if name == "chased":
                # A failed chase leaves a target that is no solution.
                assert report.ok == solved, spec.label
            elif not report.ok:
                failed[name] += 1
                assert len(report.violations) <= cap
    assert failed["dropped"] >= len(SPECS) // 2, failed
    assert failed["added"] >= 5, failed
    assert failed["empty-capped"] >= len(SPECS) // 2, failed


@pytest.mark.parametrize("label", [s.label for s in SPECS[::7]])
def test_target_side_matches_decoded_semantic_target(label):
    """The encoded target side holds exactly the facts of the decoded
    ``J_T ∪ Υ_T(J_T)``, and the oracle reaches the same verdict over
    either (violations compared as sets: the decoded store enumerates
    in a different order)."""
    scenario, source, target, solved = _chased(label)
    for name, candidate, _cap in _candidates(target):
        side = target_side(scenario, candidate)
        decoded = semantic_target(scenario, candidate)
        assert side == decoded, f"{label}/{name}"
        verifier = ScenarioVerifier(scenario, source)
        report = verifier.verify(candidate, max_violations=10**6)
        expected = oracle_verify(
            scenario, verifier.source_side, decoded, max_violations=10**6
        )
        assert report.ok == expected.ok
        assert report.premise_matches == expected.premise_matches
        assert sorted(map(str, report.violations)) == sorted(
            map(str, expected.violations)
        )


def test_columnar_and_decoded_candidates_agree():
    label = next(s.label for s in SPECS if _chased(s.label)[3])
    scenario, source, target, _solved = _chased(label)
    store = ColumnarInstance()
    store.add_all(target)
    verifier = ScenarioVerifier(scenario, source)
    for candidate in (store, target):
        report = verifier.verify(candidate)
        assert report.ok
    assert verify_solution(scenario, source, store).premise_matches == (
        verify_solution(scenario, source, target).premise_matches
    )


class TestBoundaryDecodes:
    def test_pipeline_decodes_only_its_target(self):
        from repro.scenarios.running_example import (
            build_scenario,
            generate_source_instance,
        )

        recorder = FlightRecorder()
        result = run_scenario(
            build_scenario(),
            generate_source_instance(products=30, stores=3, seed=5),
            recorder=recorder,
        )
        assert result.ok
        assert result.target.schema is not None
        counters = recorder.metrics.snapshot()["counters"]
        # One decode, into PipelineResult.target; the chase's own target
        # (auxiliary relations included) was never read.
        assert counters["kernel.decoded_rows"] == len(result.target)

    def test_batch_summary_sums_decoded_rows(self):
        from repro.runtime.corpus import get_corpus
        from repro.runtime.executor import BatchOptions, run_batch

        report = run_batch(get_corpus("smoke").limited(3), BatchOptions(trace=True))
        decoded = report.summary.kernel_metrics["kernel.decoded_rows"]
        assert decoded == sum(record.target_facts for record in report.records) > 0

    def test_greedy_sweep_decodes_only_the_returned_target(self):
        # Two two-branch deds whose equality branches fail: the sweep
        # fails three selections before the all-insert one succeeds.
        recorder = FlightRecorder()
        result = GreedyDedChase(
            list(ded_sweep_dependencies(deds=2)), ded_sweep_relations(deds=2)
        ).run(ded_sweep_instance(deds=2), recorder=recorder)
        assert result.ok and result.scenarios_tried == 4
        counters = recorder.metrics.snapshot()["counters"]
        assert counters.get("kernel.decoded_rows", 0) == 0
        target = result.target
        counters = recorder.metrics.snapshot()["counters"]
        assert counters["kernel.decoded_rows"] == len(target) > 0
        assert result.target is target  # decoded once, then cached

    def test_pickled_result_ships_the_decoded_target(self):
        result = GreedyDedChase(
            list(ded_sweep_dependencies(deds=2)), ded_sweep_relations(deds=2)
        ).run(ded_sweep_instance(deds=2))
        state = result.__getstate__()
        assert state["_pending"] is None
        assert isinstance(state["_target"], Instance)
        assert pickle.loads(pickle.dumps(result)).target == result.target


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
