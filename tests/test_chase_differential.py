"""Differential suite for the chase's execution variants.

Every registered chase case of ``tests/corpus.py`` (failing, recursive,
disjunctive, Bloom-spill) must chase to a *bit-identical* result on
the default configuration and on each variant:

* ``oracle`` — the set-based chase oracle of ``tests/kernel_oracle.py``
  instead of the columnar engine, and ``oracle-reference`` — the same
  under ``reference_evaluator()``;
* ``traced`` — the flight recorder enabled: instrumentation observes
  the chase and never steers it;

and a chase engine reused for a second run must repeat its first.  The
smoke corpus and a flagged ded sweep go through the whole pipeline
(compose, chase, verify) traced and untraced.
"""

import dataclasses
from contextlib import nullcontext

import pytest

from repro.chase.ded import GreedyDedChase
from repro.chase.engine import ChaseConfig, StandardChase
from repro.core.rewriter import rewrite
from repro.obs.recorder import TraceConfig
from repro.pipeline import run_rewritten
from repro.runtime.corpus import get_corpus
from repro.runtime.corpus import spec as make_spec

from corpus import BLOOM_SPILL, chase_cases
from kernel_oracle import OracleChase, oracle_kernel

#: How each variant changes a case's own config.
VARIANTS = {
    "oracle": {},
    "oracle-reference": {},
    "traced": {"trace": TraceConfig(enabled=True)},
}


def _variant_config(config, variant):
    return dataclasses.replace(config or ChaseConfig(), **VARIANTS[variant])


def _on_oracle(variant):
    return variant is not None and variant.startswith("oracle")


def _variant_kernel(variant):
    """The context the variant's chases run in."""
    if not _on_oracle(variant):
        return nullcontext()
    return oracle_kernel(reference=variant == "oracle-reference")


def _engine(setup, config, variant=None):
    dependencies = list(setup.dependencies)
    if any(d.is_ded() for d in dependencies):
        return GreedyDedChase(dependencies, setup.source_relations, config)
    chase = OracleChase if _on_oracle(variant) else StandardChase
    return chase(dependencies, setup.source_relations, config)


def _compare_results(expected, actual, label):
    assert actual.status == expected.status, label
    assert actual.target == expected.target, label
    assert actual.failure_reason == expected.failure_reason, label
    assert actual.stats.nulls_created == expected.stats.nulls_created, label
    assert actual.stats.premise_matches == expected.stats.premise_matches, label
    assert actual.stats.rounds == expected.stats.rounds, label
    assert actual.stats.egd_unifications == expected.stats.egd_unifications, label
    assert actual.scenarios_tried == expected.scenarios_tried, label
    assert actual.branch_selection == expected.branch_selection, label


class TestChaseCaseDifferential:
    @pytest.mark.parametrize("case", chase_cases(), ids=lambda c: c.label)
    @pytest.mark.parametrize("variant", sorted(VARIANTS))
    def test_variant_matches_default(self, case, variant):
        setup = case.build()
        default = _engine(setup, setup.config).run(setup.instance)
        case.check_baseline(default)  # the case still bites
        with _variant_kernel(variant):
            other = _engine(
                setup, _variant_config(setup.config, variant), variant
            ).run(case.build().instance)
        _compare_results(default, other, f"{case.label}/{variant}")
        assert (other.trace is not None) == (variant == "traced")

    @pytest.mark.parametrize("case", chase_cases(), ids=lambda c: c.label)
    def test_rerun_on_one_engine_is_identical(self, case):
        # Trigger memory, enforced positions and plan caches are per
        # run or run-independent: nothing leaks into the next run.
        setup = case.build()
        engine = _engine(setup, setup.config)
        first = engine.run(setup.instance)
        case.check_baseline(first)
        second = engine.run(setup.instance)
        _compare_results(first, second, case.label)
        assert second.enforced == first.enforced, case.label


class TestTriggerMemoryAcrossVariants:
    @pytest.mark.parametrize("variant", sorted(VARIANTS))
    def test_bloom_spill_matches_default(self, variant):
        [case] = chase_cases(require={BLOOM_SPILL})

        def spill(config, variant=None):
            setup = case.build()
            engine = _engine(setup, config, variant)
            with _variant_kernel(variant):
                result = engine.run(setup.instance)
            assert result.ok
            memory = engine._trigger_memory
            assert memory.exact_size == 5
            assert memory.spilled > 0  # the Bloom tier engaged
            return result.target, memory.spilled

        config = case.build().config
        assert spill(_variant_config(config, variant), variant) == spill(config)


def _compare_pipelines(expected, actual, label):
    _compare_results(expected.chase, actual.chase, label)
    assert actual.target == expected.target, label
    assert actual.ok == expected.ok, label
    assert (actual.verification is None) == (expected.verification is None)
    if expected.verification is not None:
        assert actual.verification.ok == expected.verification.ok, label


class TestPipelineTracedDifferential:
    """The full pipeline — compose, chase, verify — traced and untraced."""

    TRACED = ChaseConfig(trace=TraceConfig(enabled=True))

    @pytest.mark.parametrize(
        "spec", list(get_corpus("smoke")), ids=lambda s: s.label
    )
    def test_smoke_corpus_traced_matches_untraced(self, spec):
        built = spec.build()
        rewritten = rewrite(built.scenario)
        untraced = run_rewritten(
            built.scenario, rewritten, built.instance, verify=True
        )
        traced = run_rewritten(
            built.scenario,
            rewritten,
            built.instance,
            verify=True,
            config=self.TRACED,
        )
        _compare_pipelines(untraced, traced, spec.label)
        assert traced.trace is not None and untraced.trace is None

    @pytest.mark.parametrize("variant", sorted(VARIANTS))
    def test_disjunctive_sweep_agrees(self, variant):
        # flagged scenarios rewrite to deds -> the greedy branch search;
        # name pairs put failure pressure on early selections.
        built = make_spec(
            "flagged", flags=2, products=12, name_pairs=2, seed=1
        ).build()
        rewritten = rewrite(built.scenario)
        default = run_rewritten(
            built.scenario, rewritten, built.instance, verify=True
        )
        with _variant_kernel(variant):
            other = run_rewritten(
                built.scenario,
                rewritten,
                built.instance,
                verify=True,
                config=_variant_config(None, variant),
            )
        assert default.chase.scenarios_tried > 1  # the sweep branched
        _compare_pipelines(default, other, variant)
