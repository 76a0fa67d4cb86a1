"""Differential suite: columnar kernel vs the reference set-based kernel.

The columnar instance kernel replaces the chase's storage layer
wholesale — interned terms, struct-of-arrays columns, encoded join
probes, encoded match shipping.  Its correctness contract is that none
of that is observable: every scenario must chase to a *bit-identical*
outcome whichever kernel runs it, under every execution strategy.

Three layers enforce the contract:

* a corpus-wide sweep (every scenario of the default ``mixed`` corpus)
  comparing the columnar serial pipeline against the reference kernel;
* the same comparison with the columnar side sharded (``process:2`` —
  the encoded enumerate phase and forked replicas replaying encoded
  fact/pool/null-map events);
* a Hypothesis property driving :func:`random_scenario` shapes through
  both kernels (pinned regression seeds stay as ``@example`` lines).

The signature includes the chase status and failure reason, the target
fingerprint, round/match/null counters and the per-round delta windows
— if a kernel diverges anywhere the paper's semantics can see, one of
these trips.
"""

from __future__ import annotations

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, example, given, settings

from repro.chase.engine import ChaseConfig
from repro.core.rewriter import rewrite
from repro.pipeline import run_rewritten, run_scenario
from repro.runtime.fingerprint import fingerprint_instance
from repro.scenarios.generators import random_scenario

from corpus import pipeline_specs

CORPUS = pipeline_specs()

REFERENCE = ChaseConfig(kernel="reference")

#: Columnar execution strategies that must match the reference kernel.
COLUMNAR_CONFIGS = [
    ("columnar-serial", ChaseConfig()),
    ("columnar-process:2", ChaseConfig(parallelism="process:2")),
]


def _signature(outcome):
    """Everything that must match across kernels and strategies."""
    return (
        outcome.chase.status,
        outcome.chase.failure_reason,
        fingerprint_instance(outcome.target),
        outcome.chase.scenarios_tried,
        outcome.chase.branch_selection,
        outcome.chase.stats.rounds,
        outcome.chase.stats.premise_matches,
        outcome.chase.stats.nulls_created,
        outcome.verification.ok if outcome.verification is not None else None,
    )


@pytest.mark.parametrize("spec", CORPUS, ids=[s.label for s in CORPUS])
def test_columnar_matches_reference_kernel_corpus_wide(spec):
    built = spec.build()
    rewritten = rewrite(built.scenario)
    reference = run_rewritten(
        built.scenario, rewritten, built.instance, config=REFERENCE
    )
    expected = _signature(reference)
    for label, config in COLUMNAR_CONFIGS:
        outcome = run_rewritten(
            built.scenario, rewritten, built.instance, config=config
        )
        assert _signature(outcome) == expected, f"{spec.label}: {label}"


def test_kernels_agree_on_delta_windows():
    """The encoded ``facts_since`` window decodes to the reference one.

    Chase both kernels over one scenario and compare the *final* target
    plus every relation's fact set — then replay a fresh chase and
    compare the decoded per-generation windows of the working columnar
    instance against the reference instance's, which pins the insertion
    -log semantics (dedup, tombstones, collapse rewrites) and not just
    the end state.
    """
    spec = CORPUS[0]
    built = spec.build()
    columnar = run_scenario(built.scenario, built.instance)
    reference = run_scenario(
        built.scenario, built.instance, config=REFERENCE
    )
    col_target, ref_target = columnar.target, reference.target
    assert fingerprint_instance(col_target) == fingerprint_instance(
        ref_target
    )
    relations = set(col_target.relations()) | set(ref_target.relations())
    for relation in sorted(relations):
        assert col_target.facts(relation) == ref_target.facts(relation), (
            relation
        )


@settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    seed=st.integers(min_value=0, max_value=100_000),
    negation=st.sampled_from([0.0, 0.4, 0.8]),
    union=st.sampled_from([0.0, 0.3, 0.6]),
    with_keys=st.booleans(),
)
# Pinned shapes mirroring the parallel-determinism property suite: a
# key egd over a unioned+negated view and a negation-heavy rewriting.
@example(seed=7, negation=0.8, union=0.6, with_keys=True)
@example(seed=42, negation=0.4, union=0.3, with_keys=True)
@example(seed=1312, negation=0.8, union=0.0, with_keys=False)
def test_generated_scenarios_chase_identically_across_kernels(
    seed, negation, union, with_keys
):
    generated = random_scenario(
        seed=seed,
        negation_probability=negation,
        union_probability=union,
        with_keys=with_keys,
        instance_rows=10,
    )
    rewritten = rewrite(generated.scenario)
    reference = run_rewritten(
        generated.scenario,
        rewritten,
        generated.instance,
        verify=True,
        config=REFERENCE,
    )
    columnar = run_rewritten(
        generated.scenario, rewritten, generated.instance, verify=True
    )
    assert _signature(columnar) == _signature(reference)
