"""Property-based determinism tests over the scenario generators.

Hypothesis drives :mod:`repro.scenarios.generators` with random seeds
and shape parameters, and asserts the engine's central invariant: one
generated scenario chases to the *same* result — fingerprint-identical
targets, same status, same number of scenarios tried — whichever
execution strategy runs it (serial or process-sharded).
A second property pins the DSL round-trip: a generated scenario
serializes and re-parses fingerprint-identically, whatever the
generator produced.

Profiles (registered in ``tests/conftest.py``): the default ``dev``
profile keeps examples low for the tier-1 suite, CI runs the fixed
``ci`` profile, and ``make fuzz`` runs the deeper ``deep`` profile.
Failing seeds found by fuzzing are **pinned in the repo** as
``@example(...)`` lines below, so every future run re-checks them
first; to reproduce a failure locally, run the test with the seed from
the failure report, e.g.::

    PYTHONPATH=src python -m pytest tests/test_property_parallel.py \
        -q -k modes_agree --hypothesis-seed=<seed>
"""

from __future__ import annotations

import hypothesis.strategies as st
from hypothesis import HealthCheck, example, given, settings

from repro.chase.engine import ChaseConfig
from repro.core.rewriter import rewrite
from repro.dsl.parser import parse_scenario
from repro.dsl.serializer import serialize_scenario
from repro.pipeline import run_rewritten
from repro.runtime.fingerprint import (
    canonical_scenario,
    fingerprint_instance,
    fingerprint_scenario,
)
from repro.scenarios.generators import random_scenario

# The execution strategies every scenario must agree with the serial
# baseline across: the forked sharded enumerate phase.
MODE_CONFIGS = [
    ("process-sharded", ChaseConfig(parallelism="process:2")),
]


def _chase_signature(outcome):
    """Everything that must match across execution strategies."""
    return (
        outcome.chase.status,
        fingerprint_instance(outcome.target),
        outcome.chase.scenarios_tried,
        outcome.chase.scenarios_pruned,
        outcome.chase.branch_selection,
        outcome.chase.stats.rounds,
        outcome.chase.stats.premise_matches,
        outcome.chase.stats.nulls_created,
        outcome.chase.failure_reason,
        outcome.verification.ok if outcome.verification is not None else None,
    )


@settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    seed=st.integers(min_value=0, max_value=100_000),
    negation=st.sampled_from([0.0, 0.4, 0.8]),
    union=st.sampled_from([0.0, 0.3, 0.6]),
    with_keys=st.booleans(),
)
# Pinned seeds: shapes that historically exercised tricky paths — a
# key egd over a unioned+negated view (ded sweep with failing equality
# branches) and a negation-heavy rewriting.  Keep them forever; they
# run first on every invocation.
@example(seed=7, negation=0.8, union=0.6, with_keys=True)
@example(seed=42, negation=0.4, union=0.3, with_keys=True)
@example(seed=1312, negation=0.8, union=0.0, with_keys=False)
def test_generated_scenarios_chase_identically_across_modes(
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
    baseline = run_rewritten(
        generated.scenario, rewritten, generated.instance, verify=True
    )
    expected = _chase_signature(baseline)
    for label, config in MODE_CONFIGS:
        outcome = run_rewritten(
            generated.scenario,
            rewritten,
            generated.instance,
            verify=True,
            config=config,
        )
        assert _chase_signature(outcome) == expected, label


@settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    seed=st.integers(min_value=0, max_value=100_000),
    relations=st.integers(min_value=1, max_value=4),
    views=st.integers(min_value=1, max_value=5),
    negation=st.sampled_from([0.0, 0.5, 1.0]),
    union=st.sampled_from([0.0, 0.5, 1.0]),
)
# Pinned: maximal negation+union density, the shape most likely to
# stress serializer/parser corners.
@example(seed=9, relations=4, views=5, negation=1.0, union=1.0)
@example(seed=77, relations=1, views=1, negation=0.0, union=0.0)
def test_generated_scenarios_roundtrip_fingerprint_identically(
    seed, relations, views, negation, union
):
    generated = random_scenario(
        seed=seed,
        relations=relations,
        views=views,
        negation_probability=negation,
        union_probability=union,
        instance_rows=0,
    )
    document = parse_scenario(serialize_scenario(generated.scenario))
    assert fingerprint_scenario(document.scenario) == fingerprint_scenario(
        generated.scenario
    ), (
        "round-trip drifted; canonical diff:\n"
        f"{canonical_scenario(generated.scenario)}\nvs\n"
        f"{canonical_scenario(document.scenario)}"
    )


@settings(
    deadline=None,
    max_examples=15,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(seed=st.integers(min_value=0, max_value=10_000))
@example(seed=3)
def test_rerunning_one_mode_is_deterministic(seed):
    """The same config twice gives byte-identical targets — no hidden
    dependence on worker scheduling or hash seeds."""
    generated = random_scenario(seed=seed, instance_rows=8)
    rewritten = rewrite(generated.scenario)
    config = ChaseConfig(parallelism="process:2")
    first = run_rewritten(
        generated.scenario, rewritten, generated.instance,
        verify=False, config=config,
    )
    second = run_rewritten(
        generated.scenario, rewritten, generated.instance,
        verify=False, config=config,
    )
    assert first.chase.status == second.chase.status
    assert first.target == second.target
    assert fingerprint_instance(first.target) == fingerprint_instance(
        second.target
    )
