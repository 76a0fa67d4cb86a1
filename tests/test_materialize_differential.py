"""Differential test: semi-naive materialization vs. the naive reference.

The semi-naive engine must not change a single view extent.  Mirroring
the PR 2 evaluator-equivalence suite, we sweep every scenario of the
default ``mixed`` corpus — all families, all sweep axes, 52 scenarios —
and require, for each view program the scenario carries (source and
target side):

* identical extents from :func:`materialize` (semi-naive fixpoint) and
  ``materialize_naive`` (full re-evaluation until no change; the test
  oracle in ``tests/kernel_oracle.py``), and
* identical extents when the base facts arrive *incrementally* through
  a :class:`SemanticDatabase` in several batches instead of one cold
  materialization — the path the shared-verification plumbing uses.

A recursive transitive-closure program rides along as the case the old
single-pass evaluator got wrong (it either rejected recursion outright
or stopped after one pass, missing longer paths).
"""

import pytest

from repro.datalog.evaluate import SemanticDatabase, materialize
from repro.pipeline import run_scenario

from corpus import pipeline_specs
from kernel_oracle import materialize_naive

CORPUS = pipeline_specs()


def _programs_and_instances(spec):
    """Every (program, instance) pair a scenario exercises."""
    built = spec.build()
    scenario, instance = built.scenario, built.instance
    pairs = []
    if scenario.source_views is not None:
        pairs.append((scenario.source_views, instance))
    if scenario.target_views is not None:
        outcome = run_scenario(scenario, instance, verify=False)
        if outcome.chase.ok:
            pairs.append((scenario.target_views, outcome.target))
    return pairs


@pytest.mark.parametrize("spec", CORPUS, ids=[s.label for s in CORPUS])
def test_seminaive_extents_match_naive_reference(spec):
    for program, instance in _programs_and_instances(spec):
        fast = materialize(program, instance, include_base=True)
        slow = materialize_naive(program, instance, include_base=True)
        assert fast == slow, spec.label


@pytest.mark.parametrize("spec", CORPUS, ids=[s.label for s in CORPUS])
def test_incremental_database_matches_cold_materialization(spec):
    for program, instance in _programs_and_instances(spec):
        facts = sorted(instance, key=str)
        database = SemanticDatabase(program)
        # Feed the base facts in three refresh batches: each refresh
        # must re-establish the exact fixpoint (including the negation
        # rebuild rule) the cold run computes in one go.
        third = max(1, len(facts) // 3)
        for start in range(0, len(facts), third):
            database.add_facts(facts[start : start + third])
            database.refresh()
        database.refresh()
        cold = materialize_naive(program, instance)
        for view in program.view_names():
            assert database.instance.facts(view) == cold.facts(view), (
                f"{spec.label}: view {view} diverges incrementally"
            )
