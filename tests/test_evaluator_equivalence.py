"""Differential test: compiled lazy evaluator vs. the materialized reference.

The query-evaluator overhaul must not change a single chase result.  We
run the full pipeline (rewrite once, chase + verify per evaluator) over
every scenario of the default ``mixed`` corpus — all families, all sweep
axes, 52 scenarios — once on the columnar engine and once on the
set-based chase oracle (``tests/kernel_oracle.py``) under the reference
evaluator, and require equal outcomes: same chase status and a
fingerprint-identical target (falling back to homomorphic equivalence if
labeled-null names ever diverge).
"""

import pytest

from repro.core.rewriter import rewrite
from repro.logic.homomorphism import homomorphically_equivalent
from repro.pipeline import run_rewritten
from repro.runtime.fingerprint import fingerprint_instance

from corpus import pipeline_specs
from kernel_oracle import oracle_kernel

CORPUS = pipeline_specs()


@pytest.mark.parametrize("spec", CORPUS, ids=[s.label for s in CORPUS])
def test_chase_results_identical_across_evaluators(spec):
    built = spec.build()
    rewritten = rewrite(built.scenario)

    compiled = run_rewritten(built.scenario, rewritten, built.instance, verify=True)
    with oracle_kernel(reference=True):
        reference = run_rewritten(
            built.scenario, rewritten, built.instance, verify=True
        )

    assert compiled.chase.status == reference.chase.status, spec.label
    if compiled.verification is not None or reference.verification is not None:
        assert compiled.verification.ok == reference.verification.ok, spec.label
    if not compiled.chase.ok:
        return
    fast, slow = compiled.target, reference.target
    if fingerprint_instance(fast) == fingerprint_instance(slow):
        return
    assert homomorphically_equivalent(list(fast), list(slow)), (
        f"{spec.label}: targets differ beyond null renaming"
    )
