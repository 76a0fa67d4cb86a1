"""One-call pipeline: rewrite → compose → chase → verify.

This is the whole Figure-2 architecture as a function: the mapping
designer's scenario goes in, a physical target instance comes out, with
the rewriting, the source-view materialization, the (greedy ded) chase
and the soundness verification wired together the way the GROM system
wires its modules.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.analysis import MappingAnalysis, analyze_dependencies
from repro.chase.ded import GreedyDedChase
from repro.chase.engine import ChaseConfig, StandardChase
from repro.chase.result import ChaseResult
from repro.core.compose import extend_source
from repro.core.rewriter import AUX_PREFIX, RewriteResult, rewrite
from repro.core.scenario import MappingScenario
from repro.core.verify import VerificationReport, verify_solution
from repro.obs.recorder import resolve_recorder
from repro.relational.instance import Instance
from repro.relational.schema import Schema

__all__ = ["PipelineResult", "run_scenario", "run_rewritten", "strip_auxiliary"]


@dataclass
class PipelineResult:
    """Everything one end-to-end run produces."""

    rewrite: RewriteResult
    chase: ChaseResult
    target: Instance
    """Physical target instance (auxiliary requirement relations
    stripped), carrying the scenario's target schema.  Built eagerly:
    it is the one place the pipeline decodes the chase's rows."""

    verification: Optional[VerificationReport] = None

    analysis: Optional[MappingAnalysis] = None
    """Static analyzer verdicts for the rewritten dependency set:
    termination class, firing strata, dead dependencies and the coded
    diagnostics ``grom lint`` renders."""

    trace: Optional[dict] = None
    """Flight-recorder payload covering the whole pipeline run, present
    when tracing was enabled via ``config.trace`` and no external
    recorder was passed in."""

    @property
    def ok(self) -> bool:
        verified = self.verification.ok if self.verification else True
        return self.chase.ok and verified


def strip_auxiliary(
    instance: Instance, schema: Optional[Schema] = None
) -> Instance:
    """Drop the rewriter's ``_grom_req_*`` bookkeeping relations.

    When ``schema`` is given (or the input instance carries one), the
    stripped instance keeps it, so downstream consumers can still
    validate facts against the physical target schema instead of
    receiving a schemaless bag of atoms.
    """
    stripped = Instance(schema if schema is not None else instance.schema)
    for relation in instance.relations():
        if not relation.startswith(AUX_PREFIX):
            stripped.add_rows(relation, instance.rows(relation))
    return stripped


def run_scenario(
    scenario: MappingScenario,
    source_instance: Instance,
    verify: bool = True,
    config: Optional[ChaseConfig] = None,
    max_scenarios: int = 256,
    unfold_source_premises: bool = False,
    recorder=None,
) -> PipelineResult:
    """Run the full GROM pipeline on a scenario and a source instance.

    1. rewrite the semantic mappings (``Σ_{V_S,V_T} ∪ Σ_{V_T}`` →
       ``Σ_ST ∪ Σ_T``);
    2. materialize source views (``I_S ∪ Υ_S(I_S)``) unless premises
       were unfolded instead;
    3. chase — the standard engine when the rewriting is ded-free, the
       greedy ded engine otherwise;
    4. verify the produced target against the *original* semantic
       scenario (the paper's soundness contract).

    ``recorder`` follows the engine convention: pass a flight recorder
    to keep the trace, or set ``config.trace`` to have the pipeline own
    one and attach its payload to ``PipelineResult.trace``.  Either way
    the phases show up as ``rewrite`` / ``compose`` / ``chase`` /
    ``verify`` spans.
    """
    rec = resolve_recorder(recorder, config.trace if config else None)
    owned = recorder is None and rec.enabled
    with rec.span("rewrite"):
        rewritten = rewrite(
            scenario, unfold_source_premises=unfold_source_premises
        )
    result = run_rewritten(
        scenario,
        rewritten,
        source_instance,
        verify=verify,
        config=config,
        max_scenarios=max_scenarios,
        unfold_source_premises=unfold_source_premises,
        recorder=rec if rec.enabled else None,
    )
    if owned:
        result.trace = rec.to_payload()
    return result


def run_rewritten(
    scenario: MappingScenario,
    rewritten: RewriteResult,
    source_instance: Instance,
    verify: bool = True,
    config: Optional[ChaseConfig] = None,
    max_scenarios: int = 256,
    unfold_source_premises: bool = False,
    recorder=None,
) -> PipelineResult:
    """Chase + verify with an already-computed rewriting.

    The batch runtime's content-addressed cache stores rewritings keyed
    by scenario fingerprint; this entry point lets a cache hit skip step
    1 of :func:`run_scenario` entirely while keeping the chase and the
    soundness verification identical.  ``unfold_source_premises`` must
    match the flag the rewriting was produced with.
    """
    rec = resolve_recorder(recorder, config.trace if config else None)
    owned = recorder is None and rec.enabled
    if unfold_source_premises:
        chase_input = source_instance
    else:
        with rec.span("compose"):
            chase_input = extend_source(
                scenario, source_instance, recorder=rec if rec.enabled else None
            )

    # Static analysis of the rewritten set: the termination verdict
    # decides whether the chase may drop its guards, and the verdict,
    # strata and diagnostics ride along on the result and the trace.
    with rec.span("analyze"):
        analysis = analyze_dependencies(
            rewritten.dependencies,
            rewritten.source_relations(),
            rewritten.target_relations(),
        )
        if rec.enabled:
            for counter, value in sorted(analysis.counters().items()):
                rec.count(counter, value)

    with rec.span("chase", deds=rewritten.has_deds):
        if rewritten.has_deds:
            engine = GreedyDedChase(
                rewritten.dependencies,
                rewritten.source_relations(),
                config,
                max_scenarios=max_scenarios,
                termination=analysis.termination,
            )
            chase_result = engine.run(chase_input, recorder=rec)
        else:
            standard = StandardChase(
                rewritten.dependencies,
                rewritten.source_relations(),
                config,
                termination=analysis.termination,
            )
            chase_result = standard.run(chase_input, recorder=rec)

    # Strip and verify on the chase's encoded store; the rows decode
    # exactly once, into ``PipelineResult.target``.
    stripped = chase_result.encoded_target(
        keep=lambda relation: not relation.startswith(AUX_PREFIX)
    )
    target = stripped.to_instance(scenario.target_schema)
    rec.count("kernel.decoded_rows", stripped.kernel_stats.decoded_rows)
    verification = None
    if verify and chase_result.ok:
        # The chase input *is* the verifier's source side (I_S ∪ Υ_S(I_S))
        # unless premises were unfolded — then the views were never
        # materialized and the verifier builds them itself.
        with rec.span("verify"):
            verification = verify_solution(
                scenario,
                source_instance,
                stripped,
                source_side=None if unfold_source_premises else chase_input,
            )
        rec.count("verify.checked", 1)
        rec.count("verify.ok", 1 if verification.ok else 0)
    return PipelineResult(
        rewrite=rewritten,
        chase=chase_result,
        target=target,
        verification=verification,
        analysis=analysis,
        trace=rec.to_payload() if owned else None,
    )
