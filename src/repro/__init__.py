"""GROM: a General Rewriter of Semantic Mappings — full reproduction.

Reproduces the system demonstrated in *"GROM: a General Rewriter of
Semantic Mappings"* (Mecca, Rull, Santoro, Teniente — EDBT 2016):
mappings designed over virtual, view-based *semantic schemas* are
rewritten into executable dependencies over the underlying physical
databases and run by a chase engine, with special machinery (greedy ded
chase, static analysis) for the disjunctive dependencies that negation
in view definitions induces.

Typical use::

    from repro import run_scenario
    from repro.scenarios import build_scenario, generate_source_instance

    scenario = build_scenario()                      # the paper's Section 2
    source = generate_source_instance(products=100)
    outcome = run_scenario(scenario, source)
    print(outcome.chase)                             # chase stats
    print(outcome.verification)                      # soundness check

Subpackages: :mod:`repro.logic` (terms/atoms/dependencies),
:mod:`repro.relational` (schemas/instances/evaluation),
:mod:`repro.datalog` (view language), :mod:`repro.core` (the rewriter),
:mod:`repro.chase` (chase engines), :mod:`repro.scenarios` (workloads),
:mod:`repro.dsl` (textual scenario format), :mod:`repro.obs` (the
flight recorder: spans, metrics, trace files, phase profiling).
"""

from repro.chase import (
    ChaseConfig,
    ChaseResult,
    ChaseStatus,
    DisjunctiveChase,
    GreedyDedChase,
    StandardChase,
    disjunctive_chase,
    greedy_ded_chase,
    is_weakly_acyclic,
)
from repro.core import (
    MappingScenario,
    RewriteResult,
    analyze,
    extend_source,
    predict_deds,
    rewrite,
    verify_solution,
)
from repro.datalog import Rule, ViewProgram, materialize
from repro.logic import (
    Atom,
    Comparison,
    Conjunction,
    Constant,
    Dependency,
    DependencyKind,
    Disjunct,
    Equality,
    NegatedConjunction,
    Null,
    Substitution,
    Variable,
    ded,
    denial,
    egd,
    tgd,
)
from repro.obs import (
    FlightRecorder,
    TraceConfig,
    profile_trace,
    read_trace,
    render_profile,
    write_trace,
)
from repro.pipeline import (
    PipelineResult,
    run_rewritten,
    run_scenario,
    strip_auxiliary,
)
from repro.relational import DataType, Instance, Relation, Schema
from repro.runtime import (
    BatchOptions,
    BatchReport,
    Corpus,
    RewriteCache,
    ScenarioSpec,
    fingerprint_instance,
    fingerprint_scenario,
    get_corpus,
    run_batch,
)

__version__ = "1.1.0"

__all__ = [
    "__version__",
    # pipeline
    "run_scenario",
    "run_rewritten",
    "PipelineResult",
    "strip_auxiliary",
    # batch runtime
    "run_batch",
    "BatchOptions",
    "BatchReport",
    "Corpus",
    "ScenarioSpec",
    "get_corpus",
    "RewriteCache",
    "fingerprint_scenario",
    "fingerprint_instance",
    # observability
    "TraceConfig",
    "FlightRecorder",
    "read_trace",
    "write_trace",
    "profile_trace",
    "render_profile",
    # core
    "MappingScenario",
    "rewrite",
    "RewriteResult",
    "predict_deds",
    "analyze",
    "extend_source",
    "verify_solution",
    # chase
    "StandardChase",
    "GreedyDedChase",
    "DisjunctiveChase",
    "greedy_ded_chase",
    "disjunctive_chase",
    "ChaseConfig",
    "ChaseResult",
    "ChaseStatus",
    "is_weakly_acyclic",
    # datalog
    "Rule",
    "ViewProgram",
    "materialize",
    # relational
    "Schema",
    "Relation",
    "Instance",
    "DataType",
    # logic
    "Atom",
    "Comparison",
    "Conjunction",
    "Constant",
    "Dependency",
    "DependencyKind",
    "Disjunct",
    "Equality",
    "NegatedConjunction",
    "Null",
    "Substitution",
    "Variable",
    "tgd",
    "egd",
    "ded",
    "denial",
]
