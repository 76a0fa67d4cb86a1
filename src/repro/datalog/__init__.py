"""Stratified Datalog with negation: the view-definition language.

The paper adopts this language for semantic-schema definitions because
conjunctive views cannot express disjointness constraints and
classification rules.  This package defines programs (:class:`Rule`,
:class:`ViewProgram`), their dependency analysis (stratification,
recursion check) and semi-naive bottom-up materialization ``Υ(I)``.
The rewriter's unfolding contract stays non-recursive; the evaluator
additionally handles positive recursion (any stratified program) via
per-component fixpoints on the shared delta engine.
"""

from repro.datalog.evaluate import (
    SemanticDatabase,
    evaluate_view,
    materialize,
    view_extent,
)
from repro.datalog.program import Rule, ViewProgram
from repro.datalog.stratify import (
    check_nonrecursive,
    depends_on,
    evaluation_order,
    predicate_graph,
    strata,
    stratified_components,
)

__all__ = [
    "Rule",
    "SemanticDatabase",
    "ViewProgram",
    "check_nonrecursive",
    "depends_on",
    "evaluation_order",
    "predicate_graph",
    "strata",
    "stratified_components",
    "materialize",
    "evaluate_view",
    "view_extent",
]
