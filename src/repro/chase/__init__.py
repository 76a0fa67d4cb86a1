"""Chase engines: standard (tgd/egd/denial), greedy ded, and disjunctive.

The execution half of GROM (the paper builds on the Llunatic chase
engine and extends it for deds).  :class:`StandardChase` implements the
classical restricted chase; :class:`GreedyDedChase` the paper's greedy
branch-selection strategy; :class:`DisjunctiveChase` the exact
universal-model-set chase used as ground truth.
"""

from repro.analysis.termination import (
    is_weakly_acyclic,
    position_graph,
    weak_acyclicity_report,
)
from repro.chase.ded import GreedyDedChase, branch_cost, greedy_ded_chase
from repro.chase.disjunctive import (
    DisjunctiveChase,
    DisjunctiveResult,
    disjunctive_chase,
)
from repro.chase.engine import ChaseConfig, StandardChase, chase
from repro.chase.parallel import (
    MatchSharder,
    ProcessSharder,
    chase_worker_budget,
    create_sharder,
    effective_parallelism,
    parse_parallelism,
)
from repro.chase.result import ChaseResult, ChaseStats, ChaseStatus
from repro.chase.universal import core_of, is_universal_for, satisfies, violations

__all__ = [
    "ChaseConfig",
    "StandardChase",
    "chase",
    "MatchSharder",
    "ProcessSharder",
    "create_sharder",
    "parse_parallelism",
    "chase_worker_budget",
    "effective_parallelism",
    "ChaseResult",
    "ChaseStats",
    "ChaseStatus",
    "GreedyDedChase",
    "greedy_ded_chase",
    "branch_cost",
    "DisjunctiveChase",
    "DisjunctiveResult",
    "disjunctive_chase",
    "is_weakly_acyclic",
    "position_graph",
    "weak_acyclicity_report",
    "satisfies",
    "violations",
    "is_universal_for",
    "core_of",
]
