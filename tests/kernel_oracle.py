"""Set-based twins of the columnar chase and view fixpoint: test oracles.

The library chases and materializes views on one kernel, the columnar
:class:`~repro.relational.kernel.ColumnarInstance`.  This module keeps
the straightforward decoded forms next to it, so the differential
suites can assert that the kernel is unobservable:

* :class:`OracleChase` — the restricted chase over a plain
  :class:`~repro.relational.instance.Instance`.  Premise matches come
  from the public :func:`~repro.relational.query.evaluate` /
  :func:`~repro.relational.query.evaluate_delta` (so it also runs under
  :func:`~repro.relational.query.reference_evaluator`), each round's
  delta is a set difference of snapshots, and egds unify terms in a
  term-level union-find.  Enforcement replays matches in the engine's
  canonical order, so every invented null id matches the columnar run.
  The target is handed back encoded, like the engine's, so the
  pipeline's one read path consumes it.
* :func:`oracle_kernel` — points the drivers (the pipeline, the greedy
  ded sweep, the disjunctive chase) at :class:`OracleChase` by patching
  their ``StandardChase`` name, optionally under the reference
  evaluator.
* :func:`disjunct_satisfied` — the decoded satisfaction check of one
  conclusion disjunct.
* :func:`materialize_naive` — the naive view fixpoint: every rule of a
  stratum against the full instance, until a whole pass adds nothing.
"""

from __future__ import annotations

import contextlib
import time
from typing import Dict, Iterable, List, Optional, Set
from unittest import mock

from repro.analysis.firing import dead_dependency_indices
from repro.chase.compiled import _ground_check, _resolve
from repro.chase.engine import (
    StandardChase,
    _binding_order,
    _render_binding,
    _TriggerMemory,
)
from repro.chase.result import ChaseResult, ChaseStats, ChaseStatus
from repro.datalog.program import Rule, ViewProgram
from repro.datalog.stratify import stratified_components
from repro.errors import ChaseFailure, ChaseNonTermination, DatalogError
from repro.logic.atoms import Atom, Conjunction
from repro.logic.terms import Null, NullFactory, Term, Variable
from repro.relational.instance import Instance
from repro.relational.kernel import ColumnarInstance
from repro.relational.query import (
    evaluate,
    evaluate_delta,
    exists,
    reference_evaluator,
)

__all__ = [
    "OracleChase",
    "disjunct_satisfied",
    "materialize_naive",
    "oracle_kernel",
]

#: Modules whose ``StandardChase`` name :func:`oracle_kernel` patches.
DRIVERS = ("repro.pipeline", "repro.chase.ded", "repro.chase.disjunctive")


class _NullMap:
    """Union-find over terms, with constants as sinks; a null/null union
    keeps the smaller null id as the root."""

    def __init__(self) -> None:
        self._parent: Dict[Null, Term] = {}

    def find(self, term: Term) -> Term:
        while isinstance(term, Null) and term in self._parent:
            term = self._parent[term]
        return term

    def union(self, left: Term, right: Term, context: str) -> bool:
        left_root, right_root = self.find(left), self.find(right)
        if left_root == right_root:
            return False
        left_null = isinstance(left_root, Null)
        right_null = isinstance(right_root, Null)
        if not left_null and not right_null:
            raise ChaseFailure(
                f"{context}: cannot equate distinct constants "
                f"{left_root} and {right_root}"
            )
        if left_null and right_null:
            if left_root.id < right_root.id:
                self._parent[right_root] = left_root
            else:
                self._parent[left_root] = right_root
        elif left_null:
            self._parent[left_root] = right_root
        else:
            self._parent[right_root] = left_root
        return True

    def resolution(self) -> Dict[Null, Term]:
        return {null: self.find(null) for null in self._parent}


def disjunct_satisfied(disjunct, binding, instance) -> bool:
    """Whether one conclusion disjunct already holds under ``binding``."""
    for equality in disjunct.equalities:
        if _resolve(equality.left, binding) != _resolve(equality.right, binding):
            return False
    for comparison in disjunct.comparisons:
        if not _ground_check(comparison, binding):
            return False
    if not disjunct.atoms:
        return True
    return exists(Conjunction(atoms=disjunct.atoms), instance, seed=binding)


class OracleChase(StandardChase):
    """:class:`~repro.chase.engine.StandardChase` on a set-based working
    instance.  Construction (validation, branch choice, the termination
    proof) is the engine's; the run is this module's.  Tracing is not
    supported: ``recorder`` and ``config.trace`` are ignored."""

    def run(
        self,
        source_instance,
        target_instance=None,
        null_factory: Optional[NullFactory] = None,
        recorder=None,
    ) -> ChaseResult:
        start = time.perf_counter()
        working = Instance()
        for instance in (source_instance, target_instance):
            if instance is not None:
                working.add_all(instance)
        factory = null_factory or NullFactory()
        factory.advance_past(working.nulls())
        stats = ChaseStats()
        status = ChaseStatus.SUCCESS
        reason = ""
        self._enforced: Set[int] = set()
        try:
            self._oracle_rounds(working, factory, stats)
        except ChaseFailure as failure:
            status = ChaseStatus.FAILURE
            reason = str(failure)
        except ChaseNonTermination as overrun:
            status = ChaseStatus.NONTERMINATION
            reason = str(overrun)
        stats.elapsed_seconds = time.perf_counter() - start
        store = ColumnarInstance()
        store.add_all(working)
        return ChaseResult(
            status=status,
            target=None,
            working=working if self.config.keep_working else None,
            stats=stats,
            failure_reason=reason,
            guards="dropped" if self._unguarded else "enforced",
            enforced=frozenset(self._enforced),
        ).defer_target(store, self.source_relations)

    def _oracle_rounds(
        self, working: Instance, factory: NullFactory, stats: ChaseStats
    ) -> None:
        fired_triggers = _TriggerMemory(
            None if self._unguarded else self.config.oblivious_trigger_limit
        )
        self._trigger_memory = fired_triggers
        dead = dead_dependency_indices(self.dependencies, set(working.relations()))
        stats.dependencies_pruned = len(dead)
        delta: Optional[Set[Atom]] = None
        while True:
            stats.rounds += 1
            if not self._unguarded and stats.rounds > self.config.max_rounds:
                raise ChaseNonTermination(
                    f"exceeded {self.config.max_rounds} chase rounds"
                )
            before = set(working)
            delta_relations = (
                None if delta is None else {fact.relation for fact in delta}
            )
            rewrites = 0
            for index, dependency in enumerate(self.dependencies):
                premise = self._premise_relations[index]
                if index in dead or (
                    delta_relations is not None
                    and premise
                    and not premise & delta_relations
                ):
                    stats.enumerations_skipped += 1
                    continue
                rewrites += self._oracle_step(
                    index, dependency, working, factory, stats, delta,
                    fired_triggers,
                )
            new_facts = set(working) - before
            if (
                not self._unguarded
                and self.config.max_facts is not None
                and len(working) > self.config.max_facts
            ):
                raise ChaseNonTermination(
                    f"exceeded {self.config.max_facts} facts"
                )
            if not new_facts and not rewrites:
                return
            # Null rewrites change fact identity: chase a full round.
            delta = None if rewrites else new_facts

    def _oracle_step(
        self, index, dependency, working, factory, stats, delta, fired_triggers
    ) -> int:
        """One dependency for one round; returns #null-rewrites."""
        if delta is None:
            matches = evaluate(dependency.premise, working)
        else:
            matches = evaluate_delta(dependency.premise, working, delta)
        if not matches:
            return 0
        stats.premise_matches += len(matches)
        if not dependency.disjuncts:  # denial
            binding = min(matches, key=_binding_order)
            raise ChaseFailure(
                f"denial {dependency.describe()} fired at "
                f"{_render_binding(binding)}",
                culprit=dependency,
            )
        chosen = dependency.disjuncts[self.branch_choice.get(index, 0)]
        null_map = _NullMap()
        for binding in sorted(matches, key=_binding_order):
            resolved = {v: null_map.find(t) for v, t in binding.items()}
            if self.config.policy == "oblivious":
                trigger = (index, tuple(resolved[v] for v in sorted(resolved)))
                if trigger in fired_triggers:
                    continue
                fired_triggers.add(trigger)
            elif any(
                disjunct_satisfied(d, resolved, working)
                for d in dependency.disjuncts
            ):
                continue
            self._oracle_enforce(
                index, dependency, chosen, resolved, working, factory, stats,
                null_map,
            )
        resolution = null_map.resolution()
        if not resolution:
            return 0
        rewrites = working.apply_null_map(resolution)
        stats.null_rewrites += rewrites
        return rewrites

    def _oracle_enforce(
        self, index, dependency, disjunct, binding, working, factory, stats,
        null_map,
    ) -> None:
        self._enforced.add(index)
        for comparison in disjunct.comparisons:
            if not _ground_check(comparison, binding):
                raise ChaseFailure(
                    f"{dependency.describe()}: required comparison "
                    f"{comparison} fails at {_render_binding(binding)}",
                    culprit=dependency,
                )
        for equality in disjunct.equalities:
            left = _resolve(equality.left, binding)
            right = _resolve(equality.right, binding)
            if null_map.union(left, right, dependency.describe()):
                stats.egd_unifications += 1
        if not disjunct.atoms:
            return
        extended = dict(binding)
        for atom in disjunct.atoms:
            for variable in atom.variables():
                if variable not in extended:
                    extended[variable] = factory.fresh(hint=variable.name)
                    stats.nulls_created += 1
        for atom in disjunct.atoms:
            fact = Atom(
                atom.relation, tuple(_resolve(t, extended) for t in atom.terms)
            )
            if working.add(fact):
                stats.facts_created += 1
        stats.tgd_fires += 1


@contextlib.contextmanager
def oracle_kernel(reference: bool = False):
    """Run every driver's standard chases on :class:`OracleChase`; with
    ``reference``, its decoded queries run on the materialized
    reference evaluator."""
    with contextlib.ExitStack() as stack:
        if reference:
            stack.enter_context(reference_evaluator())
        for module in DRIVERS:
            stack.enter_context(
                mock.patch(f"{module}.StandardChase", OracleChase)
            )
        yield


def _head_fact(rule: Rule, binding: Dict[Variable, Term]) -> Atom:
    terms = []
    for term in rule.head.terms:
        if isinstance(term, Variable):
            value = binding.get(term)
            if value is None:
                raise DatalogError(f"unbound head variable {term} in rule {rule}")
            terms.append(value)
        else:
            terms.append(term)
    return Atom(rule.head.relation, tuple(terms))


def materialize_naive(
    program: ViewProgram,
    instance: Iterable[Atom],
    include_base: bool = False,
    only: Optional[Iterable[str]] = None,
) -> Instance:
    """Naive fixpoint, no delta restriction: the oracle of
    :func:`repro.datalog.evaluate.materialize` (same signature)."""
    program.check_predicates()
    working = Instance()
    working.add_all(instance)
    for component in stratified_components(program):
        rules: List[Rule] = [
            rule for view in component for rule in program.rules_for(view)
        ]
        added = True
        while added:
            added = False
            for rule in rules:
                for binding in evaluate(rule.body, working):
                    added |= working.add(_head_fact(rule, binding))
    wanted = set(only) if only is not None else set(program.view_names())
    result = Instance()
    for view_name in wanted:
        result.add_all(working.facts(view_name))
    if include_base:
        result.add_all(instance)
    return result
