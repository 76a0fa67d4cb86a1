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
  The target and the working instance are handed back encoded, like
  the engine's, so the drivers' one read path consumes them.
* :func:`oracle_kernel` — points the drivers (the pipeline, the greedy
  ded sweep, the disjunctive chase) at :class:`OracleChase` by patching
  their ``StandardChase`` name, optionally under the reference
  evaluator.
* :class:`OracleDisjunctiveChase` — the disjunctive chase tree with
  decoded nodes: violations are premise bindings, picked by
  :func:`binding_order`, and a branch edits its child fact by fact.
* :func:`disjunct_satisfied` — the decoded satisfaction check of one
  conclusion disjunct; :func:`apply_null_map` — the set-based egd
  rewrite of every mapped null.
* :func:`materialize_naive` — the naive view fixpoint: every rule of a
  stratum against the full instance, until a whole pass adds nothing.

Decoded queries go through the public
:func:`~repro.relational.query.evaluate` surface, which loads a plain
``Instance`` into a store per call, so :class:`OracleChase` keeps a
store in lockstep with its set-based working instance for its queries
to read.
"""

from __future__ import annotations

import contextlib
import time
from typing import Dict, Iterable, List, Mapping, Optional, Set, Tuple
from unittest import mock

from repro.analysis.firing import dead_dependency_indices
from repro.chase.disjunctive import DisjunctiveChase, _NodeOutcome
from repro.chase.engine import StandardChase, _render_binding, _TriggerMemory
from repro.chase.result import ChaseResult, ChaseStats, ChaseStatus
from repro.datalog.program import Rule, ViewProgram
from repro.datalog.stratify import stratified_components
from repro.errors import (
    ChaseError,
    ChaseFailure,
    ChaseNonTermination,
    DatalogError,
    TypingError,
)
from repro.logic.atoms import Atom, Conjunction
from repro.logic.dependencies import Dependency
from repro.logic.terms import Null, NullFactory, Term, Variable
from repro.relational.instance import Instance
from repro.relational.kernel import ColumnarInstance
from repro.relational.query import (
    evaluate,
    evaluate_delta,
    evaluate_iter,
    exists,
    reference_evaluator,
)
from repro.relational.types import term_order_key

__all__ = [
    "OracleChase",
    "OracleDisjunctiveChase",
    "apply_null_map",
    "binding_order",
    "disjunct_satisfied",
    "materialize_naive",
    "oracle_kernel",
]

Binding = Dict[Variable, Term]

#: Modules whose ``StandardChase`` name :func:`oracle_kernel` patches.
DRIVERS = ("repro.pipeline", "repro.chase.ded", "repro.chase.disjunctive")


def _resolve(term: Term, binding: Binding) -> Term:
    """Strict resolution: an unbound variable in a disjunct equality or
    comparison is a malformed dependency and must fail loudly."""
    if isinstance(term, Variable):
        value = binding.get(term)
        if value is None:
            raise ChaseError(f"unbound variable {term} during chase step")
        return value
    return term


def _ground_check(comparison, binding: Binding) -> bool:
    ground = type(comparison)(
        comparison.op,
        _resolve(comparison.left, binding),
        _resolve(comparison.right, binding),
    )
    try:
        return ground.evaluate()
    except TypingError:
        return False


def binding_order(binding: Binding) -> Tuple:
    """Canonical sort key of a decoded binding: variable names, then
    :func:`~repro.relational.types.term_order_key` (nulls by numeric id,
    constants by representation) — the order the pool's per-code keys
    give the engine's encoded rows."""
    return tuple(sorted((v.name, term_order_key(t)) for v, t in binding.items()))


def apply_null_map(instance, mapping: Mapping[Null, Term]) -> int:
    """Replace nulls throughout ``instance`` (either store), fact by
    fact; returns #facts rewritten.  Every old fact is removed before
    any new one is added — a rewrite may land on another rewritten
    fact's old terms — and facts that become equal collapse."""
    if not mapping:
        return 0
    replacements = []
    for fact in list(instance):
        terms = tuple(
            mapping.get(t, t) if isinstance(t, Null) else t for t in fact.terms
        )
        if terms != fact.terms:
            replacements.append((fact, Atom(fact.relation, terms)))
    for old, _new in replacements:
        instance.remove(old)
    for _old, new in replacements:
        instance.add(new)
    return len(replacements)


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
        # The queries read a store kept in lockstep with ``working``:
        # querying ``working`` itself would load it into a store once
        # per probe.
        store = ColumnarInstance()
        store.add_all(working)
        stats = ChaseStats()
        status = ChaseStatus.SUCCESS
        reason = ""
        self._enforced: Set[int] = set()
        try:
            self._oracle_rounds(working, store, factory, stats)
        except ChaseFailure as failure:
            status = ChaseStatus.FAILURE
            reason = str(failure)
        except ChaseNonTermination as overrun:
            status = ChaseStatus.NONTERMINATION
            reason = str(overrun)
        stats.elapsed_seconds = time.perf_counter() - start
        return ChaseResult(
            status=status,
            target=None,
            working=store if self.config.keep_working else None,
            stats=stats,
            failure_reason=reason,
            guards="dropped" if self._unguarded else "enforced",
            enforced=frozenset(self._enforced),
        ).defer_target(store, self.source_relations)

    def _oracle_rounds(
        self,
        working: Instance,
        store: ColumnarInstance,
        factory: NullFactory,
        stats: ChaseStats,
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
                    index, dependency, working, store, factory, stats, delta,
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
        self, index, dependency, working, store, factory, stats, delta,
        fired_triggers,
    ) -> int:
        """One dependency for one round; returns #null-rewrites.

        Every fact and null rewrite goes to ``working`` and to ``store``,
        which the queries read, so a later match's satisfaction check
        sees what an earlier one enforced."""
        if delta is None:
            matches = evaluate(dependency.premise, store)
        else:
            matches = evaluate_delta(dependency.premise, store, delta)
        if not matches:
            return 0
        stats.premise_matches += len(matches)
        if not dependency.disjuncts:  # denial
            binding = min(matches, key=binding_order)
            raise ChaseFailure(
                f"denial {dependency.describe()} fired at "
                f"{_render_binding(binding)}",
                culprit=dependency,
            )
        chosen = dependency.disjuncts[self.branch_choice.get(index, 0)]
        null_map = _NullMap()
        for binding in sorted(matches, key=binding_order):
            resolved = {v: null_map.find(t) for v, t in binding.items()}
            if self.config.policy == "oblivious":
                trigger = (index, tuple(resolved[v] for v in sorted(resolved)))
                if trigger in fired_triggers:
                    continue
                fired_triggers.add(trigger)
            elif any(
                disjunct_satisfied(d, resolved, store)
                for d in dependency.disjuncts
            ):
                continue
            self._oracle_enforce(
                index, dependency, chosen, resolved, working, store, factory,
                stats, null_map,
            )
        resolution = null_map.resolution()
        if not resolution:
            return 0
        rewrites = apply_null_map(working, resolution)
        apply_null_map(store, resolution)
        stats.null_rewrites += rewrites
        return rewrites

    def _oracle_enforce(
        self, index, dependency, disjunct, binding, working, store, factory,
        stats, null_map,
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
                store.add(fact)
                stats.facts_created += 1
        stats.tgd_fires += 1


class OracleDisjunctiveChase(DisjunctiveChase):
    """:class:`~repro.chase.disjunctive.DisjunctiveChase` with decoded
    nodes: the tree driver and the per-node chase are the library's (or
    :class:`OracleChase` under :func:`oracle_kernel`); the violation
    scan, the branch checks and the children's edits are this class's,
    on premise bindings and ``Atom`` facts."""

    def _process_node(self, working, depth, factory):
        chased = self._engine.run(working, null_factory=factory)
        if not chased.ok:
            return _NodeOutcome("failed")
        chased_working = chased.working
        violation = self._find_binding_violation(chased_working)
        if violation is None:
            return _NodeOutcome(
                "model", model=self._extract_facts(chased_working)
            )
        if depth >= self.max_branch_depth:
            return _NodeOutcome("overdepth")
        dependency, binding = violation
        children = []
        for disjunct in dependency.disjuncts:
            child = _apply_disjunct(disjunct, binding, chased_working, factory)
            if child is not None:
                children.append(child)
        if not children:
            return _NodeOutcome("deadend")
        return _NodeOutcome("branch", children=children)

    def _extract_facts(self, working) -> Instance:
        target = Instance()
        for fact in working:
            if fact.relation not in self.source_relations:
                target.add(fact)
        return target

    def _find_binding_violation(
        self, working
    ) -> Optional[Tuple[Dependency, Binding]]:
        for dependency in self.deds:
            violations = [
                binding
                for binding in evaluate_iter(dependency.premise, working)
                if not any(
                    disjunct_satisfied(disjunct, binding, working)
                    for disjunct in dependency.disjuncts
                )
            ]
            if violations:
                return dependency, min(violations, key=binding_order)
        return None


def _apply_disjunct(disjunct, binding: Binding, working, factory: NullFactory):
    """A copy of ``working`` with the disjunct enforced, or None if impossible."""
    for comparison in disjunct.comparisons:
        if not _ground_check(comparison, binding):
            return None
    # Equalities first: a constant/constant clash kills the branch.
    null_map: Dict[Null, Term] = {}

    def find(term: Term) -> Term:
        while isinstance(term, Null) and term in null_map:
            term = null_map[term]
        return term

    for equality in disjunct.equalities:
        left = find(_resolve(equality.left, binding))
        right = find(_resolve(equality.right, binding))
        if left == right:
            continue
        if isinstance(left, Null):
            null_map[left] = right
        elif isinstance(right, Null):
            null_map[right] = left
        else:
            return None
    child = working.copy()
    if null_map:
        apply_null_map(child, {n: find(n) for n in null_map})
    if disjunct.atoms:
        extended = dict(binding)
        for atom in disjunct.atoms:
            for variable in atom.variables():
                if variable not in extended:
                    extended[variable] = factory.fresh(hint=variable.name)
        for atom in disjunct.atoms:
            child.add(
                Atom(atom.relation, tuple(_resolve(t, extended) for t in atom.terms))
            )
    return child


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
