"""The full disjunctive chase: universal model sets.

Ground truth (and worst case) for ded scenarios.  Deutsch, Nash and
Remmel ("The chase revisited", the paper's [3]) show that for deds the
right notion of result is a *universal model set* — a set of instances
such that every model of the scenario is reachable homomorphically from
one of them — and that such sets can be exponential in the size of the
source instance.  The paper uses this to motivate the greedy strategy;
we implement the exact chase too, both as a correctness oracle for the
greedy engine and to reproduce the exponential blow-up experiment (E3).

The algorithm is a chase *tree*: standard dependencies are chased to
quiescence in place; when a ded has an unsatisfied premise match the
current instance branches, one child per applicable disjunct.  Leaves
are either successful (no violations anywhere) or failed (hard egd
failure, denial, or a ded firing with no applicable disjunct).

The tree runs depth-first: leaves are counted, models collected and
the shared null factory advanced in DFS order, which is what makes the
result deterministic.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.chase.compiled import _ground_check, _resolve
from repro.chase.engine import ChaseConfig, StandardChase, _binding_order
from repro.obs.recorder import resolve_recorder
from repro.logic.atoms import Atom, Conjunction
from repro.logic.dependencies import Dependency, Disjunct
from repro.logic.homomorphism import exists_homomorphism
from repro.logic.terms import Null, NullFactory, Term, Variable
from repro.relational.instance import Instance
from repro.relational.query import evaluate_iter, exists

__all__ = ["DisjunctiveChase", "DisjunctiveResult", "disjunctive_chase"]


@dataclass
class DisjunctiveResult:
    """Outcome of a disjunctive chase run.

    ``models`` is the computed universal model set (target instances of
    successful leaves, optionally minimized); ``leaves`` counts all
    terminal nodes, ``failures`` the failed ones; ``branchings`` counts
    the internal branching nodes — the direct measure of the exponential
    behaviour the paper warns about.
    """

    models: List[Instance] = field(default_factory=list)
    leaves: int = 0
    failures: int = 0
    branchings: int = 0
    truncated: bool = False
    elapsed_seconds: float = 0.0
    trace: Optional[Dict[str, object]] = None
    """Flight-recorder payload when the run owned its recorder (tracing
    enabled on the config, no external recorder passed)."""

    @property
    def satisfiable(self) -> bool:
        return bool(self.models)

    def first(self) -> Optional[Instance]:
        return self.models[0] if self.models else None


@dataclass
class _NodeOutcome:
    """Everything processing one tree node produced."""

    kind: str  # "failed" | "model" | "overdepth" | "deadend" | "branch"
    model: Optional[Instance] = None
    children: Optional[List[Instance]] = None


class DisjunctiveChase:
    """Exhaustive (or first-solution) chase of a ded scenario."""

    def __init__(
        self,
        dependencies: Sequence[Dependency],
        source_relations: Iterable[str] = (),
        config: Optional[ChaseConfig] = None,
        max_leaves: int = 4096,
        max_branch_depth: int = 64,
    ) -> None:
        self.standard = [d for d in dependencies if not d.is_ded()]
        self.deds = [d for d in dependencies if d.is_ded()]
        self.source_relations = frozenset(source_relations)
        base = config or ChaseConfig()
        # Per-node chases keep every tunable of the caller's config
        # except tracing (the search is instrumented at the driver level).
        self.config = dataclasses.replace(base, keep_working=True, trace=None)
        self.trace_config = base.trace
        self.max_leaves = max_leaves
        self.max_branch_depth = max_branch_depth
        self._engine = StandardChase(
            self.standard, self.source_relations, self.config
        )

    # -- public API ------------------------------------------------------------

    def run(
        self,
        source_instance: Instance,
        first_only: bool = False,
        minimize: bool = False,
        recorder=None,
    ) -> DisjunctiveResult:
        """Compute the universal model set (or just the first model).

        ``minimize`` drops models into which another model maps
        homomorphically, yielding a ⊆-minimal universal model set.
        """
        start = time.perf_counter()
        rec = resolve_recorder(recorder, self.trace_config)
        owned_rec = recorder is None and rec.enabled
        result = DisjunctiveResult()
        factory = NullFactory()
        root = Instance()
        for fact in source_instance:
            root.add(fact)
        factory.advance_past(root.nulls())
        with rec.span("chase.disjunctive"):
            self._explore(root, factory, result, first_only)
            if minimize:
                result.models = _minimize_models(result.models)
        if rec.enabled:
            rec.count("disjunctive.leaves", result.leaves)
            rec.count("disjunctive.failures", result.failures)
            rec.count("disjunctive.branchings", result.branchings)
            rec.count("disjunctive.models", len(result.models))
        result.elapsed_seconds = time.perf_counter() - start
        if owned_rec:
            result.trace = rec.to_payload()
        return result

    # -- tree driver ------------------------------------------------------------

    def _explore(
        self,
        root: Instance,
        factory: NullFactory,
        result: DisjunctiveResult,
        first_only: bool,
    ) -> None:
        stack: List[Tuple[Instance, int]] = [(root, 0)]
        while stack:
            if result.leaves >= self.max_leaves:
                result.truncated = True
                break
            working, depth = stack.pop()
            outcome = self._process_node(working, depth, factory)
            if self._commit(outcome, result, first_only):
                break
            if outcome.kind == "branch":
                for child in reversed(outcome.children):
                    stack.append((child, depth + 1))

    def _commit(
        self,
        outcome: _NodeOutcome,
        result: DisjunctiveResult,
        first_only: bool,
    ) -> bool:
        """Fold one node outcome into the result; True means stop."""
        if outcome.kind == "failed" or outcome.kind == "deadend":
            result.leaves += 1
            result.failures += 1
        elif outcome.kind == "overdepth":
            result.truncated = True
            result.leaves += 1
            result.failures += 1
        elif outcome.kind == "model":
            result.leaves += 1
            result.models.append(outcome.model)
            if first_only:
                return True
        else:  # branch
            result.branchings += 1
        return False

    # -- node processing ----------------------------------------------------------

    def _process_node(
        self, working: Instance, depth: int, factory: NullFactory
    ) -> _NodeOutcome:
        """Chase one node to quiescence and expand it."""
        chased = self._engine.run(working, null_factory=factory)
        if not chased.ok:
            return _NodeOutcome("failed")
        chased_working = chased.working
        assert chased_working is not None
        violation = self._find_ded_violation(chased_working)
        if violation is None:
            return _NodeOutcome(
                "model", model=self._extract_target(chased_working)
            )
        if depth >= self.max_branch_depth:
            return _NodeOutcome("overdepth")
        dependency, binding = violation
        children = self._branch(dependency, binding, chased_working, factory)
        if not children:
            return _NodeOutcome("deadend")
        return _NodeOutcome("branch", children=children)

    # -- internals ----------------------------------------------------------------

    def _extract_target(self, working: Instance) -> Instance:
        target = Instance()
        for fact in working:
            if fact.relation not in self.source_relations:
                target.add(fact)
        return target

    def _find_ded_violation(
        self, working: Instance
    ) -> Optional[Tuple[Dependency, Dict[Variable, Term]]]:
        # Deds are scanned lazily in order, but *within* the first
        # violated ded the canonically-least violating match is chosen
        # (not whichever hash order surfaced first): branching must not
        # depend on set-iteration order, or two runs of the same
        # scenario across interpreter hash seeds could explore different
        # trees.
        for dependency in self.deds:
            violations = [
                binding
                for binding in evaluate_iter(dependency.premise, working)
                if not any(
                    _disjunct_satisfied(disjunct, binding, working)
                    for disjunct in dependency.disjuncts
                )
            ]
            if violations:
                return dependency, min(violations, key=_binding_order)
        return None

    def _branch(
        self,
        dependency: Dependency,
        binding: Dict[Variable, Term],
        working: Instance,
        factory: NullFactory,
    ) -> List[Instance]:
        children: List[Instance] = []
        for disjunct in dependency.disjuncts:
            child = _apply_disjunct(disjunct, binding, working, factory)
            if child is not None:
                children.append(child)
        return children


def _disjunct_satisfied(
    disjunct: Disjunct, binding: Dict[Variable, Term], working: Instance
) -> bool:
    for equality in disjunct.equalities:
        if _resolve(equality.left, binding) != _resolve(equality.right, binding):
            return False
    for comparison in disjunct.comparisons:
        if not _ground_check(comparison, binding):
            return False
    if disjunct.atoms:
        return exists(Conjunction(atoms=disjunct.atoms), working, seed=binding)
    return True


def _apply_disjunct(
    disjunct: Disjunct,
    binding: Dict[Variable, Term],
    working: Instance,
    factory: NullFactory,
) -> Optional[Instance]:
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
        child.apply_null_map({n: find(n) for n in null_map})
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


def _minimize_models(models: List[Instance]) -> List[Instance]:
    """Drop models that another model maps into homomorphically."""
    kept: List[Instance] = []
    atom_lists = [list(m) for m in models]
    for i, model in enumerate(models):
        redundant = False
        for j, other in enumerate(models):
            if i == j:
                continue
            if exists_homomorphism(atom_lists[j], atom_lists[i]):
                # `other` maps into `model`: model is redundant *unless*
                # they map into each other and other is already kept/later.
                if exists_homomorphism(atom_lists[i], atom_lists[j]):
                    if j < i:
                        redundant = True
                        break
                else:
                    redundant = True
                    break
        if not redundant:
            kept.append(model)
    return kept


def disjunctive_chase(
    dependencies: Sequence[Dependency],
    source_instance: Instance,
    source_relations: Iterable[str] = (),
    config: Optional[ChaseConfig] = None,
    first_only: bool = False,
    minimize: bool = False,
    max_leaves: int = 4096,
) -> DisjunctiveResult:
    """One-shot convenience wrapper around :class:`DisjunctiveChase`."""
    engine = DisjunctiveChase(
        dependencies, source_relations, config, max_leaves=max_leaves
    )
    return engine.run(source_instance, first_only=first_only, minimize=minimize)
