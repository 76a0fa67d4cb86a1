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

A node is the chased :class:`~repro.relational.kernel.ColumnarInstance`
the standard engine returns.  The violation scan, the branch checks and
the children's edits all run on its code rows, through the deds'
:class:`~repro.chase.compiled.CompiledDependency` plans; a model is
decoded once, when its leaf is reached.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.chase.compiled import CompiledDependency, compile_dependencies
from repro.chase.engine import ChaseConfig, StandardChase, _row_order
from repro.obs.recorder import resolve_recorder
from repro.logic.dependencies import Dependency
from repro.logic.homomorphism import Pattern, load_target
from repro.logic.terms import NullFactory
from repro.relational.instance import Instance
from repro.relational.kernel import ColumnarInstance

__all__ = ["DisjunctiveChase", "DisjunctiveResult", "disjunctive_chase"]

#: A tree node before its chase: the source instance at the root, a
#: parent's edited copy below it.
Node = Union[Instance, ColumnarInstance]


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
    children: Optional[List[ColumnarInstance]] = None


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
        self._compiled_deds = compile_dependencies(self.deds)

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
        stack: List[Tuple[Node, int]] = [(root, 0)]
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
        self, working: Node, depth: int, factory: NullFactory
    ) -> _NodeOutcome:
        """Chase one node to quiescence and expand it."""
        chased = self._engine.run(working, null_factory=factory)
        if not chased.ok:
            return _NodeOutcome("failed")
        store = chased.working
        assert store is not None
        violation = self._find_ded_violation(store)
        if violation is None:
            return _NodeOutcome("model", model=self._extract_target(store))
        if depth >= self.max_branch_depth:
            return _NodeOutcome("overdepth")
        compiled, row = violation
        children = self._branch(compiled, row, store, factory)
        if not children:
            return _NodeOutcome("deadend")
        return _NodeOutcome("branch", children=children)

    # -- internals ----------------------------------------------------------------

    def _extract_target(self, store: ColumnarInstance) -> Instance:
        return store.restricted_to(
            r for r in store.relations() if r not in self.source_relations
        ).to_instance()

    def _find_ded_violation(
        self, store: ColumnarInstance
    ) -> Optional[Tuple[CompiledDependency, Tuple[int, ...]]]:
        # Deds are scanned in order, but *within* the first violated ded
        # the canonically-least violating premise row is chosen (not
        # whichever row the join surfaced first): branching must not
        # depend on insertion order, or two runs of the same scenario
        # could explore different trees.
        for compiled in self._compiled_deds:
            violations = [
                row
                for row in compiled.premise_matches_encoded(store, None)
                if not compiled.satisfied_encoded(row, store)
            ]
            if violations:
                return compiled, min(violations, key=_row_order(store.pool))
        return None

    def _branch(
        self,
        compiled: CompiledDependency,
        row: Tuple[int, ...],
        store: ColumnarInstance,
        factory: NullFactory,
    ) -> List[ColumnarInstance]:
        children: List[ColumnarInstance] = []
        for index in range(len(compiled.dependency.disjuncts)):
            child = _apply_disjunct(compiled, index, row, store, factory)
            if child is not None:
                children.append(child)
        return children


def _apply_disjunct(
    compiled: CompiledDependency,
    index: int,
    row: Tuple[int, ...],
    store: ColumnarInstance,
    factory: NullFactory,
) -> Optional[ColumnarInstance]:
    """A copy of ``store`` with disjunct ``index`` enforced for premise
    ``row``, or None if it is impossible."""
    kernel = compiled.disjunct_kernel(index, store.pool)
    for _comparison, check in kernel.comparisons:
        if not check(row):
            return None
    # Equalities first: a constant/constant clash kills the branch.  A
    # null (negative code) maps to the other side, the left one first.
    null_map: Dict[int, int] = {}

    def find(code: int) -> int:
        while code < 0 and code in null_map:
            code = null_map[code]
        return code

    for left_get, right_get in kernel.equalities:
        left = find(left_get(row))
        right = find(right_get(row))
        if left == right:
            continue
        if left < 0:
            null_map[left] = right
        elif right < 0:
            null_map[right] = left
        else:
            return None
    child = store.copy()
    if null_map:
        child.apply_null_map_encoded({n: find(n) for n in null_map})
    # The atoms are built from the premise row as matched, before the
    # null map: the map has already rewritten the copy, not the row.
    if kernel.atom_templates:
        fresh = [
            child.note_null(factory.fresh(hint=hint))
            for hint in kernel.existential_hints
        ]
        for relation, template in kernel.atom_templates:
            child.add_encoded(
                relation,
                tuple(
                    row[value]
                    if kind == 0
                    else (fresh[value] if kind == 1 else value)
                    for kind, value in template
                ),
            )
    return child


def _minimize_models(models: List[Instance]) -> List[Instance]:
    """Drop models that another model maps into homomorphically.

    Each model is loaded into a store and compiled as a pattern once;
    a pair check then runs one query."""
    kept: List[Instance] = []
    atom_lists = [list(m) for m in models]
    stores = [load_target(atoms) for atoms in atom_lists]
    patterns = [
        Pattern(atoms, statistics=store) for atoms, store in zip(atom_lists, stores)
    ]
    for i, model in enumerate(models):
        redundant = False
        for j in range(len(models)):
            if i == j:
                continue
            if patterns[j].exists(stores[i]):
                # Model j maps into model i: i is redundant *unless*
                # they map into each other and j is already kept/later.
                if patterns[i].exists(stores[j]):
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
