"""Shared semi-naive delta-evaluation engine.

This module is the incremental layer both chase enforcement and Datalog
view materialization stand on.  PR 2 grew the machinery inside
``chase/compiled.py`` — anchored delta plans, generation-windowed fact
iteration, recompile-on-growth — and this module extracts it so the two
consumers of the paper's hot loop share one implementation:

* :class:`~repro.chase.compiled.CompiledDependency` finds premise
  matches of tgds/egds/denials against the round's new facts, and
* :func:`repro.datalog.evaluate.materialize` runs rule bodies against
  each fixpoint iteration's new facts (classical semi-naive evaluation
  of ``Υ(I)``).

Three pieces:

:class:`PlanCache`
    Compiled-plan storage with the *recompile policy*.  A
    :class:`~repro.relational.query.CompiledQuery` join order is chosen
    from selectivity statistics captured at compile time; the cache
    recompiles a plan when the data has outgrown those statistics —
    either the watched relations doubled in size (the PR 2 rule, keeps
    recompiles logarithmic) or a probed key-set's *bucket estimate*
    (relation size over distinct keys) drifted by :data:`DRIFT_FACTOR`
    in either direction.  Drift checks use only the per-index
    distinct-key counts the
    :class:`~repro.relational.kernel.ColumnarInstance` maintains
    incrementally, so a cache fetch costs O(plan steps), not a relation
    scan.

:class:`DeltaPlans`
    One conjunction's full plan plus one *anchored* plan per positive
    atom.  ``delta_matches_encoded`` implements the delta-join: for
    each atom whose relation gained rows, evaluate with that atom first
    and restricted to the delta, then deduplicate result rows across
    anchors.  Every match found this way uses at least one delta row,
    which is exactly the semi-naive guarantee (no old-old
    recombination).

:class:`GenerationWindow`
    A window over a columnar store's per-generation insertion log.
    ``advance_rows`` returns the rows inserted since the window last
    moved and bumps the store's generation, so consumers iterate "what
    changed since I last looked" in O(|delta|) without materializing
    snapshots.

All three work on encoded rows of a
:class:`~repro.relational.kernel.ColumnarInstance`; none of them
consults :func:`repro.relational.query.reference_evaluator`, which only
switches the public query functions.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.logic.atoms import Conjunction
from repro.logic.terms import Variable
from repro.relational.kernel import ColumnarInstance, RowMask
from repro.relational.query import CompiledQuery

__all__ = [
    "PlanCache",
    "DeltaPlans",
    "GenerationWindow",
    "group_rows",
    "mask_rows",
]

#: Encoded delta: relation -> set of row ids inserted this window.
RowDelta = Dict[str, Set[int]]


def group_rows(rows: Iterable[Tuple[str, int]]) -> RowDelta:
    """Group (relation, row id) pairs into the encoded delta shape."""
    grouped: RowDelta = {}
    for relation, row_id in rows:
        grouped.setdefault(relation, set()).add(row_id)
    return grouped


def mask_rows(delta_rows: RowDelta) -> Dict[str, RowMask]:
    """Wrap an encoded delta's row-id sets as :class:`RowMask` windows.

    A mask precomputes its span/contiguity once, so every anchored probe
    in the pass restricts index buckets by identity or bisect slice
    instead of per-row membership — build the masks once per round (or
    fixpoint pass) and hand the dict to every plan that evaluates
    against that delta.
    """
    return {
        relation: rows if isinstance(rows, RowMask) else RowMask(rows)
        for relation, rows in delta_rows.items()
    }


class PlanCache:
    """Compiled plans plus the shared recompile policy.

    Plans are keyed by an arbitrary hashable ``key`` chosen by the
    consumer (a dependency keys its premise, anchors and disjunct
    probes; the materializer keys each rule's body and anchors).  A
    cached plan is returned as long as its compile-time statistics are
    still trustworthy:

    * **growth** — the watched relations' total size is below twice the
      size at compile time (with a floor so tiny instances never churn);
    * **selectivity** — no probed key-set's bucket estimate
      (``size / distinct keys``) moved by more than
      :data:`DRIFT_FACTOR` either way.  Sizes can stay inside the
      doubling budget while a key collapses (many duplicates on a
      formerly near-unique column); the drift rule catches that case,
      which pure size tracking cannot (ROADMAP "Plan statistics").
    """

    __slots__ = ("_plans", "compiles", "recompiles", "served", "intersections")

    #: Below this many facts any plan is fine; avoids churn on tiny data.
    RECOMPILE_FLOOR = 8

    #: Bucket-estimate ratio past which a plan's join order is distrusted.
    DRIFT_FACTOR = 4.0

    def __init__(self) -> None:
        # key -> (plan, total size at compile, per-step bucket estimates)
        self._plans: Dict[
            object,
            Tuple[CompiledQuery, int, Dict[Tuple[str, Tuple[int, ...]], float]],
        ] = {}
        #: Plans built from scratch / rebuilt under the recompile policy /
        #: served from cache — the ``plan.*`` metrics the flight recorder
        #: harvests (a recompile counts in both ``compiles`` and
        #: ``recompiles``); ``intersections`` sums the intersection
        #: steps of the plans built.
        self.compiles = 0
        self.recompiles = 0
        self.served = 0
        self.intersections = 0

    def plan(
        self,
        key: object,
        body: Conjunction,
        bound: frozenset,
        instance: ColumnarInstance,
        first_atom: Optional[int] = None,
    ) -> CompiledQuery:
        entry = self._plans.get(key)
        size = instance.size
        current = sum(size(r) for r in {a.relation for a in body.atoms})
        if entry is not None:
            plan, compiled_at, estimates = entry
            if current < 2 * max(compiled_at, self.RECOMPILE_FLOOR) and not (
                self._drifted(estimates, instance)
            ):
                self.served += 1
                return plan
            self.recompiles += 1
        self.compiles += 1
        plan = CompiledQuery(body, bound, instance, first_atom)
        self.intersections += plan.intersections
        self._plans[key] = (plan, current, self._snapshot(plan, instance))
        return plan

    def _snapshot(
        self, plan: CompiledQuery, instance: ColumnarInstance
    ) -> Dict[Tuple[str, Tuple[int, ...]], float]:
        """Bucket estimates of every index and posting probe the plan
        performs."""
        out: Dict[Tuple[str, Tuple[int, ...]], float] = {}
        for step in plan.steps:
            for relation, positions in step.probes:
                if not positions:
                    continue
                keys = instance.key_count(relation, positions)
                if keys:
                    out[(relation, positions)] = instance.size(relation) / keys
        return out

    def _drifted(
        self,
        estimates: Dict[Tuple[str, Tuple[int, ...]], float],
        instance: ColumnarInstance,
    ) -> bool:
        """Whether any probed key-set's selectivity left its trust band.

        Consults only statistics that are O(1) to read (live index key
        counts or version-fresh cached scans) — a fetch must never scan.
        """
        for (relation, positions), compiled_estimate in estimates.items():
            size = instance.size(relation)
            if size < self.RECOMPILE_FLOOR:
                continue
            keys = instance.cached_key_count(relation, positions)
            if not keys:
                continue
            estimate = size / keys
            low, high = sorted((estimate, max(compiled_estimate, 1.0)))
            if high >= low * self.DRIFT_FACTOR:
                return True
        return False

    def __len__(self) -> int:
        return len(self._plans)


class DeltaPlans:
    """Full and per-anchor delta plans for one conjunction.

    ``bound`` names the variables a runtime seed will always bind (the
    chase seeds satisfaction probes with premise variables; rule bodies
    bind nothing).  Plans live in a :class:`PlanCache` — pass a shared
    one to give several conjunctions (e.g. all plans of one dependency)
    a single recompile policy, or omit it for a private cache.
    """

    __slots__ = ("body", "bound", "_cache", "_key")

    def __init__(
        self,
        body: Conjunction,
        bound: Iterable[Variable] = (),
        cache: Optional[PlanCache] = None,
        key: object = None,
    ) -> None:
        self.body = body
        self.bound = frozenset(bound)
        self._cache = cache if cache is not None else PlanCache()
        self._key = key if key is not None else id(self)

    # -- evaluation --------------------------------------------------------

    def varlist(self, store) -> Tuple[Variable, ...]:
        """Result-row layout of the encoded plans (bound + fresh
        variables in name order; identical across anchors)."""
        plan = self._cache.plan((self._key, "full"), self.body, self.bound, store)
        return plan.encoded(store.pool).varlist

    def matches_encoded(self, store) -> List[Tuple[int, ...]]:
        """All result rows as code tuples (no Atom or dict objects)."""
        plan = self._cache.plan((self._key, "full"), self.body, self.bound, store)
        out: List[Tuple[int, ...]] = []
        for block in plan.encoded(store.pool).blocks(store):
            out += block
        return out

    def delta_matches_encoded(
        self, store, delta_rows: RowDelta
    ) -> List[Tuple[int, ...]]:
        """Encoded semi-naive join: rows touching at least one delta row,
        deduplicated across anchors by raw row tuple (the row is the
        binding, in varlist order, so tuple equality is binding
        equality).  ``delta_rows`` values may be row-id sets or
        pre-built :class:`RowMask` windows (see :func:`mask_rows`);
        sets are wrapped here, once per relation, shared across a
        self-join's anchors."""
        if not self.body.atoms:
            return self.matches_encoded(store)
        masks: Dict[str, RowMask] = {}
        out: List[Tuple[int, ...]] = []
        seen: Set[Tuple[int, ...]] = set()
        for anchor_index, anchor in enumerate(self.body.atoms):
            rows = masks.get(anchor.relation)
            if rows is None:
                rows = delta_rows.get(anchor.relation)
                if not rows:
                    continue
                if not isinstance(rows, RowMask):
                    rows = RowMask(rows)
                masks[anchor.relation] = rows
            plan = self._cache.plan(
                (self._key, "anchor", anchor_index),
                self.body,
                self.bound,
                store,
                first_atom=anchor_index,
            )
            add = seen.add
            append = out.append
            for block in plan.encoded(store.pool).blocks(store, delta=rows):
                for row in block:
                    if row not in seen:
                        add(row)
                        append(row)
        return out

    def exists_encoded(
        self, store, outer_varlist: Tuple[Variable, ...], row: Tuple[int, ...]
    ) -> bool:
        """Existence probe seeded from an encoded outer row (the chase's
        satisfaction check: ``row`` is aligned to ``outer_varlist``)."""
        plan = self._cache.plan((self._key, "full"), self.body, self.bound, store)
        encoded = plan.encoded(store.pool)
        return encoded.exists_filled(
            store, encoded.fill_for(outer_varlist), row
        )

    def relations(self) -> frozenset:
        """Relations of the positive atoms (delta anchors can only be these)."""
        return frozenset(atom.relation for atom in self.body.atoms)


class GenerationWindow:
    """A moving window over a columnar store's insertion generations.

    Each :meth:`advance_rows` call returns the rows inserted since the
    window last advanced (initially: since ``since``) and opens a fresh
    generation, so rows the consumer inserts *after* the call land in
    the next window.  This is the iteration discipline of both the chase
    round loop and the semi-naive fixpoint loop: evaluate against the
    previous iteration's insertions only.
    """

    __slots__ = ("instance", "_since")

    def __init__(self, instance: ColumnarInstance, since: Optional[int] = None) -> None:
        self.instance = instance
        self._since = instance.current_generation if since is None else since

    def advance_rows(self) -> List[Tuple[str, int]]:
        """(relation, row id) pairs inserted since the last advance;
        opens a new generation."""
        rows = self.instance.rows_since(self._since)
        self._since = self.instance.bump_generation()
        return rows

    @property
    def since(self) -> int:
        return self._since
