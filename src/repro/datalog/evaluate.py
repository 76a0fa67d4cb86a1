"""Semi-naive bottom-up evaluation of view programs over instances.

``materialize(program, instance)`` computes the extent of every view:
``Υ(I)`` in the paper's notation.  The result is a *view instance* whose
relations are the view predicates (base relations can be carried over on
request, which the rewriter's verification path uses to build the
"semantic database" ``I ∪ Υ(I)``).

Evaluation is stratified, bottom-up and **semi-naive**, built on the
shared incremental engine (:mod:`repro.relational.delta`) the chase
also uses:

* views are grouped into strongly-connected components and processed in
  dependency order (:func:`repro.datalog.stratify.stratified_components`);
  negation therefore only ever consults fully-computed predicates —
  exactly the stratified semantics the paper assumes;
* each component is iterated to **fixpoint**: the first pass evaluates
  every rule fully, then each subsequent pass evaluates only the rules
  whose positive body atoms gained facts, joining their
  delta-anchored plans against the facts of the previous pass only
  (``Δ ⋈ I`` instead of ``I ⋈ I`` — the classical semi-naive
  optimization, O(|Δ|) per pass);
* mutually recursive components (transitive-closure-style views)
  converge because every pass either adds facts or ends the loop — the
  old evaluator ran each rule once per stratum and therefore
  under-computed recursive views.

:class:`SemanticDatabase` keeps a materialization *alive*: base facts
can be appended after construction and :meth:`SemanticDatabase.refresh`
re-establishes ``Υ(I)`` incrementally, so a verification sweep over k
candidate targets (or a growing scenario) shares one semantic database
instead of paying k cold materializations.  Additions are monotone for
positive rules; strata whose rules negate a predicate that gained facts
are soundly rebuilt from scratch (negation is not monotone under
insertion), as are all strata above them.

The fixpoint runs on encoded rows of a
:class:`~repro.relational.kernel.ColumnarInstance`.  Its test oracle —
the naive set-based fixpoint that re-evaluates every rule until nothing
changes — lives in ``tests/kernel_oracle.py``.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Set

from repro.datalog.program import Rule, ViewProgram
from repro.datalog.stratify import stratified_components
from repro.errors import DatalogError
from repro.logic.atoms import Atom
from repro.logic.terms import Variable
from repro.obs.recorder import NULL_RECORDER
from repro.relational.delta import (
    DeltaPlans,
    GenerationWindow,
    PlanCache,
    group_rows,
    mask_rows,
)
from repro.relational.instance import Instance
from repro.relational.kernel import ColumnarInstance

__all__ = [
    "materialize",
    "SemanticDatabase",
    "evaluate_view",
    "view_extent",
]


class _EncodedHead:
    """A rule head lowered onto the columnar kernel.

    Per-term (kind, value) pairs: kind 0 reads a slot of the body's
    encoded result row, kind 1 is an interned constant code, kind 2 is
    an unbound head variable — which only raises when the rule actually
    fires.
    """

    __slots__ = ("rule", "relation", "template")

    def __init__(self, rule: Rule, varlist, pool) -> None:
        self.rule = rule
        self.relation = rule.head.relation
        slot_of = {variable: i for i, variable in enumerate(varlist)}
        template = []
        for term in rule.head.terms:
            if isinstance(term, Variable):
                slot = slot_of.get(term)
                template.append((0, slot) if slot is not None else (2, term))
            else:
                template.append((1, pool.encode(term)))
        self.template = tuple(template)

    def row(self, match) -> tuple:
        values = []
        for kind, value in self.template:
            if kind == 0:
                values.append(match[value])
            elif kind == 1:
                values.append(value)
            else:
                raise DatalogError(
                    f"unbound head variable {value} in rule {self.rule}"
                )
        return tuple(values)


class SemanticDatabase:
    """An incrementally-maintained semantic database ``I ∪ Υ(I)``.

    Holds one working :class:`ColumnarInstance` containing the base facts plus
    every view extent, kept at fixpoint.  Feed base facts with
    :meth:`add_facts` and call :meth:`refresh`; only the consequences of
    the new facts are recomputed (semi-naive delta passes seeded with
    the insertions since the last refresh), except where negation makes
    insertion non-monotone — those strata, and everything above them,
    are rebuilt.

    The chase's verification paths hold one of these per scenario so
    checking k candidate rewritings materializes the source-side views
    once, not k times.
    """

    __slots__ = (
        "program",
        "_working",
        "_components",
        "_component_rules",
        "_plans",
        "_encoded_heads",
        "_cache",
        "_synced_generation",
        "_fresh",
        "_view_names",
        "_seeded",
        "_recorder",
    )

    def __init__(
        self,
        program: Optional[ViewProgram],
        base: Optional[Iterable[Atom]] = None,
    ) -> None:
        """``program`` may be ``None`` for a view-less semantic schema —
        the database then degenerates to a plain fact store."""
        self.program = program
        self._working = ColumnarInstance()
        self._cache = PlanCache()
        self._plans: Dict[int, DeltaPlans] = {}
        self._encoded_heads: Dict[int, _EncodedHead] = {}
        if program is not None:
            program.check_predicates()
            self._components = stratified_components(program)
            self._component_rules: List[List[Rule]] = [
                [rule for view in component for rule in program.rules_for(view)]
                for component in self._components
            ]
        else:
            self._components = []
            self._component_rules = []
        self._view_names = (
            frozenset(program.view_names()) if program is not None else frozenset()
        )
        # Caller-supplied facts living in view relations: they seed the
        # fixpoint like derived facts but survive negation rebuilds.
        self._seeded: Set[Atom] = set()
        # Facts at generations >= _synced_generation are not yet
        # reflected in the view extents.
        self._synced_generation = 0
        self._fresh = True
        self._recorder = NULL_RECORDER
        if base is not None:
            self.add_facts(base)
            self.refresh()

    # -- feeding -----------------------------------------------------------

    def add_fact(self, fact: Atom) -> bool:
        """Insert one base fact (views refresh lazily); True when new."""
        if fact.relation in self._view_names:
            self._seeded.add(fact)
        return self._working.add(fact)

    def add_facts(self, facts: Iterable[Atom]) -> int:
        """Insert many base facts; returns how many were new.

        An :class:`Instance` loads in bulk: its value rows encode one
        relation at a time (:meth:`ColumnarInstance.add_all`), and only
        facts in view relations decode, to keep the ``_seeded``
        bookkeeping."""
        if isinstance(facts, Instance):
            for view in self._view_names.intersection(facts.relations()):
                self._seeded.update(facts.facts(view))
            return self._working.add_all(facts)
        return sum(1 for fact in facts if self.add_fact(fact))

    def ingest(self, instance: ColumnarInstance) -> int:
        """Insert a columnar store's live rows as base facts, encoded.

        The bulk twin of :meth:`add_facts`: rows move as code tuples
        (:meth:`ColumnarInstance.ingest`), and only rows landing in view
        relations decode, to keep the ``_seeded`` bookkeeping.  Views
        refresh lazily; returns how many rows were new."""
        for view in self._view_names.intersection(instance.relations()):
            self._seeded.update(instance.facts(view))
        return self._working.ingest(instance)

    # -- maintenance -------------------------------------------------------

    def _rule_plans(self, rule: Rule, key: int) -> DeltaPlans:
        plans = self._plans.get(key)
        if plans is None:
            plans = DeltaPlans(rule.body, cache=self._cache, key=key)
            self._plans[key] = plans
        return plans

    def set_recorder(self, recorder) -> None:
        """Attach a flight recorder for ``datalog.*`` metrics and
        refresh spans (``None`` detaches)."""
        self._recorder = recorder if recorder is not None else NULL_RECORDER

    def refresh(self) -> "SemanticDatabase":
        """Re-establish ``Υ(I)`` after insertions; no-op when synced."""
        working = self._working
        # The refresh trigger only needs relations and a count — stay on
        # (relation, row id) pairs, no decode.
        pending = working.rows_since(self._synced_generation)
        pending_relations = {relation for relation, _ in pending}
        if not pending and not self._fresh:
            return self
        rec = self._recorder
        with rec.span("datalog.refresh", pending=len(pending)):
            before = len(working)
            self._refresh_components(bool(self._fresh), pending_relations)
            if rec.enabled:
                rec.count("datalog.refreshes")
                rec.count("datalog.derived_facts", len(working) - before)
        self._synced_generation = working.bump_generation()
        return self

    def _refresh_components(self, initial: bool, pending_relations) -> None:
        working = self._working
        self._fresh = False
        changed: Set[str] = set(pending_relations)
        rebuilding = False
        for position, component in enumerate(self._components):
            rules = self._component_rules[position]
            referenced: Set[str] = set()
            negated: Set[str] = set()
            for rule in rules:
                referenced |= rule.body_predicates()
                negated |= rule.negated_body_predicates()
            if initial:
                # Cold materialization: one full pass per component (a
                # delta pass would skip rules with atom-free bodies).
                self._evaluate_component(position, full=True)
                changed.update(component)
            elif rebuilding or (negated & changed):
                # Insertion is not monotone through negation: facts this
                # stratum derived may have lost their justification.
                # Rebuild it — and, since a rebuilt extent can shrink,
                # every stratum above it — from scratch.
                rebuilding = True
                self._recorder.count("datalog.rebuilds")
                for view in component:
                    for fact in list(working.facts(view)):
                        if fact not in self._seeded:
                            working.remove(fact)
                self._evaluate_component(position, full=True)
                changed.update(component)
            elif referenced & changed:
                before = working.version
                self._evaluate_component(position, full=False)
                if working.version != before:
                    changed.update(component)
            # else: nothing this component reads changed — its extents
            # are already at fixpoint, skip it entirely.

    def _evaluate_component(self, position: int, full: bool) -> None:
        """Run one component to fixpoint, semi-naively.

        ``full`` seeds the loop with a complete pass over every rule
        (initial materialization and negation-forced rebuilds);
        otherwise the first delta window covers exactly the facts
        inserted since the last refresh, so the pass costs O(|Δ|).
        """
        working = self._working
        rules = self._component_rules[position]
        base_key = position << 20
        if full:
            working.bump_generation()
            window = GenerationWindow(working)
            for offset, rule in enumerate(rules):
                self._fire_rule(rule, base_key + offset, delta=None)
        else:
            window = GenerationWindow(working, since=self._synced_generation)
        rec = self._recorder
        while True:
            rows = window.advance_rows()
            if not rows:
                return
            # One mask per relation per pass, shared by every rule this
            # component fires against the window.
            delta = mask_rows(group_rows(rows))
            delta_relations = set(delta)
            if rec.enabled:
                rec.count("datalog.passes")
                rec.count("datalog.pass_facts", len(rows))
            for offset, rule in enumerate(rules):
                if rule.positive_body_predicates() & delta_relations:
                    self._fire_rule(rule, base_key + offset, delta=delta)
                elif rule.body_predicates() & delta_relations:
                    # The delta is only visible through nested negation
                    # (an even-depth — hence monotone and stratifiable —
                    # recursive edge, e.g. ``not (not V(x))``).  Delta
                    # anchoring joins positive atoms only and would miss
                    # it, so re-run the rule in full.
                    self._fire_rule(rule, base_key + offset, delta=None)

    def _fire_rule(self, rule: Rule, key: int, delta) -> None:
        """Evaluate one rule (full when ``delta`` is None, else
        restricted to the relation -> RowMask ``delta``) and insert its
        head rows; the rows never decode."""
        working = self._working
        plans = self._rule_plans(rule, key)
        head = self._encoded_heads.get(key)
        if head is None:
            # The varlist (bound + fresh body variables in name order) is
            # data-independent, so the lowered head survives plan
            # recompiles.
            head = _EncodedHead(rule, plans.varlist(working), working.pool)
            self._encoded_heads[key] = head
        if delta is None:
            matches = plans.matches_encoded(working)
        else:
            matches = plans.delta_matches_encoded(working, delta)
        add, relation, build = working.add_encoded, head.relation, head.row
        for match in matches:
            add(relation, build(match))

    # -- reading -----------------------------------------------------------

    @property
    def instance(self) -> ColumnarInstance:
        """The live working store ``I ∪ Υ(I)``.

        Shared, not copied: treat it as read-only, or route further base
        insertions through :meth:`add_facts` + :meth:`refresh` so the
        view extents stay at fixpoint.
        """
        return self._working

    def extract(
        self,
        only: Optional[Iterable[str]] = None,
        include_base: Optional[Iterable[Atom]] = None,
    ) -> Instance:
        """Copy out view extents (optionally restricted to ``only``),
        plus the given base facts — the shape :func:`materialize`
        returns."""
        if self.program is not None:
            wanted = (
                set(only) if only is not None else set(self.program.view_names())
            )
        else:
            wanted = set()
        result = self._working.to_instance(relations=wanted)
        if include_base is not None:
            for fact in include_base:
                result.add(fact)
        return result


def materialize(
    program: ViewProgram,
    instance: Instance,
    include_base: bool = False,
    only: Optional[Iterable[str]] = None,
) -> Instance:
    """Compute the extents of all views of ``program`` over ``instance``.

    ``only`` restricts the output to the named views (their dependencies
    are still evaluated, just not copied into the result).  With
    ``include_base`` the base facts are carried into the result, which
    yields the "semantic database" ``I ∪ Υ(I)``.

    Semi-naive and fixpoint-complete: stratified programs with positive
    recursion are supported (the old single-pass evaluator rejected or
    under-computed them); recursion through negation raises
    :class:`~repro.errors.RecursionError_`.
    """
    database = SemanticDatabase(program, base=instance)
    return database.extract(
        only=only, include_base=instance if include_base else None
    )


def evaluate_view(
    program: ViewProgram, instance: Instance, view_name: str
) -> List[Atom]:
    """The extent of a single view (dependencies computed on the fly)."""
    extent = materialize(program, instance, only=[view_name])
    return sorted(extent.facts(view_name), key=str)


def view_extent(
    program: ViewProgram, instance: Instance
) -> Dict[str, List[Atom]]:
    """All view extents as a dict, convenient for assertions and reports."""
    materialized = materialize(program, instance)
    return {
        view_name: sorted(materialized.facts(view_name), key=str)
        for view_name in program.view_names()
    }
