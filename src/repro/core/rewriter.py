"""The GROM rewriter: semantic mappings → executable physical dependencies.

Given a :class:`~repro.core.scenario.MappingScenario`, :func:`rewrite`
produces a set of dependencies over the *physical* schemas which is
**sound** in the paper's sense: whenever the rewritten scenario admits a
(universal) solution ``J_T`` over ``I_S``, then ``Υ_T(J_T)`` is a
solution of the original semantic scenario.  Completeness is given up —
exactly the trade-off Section 3 of the paper discusses.

The pipeline (reconstructed from the paper's contract and worked
example, see DESIGN.md §3):

1. Mapping premises stay in terms of the source vocabulary (the chase
   runs on ``I_S ∪ Υ_S(I_S)``, the paper's two-step reduction); with
   ``unfold_source_premises=True`` they are unfolded instead, leaving
   safe source-side negation in premises.
2. Mapping conclusions are unfolded over the target views.  Union views
   yield several conclusion branches (a ded); negated parts of view
   bodies yield *companion* constraints.
3. Target egd premises are unfolded; negated parts move to the
   conclusion as positive existential disjuncts
   (``P ∧ ¬N → C  ≡  P → C | N``) — this is precisely how the paper's
   key constraint ``e0`` becomes the ded ``d0``.
4. Nested negation is eliminated by a worklist that alternates the two
   moves above, introducing auxiliary *requirement predicates*
   (``_grom_req_*``) when a branch of a ded needs its own companion
   constraints.  Nesting depth strictly decreases, so the loop
   terminates.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.core.scenario import MappingScenario
from repro.core.unfold import ExpansionBranch, expand_conjunction
from repro.errors import RewriteError, UnsupportedViewError
from repro.logic.atoms import (
    Atom,
    Comparison,
    Conjunction,
    Equality,
    NegatedConjunction,
)
from repro.logic.dependencies import Dependency, DependencyKind, Disjunct
from repro.logic.substitution import Substitution
from repro.logic.terms import Variable, VariableFactory

__all__ = ["rewrite", "RewriteResult", "Provenance", "AUX_PREFIX"]

AUX_PREFIX = "_grom_req_"
"""Prefix of auxiliary requirement relations introduced by the rewriter."""


@dataclass(frozen=True)
class Provenance:
    """Where a rewritten dependency came from."""

    origin: str
    """Name of the original mapping or constraint."""

    views: Tuple[str, ...] = ()
    """Views inlined while producing this dependency."""

    role: str = "main"
    """``main`` for the direct rewriting, ``companion`` for guards and
    auxiliary definitions spawned by negated view bodies."""


@dataclass
class _RichDisjunct:
    """A disjunct that may still carry negated requirements."""

    atoms: Tuple[Atom, ...] = ()
    equalities: Tuple[Equality, ...] = ()
    comparisons: Tuple[Comparison, ...] = ()
    necs: Tuple[NegatedConjunction, ...] = ()

    def variables(self) -> Set[Variable]:
        out: Set[Variable] = set()
        for atom in self.atoms:
            out.update(atom.variables())
        for equality in self.equalities:
            out.update(equality.variables())
        for comparison in self.comparisons:
            out.update(comparison.variables())
        for nec in self.necs:
            out.update(nec.inner.variables())
        return out

    def is_empty(self) -> bool:
        return not (self.atoms or self.equalities or self.comparisons or self.necs)


@dataclass
class _RawDependency:
    """A dependency being normalized (negation not yet eliminated)."""

    premise: Conjunction
    disjuncts: List[_RichDisjunct]
    name: str
    origin: str
    role: str = "main"
    views: Tuple[str, ...] = ()


class RewriteResult:
    """The output of :func:`rewrite`.

    ``dependencies`` is the rewritten set ``Σ_ST ∪ Σ_T``; every
    dependency has negation-free premises except for safe *source-side*
    negation (evaluable against the immutable source).  ``aux_arities``
    lists the auxiliary requirement relations that must be added to the
    execution target schema.
    """

    def __init__(
        self,
        scenario: MappingScenario,
        dependencies: List[Dependency],
        provenance: Dict[str, Provenance],
        aux_arities: Dict[str, int],
    ) -> None:
        self.scenario = scenario
        self.dependencies = dependencies
        self.provenance = provenance
        self.aux_arities = aux_arities

    # -- classification ------------------------------------------------------

    def by_kind(self, kind: DependencyKind) -> List[Dependency]:
        return [d for d in self.dependencies if d.kind is kind]

    def tgds(self) -> List[Dependency]:
        return self.by_kind(DependencyKind.TGD)

    def egds(self) -> List[Dependency]:
        return self.by_kind(DependencyKind.EGD)

    def deds(self) -> List[Dependency]:
        return self.by_kind(DependencyKind.DED)

    def denials(self) -> List[Dependency]:
        return self.by_kind(DependencyKind.DENIAL)

    @property
    def has_deds(self) -> bool:
        return any(d.is_ded() for d in self.dependencies)

    def counts(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for dependency in self.dependencies:
            out[dependency.kind.value] = out.get(dependency.kind.value, 0) + 1
        return out

    # -- vocabularies --------------------------------------------------------

    def source_relations(self) -> FrozenSet[str]:
        """Relations the chase must treat as immutable source input."""
        return frozenset(self.scenario.source_vocabulary())

    def target_relations(self) -> FrozenSet[str]:
        """Physical target relations plus auxiliary requirement relations."""
        return frozenset(self.scenario.target_schema.relation_names()) | frozenset(
            self.aux_arities
        )

    def verifier(self, source_instance) -> "ScenarioVerifier":
        """A soundness verifier for candidate targets of this rewriting.

        All candidates produced from one rewriting share the scenario's
        source side, so the returned
        :class:`~repro.core.verify.ScenarioVerifier` materializes
        ``I_S ∪ Υ_S(I_S)`` once into a shared semantic database and
        verifies each candidate against it.
        """
        from repro.core.verify import ScenarioVerifier

        return ScenarioVerifier(self.scenario, source_instance)

    def problematic_views(self) -> List[str]:
        """Views implicated in the production of deds.

        This backs the paper's "GROM supports this process by highlighting
        problematic views" — the views a user should reformulate to avoid
        deds.
        """
        blamed: List[str] = []
        for dependency in self.dependencies:
            if not dependency.is_ded():
                continue
            info = self.provenance.get(dependency.name)
            if info is None:
                continue
            for view in info.views:
                if view not in blamed:
                    blamed.append(view)
        return blamed

    def __repr__(self) -> str:
        counts = ", ".join(f"{k}={v}" for k, v in sorted(self.counts().items()))
        return f"RewriteResult({counts})"


# ---------------------------------------------------------------------------
# Disjunct construction helpers
# ---------------------------------------------------------------------------


def _branch_to_disjunct(branch: ExpansionBranch) -> _RichDisjunct:
    conjunction = branch.conjunction
    return _RichDisjunct(
        atoms=conjunction.atoms,
        comparisons=conjunction.comparisons,
        necs=conjunction.negations,
    )


def _expand_disjunct(disjunct, views, factory):
    """Expand one conclusion disjunct over the target views.

    Returns the rich disjuncts (one per expansion branch — union views
    fan out) plus the union of inlined-view names.  The disjunct's
    enforced equalities and comparisons are carried onto every branch.
    """
    branches = expand_conjunction(
        Conjunction(atoms=disjunct.atoms), views, factory
    )
    rich: List[_RichDisjunct] = []
    provenance: List[str] = []
    for branch in branches:
        conjunction = branch.conjunction
        rich.append(
            _RichDisjunct(
                atoms=conjunction.atoms,
                equalities=tuple(disjunct.equalities),
                comparisons=tuple(disjunct.comparisons)
                + conjunction.comparisons,
                necs=conjunction.negations,
            )
        )
        for view in branch.provenance:
            if view not in provenance:
                provenance.append(view)
    return rich, tuple(provenance)


def _nec_to_disjunct(nec: NegatedConjunction) -> _RichDisjunct:
    """Turn a premise NEC into a (positive) conclusion disjunct."""
    inner = nec.inner
    return _RichDisjunct(
        atoms=inner.atoms,
        comparisons=inner.comparisons,
        necs=inner.negations,
    )


def _simplify_disjunct(
    disjunct: _RichDisjunct,
    premise_vars: FrozenSet[Variable],
    context: str,
) -> _RichDisjunct:
    """Resolve comparisons over local (existential) variables.

    Equality comparisons binding a local variable are applied as
    substitutions; order comparisons or disequalities over locals cannot
    be *enforced* by inventing values soundly, so they are rejected with
    a pointer at the offending view (:class:`UnsupportedViewError`).
    """
    changed = True
    current = disjunct
    while changed:
        changed = False
        keep: List[Comparison] = []
        substitution: Optional[Substitution] = None
        for comparison in current.comparisons:
            local_left = (
                isinstance(comparison.left, Variable)
                and comparison.left not in premise_vars
            )
            local_right = (
                isinstance(comparison.right, Variable)
                and comparison.right not in premise_vars
            )
            if not (local_left or local_right):
                keep.append(comparison)
                continue
            if comparison.op == "=" and substitution is None:
                if local_left:
                    substitution = Substitution(
                        {comparison.left: comparison.right}  # type: ignore[dict-item]
                    )
                else:
                    substitution = Substitution(
                        {comparison.right: comparison.left}  # type: ignore[dict-item]
                    )
                changed = True
                continue
            if comparison.op == "=":
                keep.append(comparison)  # handled on the next pass
                continue
            raise UnsupportedViewError(
                f"{context}: cannot enforce comparison {comparison} over an "
                f"existential variable; only equalities can be compiled. "
                f"Reformulate the view so the compared value is determined "
                f"by the mapping."
            )
        if substitution is None:
            current = replace(current, comparisons=tuple(keep))
        else:
            current = _RichDisjunct(
                atoms=tuple(substitution.apply_atom(a) for a in current.atoms),
                equalities=tuple(
                    substitution.apply_equality(e) for e in current.equalities
                ),
                comparisons=tuple(
                    substitution.apply_comparison(c) for c in keep
                ),
                necs=tuple(substitution.apply_negation(n) for n in current.necs),
            )
    return current


# ---------------------------------------------------------------------------
# The normalization worklist
# ---------------------------------------------------------------------------


class _Normalizer:
    """Eliminates negation from raw dependencies (see module docstring)."""

    def __init__(self, source_vocabulary: FrozenSet[str]) -> None:
        self.source_vocabulary = source_vocabulary
        self.aux_arities: Dict[str, int] = {}
        self._aux_counter = itertools.count()
        self.finished: List[Dependency] = []
        self.provenance: Dict[str, Provenance] = {}
        self._name_counter: Dict[str, int] = {}

    # -- helpers ---------------------------------------------------------------

    def _is_source_nec(self, nec: NegatedConjunction) -> bool:
        return nec.inner.relations() <= self.source_vocabulary

    def _unique_name(self, base: str) -> str:
        count = self._name_counter.get(base, 0)
        self._name_counter[base] = count + 1
        return base if count == 0 else f"{base}~{count}"

    def _fresh_aux(self, raw: _RawDependency, variables: Sequence[Variable]) -> Atom:
        name = f"{AUX_PREFIX}{raw.origin}_{next(self._aux_counter)}"
        self.aux_arities[name] = len(variables)
        return Atom(name, tuple(variables))

    # -- main loop ---------------------------------------------------------------

    def run(self, raws: List[_RawDependency]) -> None:
        work = list(raws)
        guard = 0
        budget = 10_000 + 100 * len(raws)
        while work:
            guard += 1
            if guard > budget:
                raise RewriteError(
                    "normalization did not converge (internal error)"
                )
            raw = work.pop(0)
            if self._process_disjunct_necs(raw, work):
                continue
            if self._process_premise_necs(raw, work):
                continue
            self._finalize(raw)

    # -- step 1: disjunct-side NECs -------------------------------------------------

    def _process_disjunct_necs(
        self, raw: _RawDependency, work: List[_RawDependency]
    ) -> bool:
        if not any(d.necs for d in raw.disjuncts):
            return False
        if len(raw.disjuncts) == 1:
            disjunct = raw.disjuncts[0]
            for i, nec in enumerate(disjunct.necs):
                companion_premise = raw.premise.extend(
                    Conjunction(atoms=disjunct.atoms)
                ).extend(nec.inner)
                work.append(
                    _RawDependency(
                        premise=companion_premise,
                        disjuncts=[],
                        name=f"{raw.name}.g{i}",
                        origin=raw.origin,
                        role="companion",
                        views=raw.views,
                    )
                )
            raw.disjuncts = [replace(disjunct, necs=())]
            work.append(raw)
            return True
        # Several disjuncts: companions must be conditional on the branch,
        # so the branch is routed through an auxiliary requirement atom.
        premise_vars = raw.premise.positive_variables()
        for index, disjunct in enumerate(raw.disjuncts):
            if not disjunct.necs:
                continue
            shared = sorted(disjunct.variables() & premise_vars)
            aux_atom = self._fresh_aux(raw, shared)
            # Definition: choosing the branch asserts its positive content.
            work.append(
                _RawDependency(
                    premise=Conjunction(atoms=(aux_atom,)),
                    disjuncts=[replace(disjunct, necs=())],
                    name=f"{raw.name}.b{index}",
                    origin=raw.origin,
                    role="companion",
                    views=raw.views,
                )
            )
            # Guards: the branch's negated requirements, conditional on aux.
            for i, nec in enumerate(disjunct.necs):
                guard_premise = Conjunction(
                    atoms=(aux_atom,) + disjunct.atoms,
                    comparisons=disjunct.comparisons,
                ).extend(nec.inner)
                work.append(
                    _RawDependency(
                        premise=guard_premise,
                        disjuncts=[],
                        name=f"{raw.name}.b{index}.g{i}",
                        origin=raw.origin,
                        role="companion",
                        views=raw.views,
                    )
                )
            raw.disjuncts[index] = _RichDisjunct(atoms=(aux_atom,))
        work.append(raw)
        return True

    # -- step 2: premise-side NECs -------------------------------------------------

    def _process_premise_necs(
        self, raw: _RawDependency, work: List[_RawDependency]
    ) -> bool:
        movable = [
            n for n in raw.premise.negations if not self._is_source_nec(n)
        ]
        if not movable:
            return False
        staying = tuple(
            n for n in raw.premise.negations if self._is_source_nec(n)
        )
        for nec in movable:
            raw.disjuncts.append(_nec_to_disjunct(nec))
        raw.premise = Conjunction(
            raw.premise.atoms, raw.premise.comparisons, staying
        )
        work.append(raw)
        return True

    # -- step 3: finalize -----------------------------------------------------------

    def _finalize(self, raw: _RawDependency) -> None:
        premise = _dedupe_premise(raw.premise)
        # Premise comparisons that are ground decide the dependency's fate.
        kept_comparisons: List[Comparison] = []
        for comparison in premise.comparisons:
            if comparison.is_ground():
                if not comparison.evaluate():
                    return  # premise unsatisfiable: the dependency is vacuous
                continue
            kept_comparisons.append(comparison)
        premise = Conjunction(premise.atoms, tuple(kept_comparisons), premise.negations)
        premise_vars = premise.positive_variables()

        final_disjuncts: List[Disjunct] = []
        seen: Set[Tuple] = set()
        for disjunct in raw.disjuncts:
            simplified = _simplify_disjunct(
                disjunct, premise_vars, context=raw.name or raw.origin
            )
            assert not simplified.necs, "necs must be eliminated before finalize"
            # Trivial/unsatisfiable pieces.
            equalities = tuple(
                e for e in simplified.equalities if not e.is_trivial()
            )
            dropped_unsat = False
            comparisons: List[Comparison] = []
            for comparison in simplified.comparisons:
                if comparison.is_ground():
                    if not comparison.evaluate():
                        dropped_unsat = True
                        break
                    continue
                comparisons.append(comparison)
            if dropped_unsat:
                continue  # this branch can never be used
            if len(equalities) != len(simplified.equalities) and not (
                simplified.atoms or equalities or comparisons
            ):
                # A trivial equality (x = x) makes the disjunct always true,
                # hence the whole dependency holds vacuously.
                return
            candidate = Disjunct(
                atoms=simplified.atoms,
                equalities=equalities,
                comparisons=tuple(comparisons),
            )
            if candidate.is_empty():
                return  # an empty disjunct is `true`: dependency vacuous
            key = (candidate.atoms, candidate.equalities, candidate.comparisons)
            if key not in seen:
                seen.add(key)
                final_disjuncts.append(candidate)

        name = self._unique_name(raw.name)
        dependency = Dependency(premise, tuple(final_disjuncts), name)
        dependency.check_safety()
        self.finished.append(dependency)
        self.provenance[name] = Provenance(
            origin=raw.origin, views=raw.views, role=raw.role
        )


def _dedupe_premise(premise: Conjunction) -> Conjunction:
    seen_atoms: List[Atom] = []
    for atom in premise.atoms:
        if atom not in seen_atoms:
            seen_atoms.append(atom)
    seen_comparisons: List[Comparison] = []
    for comparison in premise.comparisons:
        if comparison not in seen_comparisons:
            seen_comparisons.append(comparison)
    return Conjunction(tuple(seen_atoms), tuple(seen_comparisons), premise.negations)


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def _collect_avoid(scenario: MappingScenario) -> Set[Variable]:
    avoid: Set[Variable] = set()
    for dependency in list(scenario.mappings) + list(scenario.target_constraints):
        avoid |= dependency.variables()
    for program in (scenario.source_views, scenario.target_views):
        if program is None:
            continue
        for rule in program:
            avoid |= rule.body.variables()
            avoid |= set(rule.head.variables())
    return avoid


def rewrite(
    scenario: MappingScenario,
    unfold_source_premises: bool = False,
) -> RewriteResult:
    """Rewrite a semantic mapping scenario into physical dependencies.

    With the default ``unfold_source_premises=False``, mapping premises
    keep their source-view atoms and the chase is expected to run over
    ``I_S ∪ Υ_S(I_S)`` (see :func:`repro.core.compose.extend_source`).
    With ``True`` the premises are unfolded instead; source-side negation
    then remains in premises (safe: the source never changes during the
    chase).
    """
    factory = VariableFactory(prefix="u", avoid=_collect_avoid(scenario))
    raws: List[_RawDependency] = []

    for mapping in scenario.mappings:
        conclusion = mapping.disjuncts[0]
        conclusion_conjunction = Conjunction(
            atoms=conclusion.atoms, comparisons=conclusion.comparisons
        )
        conclusion_branches = expand_conjunction(
            conclusion_conjunction, scenario.target_views, factory
        )
        if not conclusion_branches:
            raise RewriteError(
                f"mapping {mapping.describe()}: conclusion expands to an "
                f"empty union (no view rule matches)"
            )
        if unfold_source_premises and scenario.source_views is not None:
            premise_branches = expand_conjunction(
                mapping.premise, scenario.source_views, factory
            )
        else:
            premise_branches = [ExpansionBranch(mapping.premise)]
        multiple = len(premise_branches) > 1
        for index, premise_branch in enumerate(premise_branches):
            views = tuple(
                dict.fromkeys(
                    premise_branch.provenance
                    + tuple(
                        v for b in conclusion_branches for v in b.provenance
                    )
                )
            )
            name = mapping.describe()
            if multiple:
                name = f"{name}#p{index}"
            raws.append(
                _RawDependency(
                    premise=premise_branch.conjunction,
                    disjuncts=[_branch_to_disjunct(b) for b in conclusion_branches],
                    name=name,
                    origin=mapping.describe(),
                    views=views,
                )
            )

    for constraint in scenario.target_constraints:
        premise_branches = expand_conjunction(
            constraint.premise, scenario.target_views, factory
        )
        multiple = len(premise_branches) > 1
        for index, branch in enumerate(premise_branches):
            name = constraint.describe()
            if multiple:
                name = f"{name}#p{index}"
            disjuncts: List[_RichDisjunct] = []
            conclusion_views: Tuple[str, ...] = ()
            for original in constraint.disjuncts:
                if original.atoms:
                    # tgd-style constraint (foreign key / inclusion
                    # dependency over the semantic schema): the concluded
                    # view atoms unfold like mapping conclusions do.
                    expanded, views_used = _expand_disjunct(
                        original, scenario.target_views, factory
                    )
                    disjuncts.extend(expanded)
                    conclusion_views = conclusion_views + views_used
                else:
                    disjuncts.append(
                        _RichDisjunct(
                            atoms=original.atoms,
                            equalities=original.equalities,
                            comparisons=original.comparisons,
                        )
                    )
            raws.append(
                _RawDependency(
                    premise=branch.conjunction,
                    disjuncts=disjuncts,
                    name=name,
                    origin=constraint.describe(),
                    views=tuple(
                        dict.fromkeys(branch.provenance + conclusion_views)
                    ),
                )
            )

    normalizer = _Normalizer(frozenset(scenario.source_vocabulary()))
    normalizer.run(raws)
    return RewriteResult(
        scenario,
        normalizer.finished,
        normalizer.provenance,
        normalizer.aux_arities,
    )
