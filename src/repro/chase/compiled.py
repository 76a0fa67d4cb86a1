"""Per-dependency compiled execution plans for the chase hot path.

A chase run evaluates the same handful of dependencies over and over:
every round re-finds premise matches, and every premise match probes
every conclusion disjunct for satisfaction.  Re-planning those joins on
each call dominated the profile, so this module compiles each dependency
once on top of the shared incremental engine
(:mod:`repro.relational.delta`) and caches

* the premise :class:`~repro.relational.delta.DeltaPlans` (full
  evaluation plus one *anchored* plan per premise atom — delta
  evaluation joins the anchor, restricted to the round's new facts,
  first),
* per disjunct: the equality/comparison schedule plus a compiled
  satisfaction probe seeded with the premise variables.

Satisfaction probing is a **hash anti-join**: the conclusion relation's
hash index (on the positions the premise binds) is the build side, the
premise matches are the probe side, and a match is *unsatisfied* exactly
when its key misses the index.  Because
:meth:`repro.relational.kernel.ColumnarInstance.encoded_index` maintains
live indexes incrementally on insertion, facts created by enforcing one match are
visible to the next match's probe — preserving the restricted chase's
semantics while each probe costs O(1) instead of a fresh join.

All of a dependency's plans share one :class:`~repro.relational.delta.PlanCache`,
whose recompile policy (size doubling + distinct-key selectivity drift)
keeps plans no more than a constant factor stale.  Plans are otherwise
data-independent, so one :class:`CompiledDependency` is reusable across
rounds, runs, and — for the greedy ded search — across all derived
scenarios of a selection sweep.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import ChaseError
from repro.logic.atoms import Conjunction
from repro.logic.dependencies import Dependency
from repro.logic.terms import Term, Variable
from repro.relational.delta import DeltaPlans, PlanCache, RowDelta
from repro.relational.kernel import CodeComparison, TermPool

__all__ = ["CompiledDependency", "compile_dependencies"]


def _code_getter(term: Term, slot_of: Dict[Variable, int], pool: TermPool):
    """A closure reading one disjunct term's code off a premise row.

    Strict: a variable the premise does not bind is a malformed
    dependency and must fail loudly *when fired*, not at compile time
    (the engine may never reach the disjunct)."""
    if isinstance(term, Variable):
        slot = slot_of.get(term)
        if slot is None:
            def missing(_row, _term=term):
                raise ChaseError(f"unbound variable {_term} during chase step")

            return missing
        return lambda row, _slot=slot: row[_slot]
    code = pool.encode(term)
    return lambda _row, _code=code: _code


def _comparison_check(comparison, slot_of: Dict[Variable, int], pool: TermPool):
    """The kernel's code-level test of a disjunct comparison over a
    premise row — or, when the premise leaves one of its variables
    unbound, a check that fails loudly when fired (as
    :func:`_code_getter` does), not at compile time."""
    for variable in comparison.variables():
        if variable not in slot_of:
            return _code_getter(variable, slot_of, pool)
    return CodeComparison(comparison, slot_of, pool).check


class _DisjunctKernel:
    """One conclusion disjunct lowered onto premise rows.

    ``equalities`` are (left, right) code getters (codes compare like
    terms: the pool interns by term equality); ``comparisons`` pair the
    original comparison (failure messages) with a compiled check;
    ``atom_templates`` are per-atom (relation, entries) where each entry
    is (kind, value) with kind 0 = premise slot, 1 = existential index,
    2 = interned code; ``existential_hints`` are the fresh-null hints in
    the engine's invention order (first occurrence across the disjunct's
    atoms, left to right), which the disjunctive chase shares."""

    __slots__ = ("equalities", "comparisons", "atom_templates", "existential_hints")

    def __init__(self, disjunct, slot_of: Dict[Variable, int], pool: TermPool) -> None:
        self.equalities = tuple(
            (
                _code_getter(equality.left, slot_of, pool),
                _code_getter(equality.right, slot_of, pool),
            )
            for equality in disjunct.equalities
        )
        self.comparisons = tuple(
            (comparison, _comparison_check(comparison, slot_of, pool))
            for comparison in disjunct.comparisons
        )
        existential_index: Dict[Variable, int] = {}
        hints: List[str] = []
        templates: List[Tuple[str, Tuple[Tuple[int, int], ...]]] = []
        for atom in disjunct.atoms:
            entries: List[Tuple[int, int]] = []
            for term in atom.terms:
                if isinstance(term, Variable):
                    slot = slot_of.get(term)
                    if slot is not None:
                        entries.append((0, slot))
                    else:
                        index = existential_index.get(term)
                        if index is None:
                            index = len(hints)
                            existential_index[term] = index
                            hints.append(term.name)
                        entries.append((1, index))
                else:
                    entries.append((2, pool.encode(term)))
            templates.append((atom.relation, tuple(entries)))
        self.atom_templates = tuple(templates)
        self.existential_hints = tuple(hints)


class CompiledDependency:
    """One dependency's cached premise and satisfaction plans.

    Plans live in a per-dependency :class:`PlanCache` and are recompiled
    under its shared policy: join-order quality depends on selectivity
    estimates, and the first probes of a chase run happen against
    still-empty target relations whose statistics are useless.  The
    size-doubling rule keeps recompiles logarithmic in the final
    instance size while the drift rule reacts to key-distribution
    changes growth alone would miss.
    """

    __slots__ = (
        "dependency",
        "_premise",
        "_satisfaction",
        "_cache",
        "premise_varlist",
        "_kernel_pool",
        "_kernels",
    )

    def __init__(self, dependency: Dependency) -> None:
        self.dependency = dependency
        self._cache = PlanCache()
        self._premise = DeltaPlans(
            dependency.premise, cache=self._cache, key="premise"
        )
        premise_vars = frozenset(dependency.premise.positive_variables())
        self._satisfaction = [
            DeltaPlans(
                Conjunction(atoms=disjunct.atoms),
                bound=premise_vars,
                cache=self._cache,
                key=("satisfied", index),
            )
            for index, disjunct in enumerate(dependency.disjuncts)
        ]
        #: Layout of encoded premise rows: the premise's positive
        #: variables in name order — by construction the same varlist
        #: every encoded premise plan produces (bound is empty, fresh is
        #: exactly this set), and the same order the engine's canonical
        #: ``sorted(binding)`` iteration visits.
        self.premise_varlist: Tuple[Variable, ...] = tuple(sorted(premise_vars))
        self._kernel_pool: Optional[TermPool] = None
        self._kernels: List[Optional[_DisjunctKernel]] = [
            None for _ in dependency.disjuncts
        ]

    # -- premise -----------------------------------------------------------

    def premise_matches_encoded(
        self, working, delta_rows: Optional[RowDelta]
    ) -> List[Tuple[int, ...]]:
        """Encoded premise bindings as code rows aligned to
        :attr:`premise_varlist`, optionally delta-restricted.
        ``delta_rows`` values may be row-id sets or the engine's
        per-round :class:`~repro.relational.kernel.RowMask` windows —
        the block probes restrict index buckets through either."""
        if delta_rows is None:
            return self._premise.matches_encoded(working)
        return self._premise.delta_matches_encoded(working, delta_rows)

    def disjunct_kernel(self, disjunct_index: int, pool: TermPool) -> _DisjunctKernel:
        """The disjunct's enforcement kernel lowered onto ``pool``
        (cached; templates and literal codes are data-independent)."""
        if self._kernel_pool is not pool:
            self._kernel_pool = pool
            self._kernels = [None for _ in self.dependency.disjuncts]
        kernel = self._kernels[disjunct_index]
        if kernel is None:
            slot_of = {v: i for i, v in enumerate(self.premise_varlist)}
            kernel = _DisjunctKernel(
                self.dependency.disjuncts[disjunct_index], slot_of, pool
            )
            self._kernels[disjunct_index] = kernel
        return kernel

    # -- observability -----------------------------------------------------

    @property
    def plan_cache(self) -> PlanCache:
        """The dependency's plan cache (counter harvest for ``plan.*``)."""
        return self._cache

    # -- satisfaction ------------------------------------------------------

    def disjunct_satisfied_encoded(
        self, disjunct_index: int, row: Tuple[int, ...], working
    ) -> bool:
        """Whether one conclusion disjunct already holds for a premise
        code row.

        Equality is code equality (the pool interns by term equality),
        comparisons are the kernel's :class:`CodeComparison` tests on
        codes, and the atom probe is a hash anti-join over the
        incrementally-maintained encoded index — facts enforced for one
        match stay visible to the next."""
        kernel = self.disjunct_kernel(disjunct_index, working.pool)
        for left_get, right_get in kernel.equalities:
            if left_get(row) != right_get(row):
                return False
        for _comparison, check in kernel.comparisons:
            if not check(row):
                return False
        if not kernel.atom_templates:
            return True
        return self._satisfaction[disjunct_index].exists_encoded(
            working, self.premise_varlist, row
        )

    def satisfied_encoded(self, row: Tuple[int, ...], working) -> bool:
        """Whether *any* conclusion disjunct holds for a premise code row."""
        return any(
            self.disjunct_satisfied_encoded(i, row, working)
            for i in range(len(self.dependency.disjuncts))
        )


def compile_dependencies(
    dependencies: Sequence[Dependency],
) -> List[CompiledDependency]:
    """Compile every dependency of a scenario (plans fill in lazily)."""
    return [CompiledDependency(dependency) for dependency in dependencies]
