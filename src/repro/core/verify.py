"""End-to-end soundness verification.

The paper's correctness contract for the rewriting is *soundness*:
whenever the rewritten dependencies ``Σ_ST ∪ Σ_T`` admit a universal
solution ``J_T`` over ``I_S``, then ``Υ_T(J_T)`` is a solution for the
original semantic scenario.  This module checks exactly that, given a
produced target instance:

* every mapping tgd of the scenario is satisfied by
  ``I_S ∪ Υ_S(I_S)`` versus ``J_T ∪ Υ_T(J_T)``;
* every target constraint (egd/denial over the semantic schema) is
  satisfied by ``Υ_T(J_T)``.

The verifier is used by the integration tests and by the property-based
soundness suite; it is also exported so downstream users can audit runs.

The source side ``I_S ∪ Υ_S(I_S)`` never depends on the candidate
target, so :class:`ScenarioVerifier` materializes it once (into a
shared :class:`~repro.datalog.evaluate.SemanticDatabase`) and reuses it
across every candidate — verifying k rewritings of one scenario costs
one source materialization, not k.

Both sides are checked on the columnar kernel.  The target side is the
working store of a :class:`~repro.datalog.evaluate.SemanticDatabase`
over the target views, fed the candidate's rows encoded (a plain
:class:`~repro.relational.instance.Instance` is encoded once, at the
edge).  Each check compiles its premise plan and one plan per
conclusion disjunct once, drains premise rows block-wise and probes the
conclusion seeded straight from the premise row; rows decode only to
report a violation.

Checks run serially, in dependency order, so the report (and its
violation prefix under the cap) is deterministic.  Verifying many
candidates of one scenario is one :meth:`ScenarioVerifier.verify` call
per candidate against the shared source side.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple, Union

from repro.core.compose import source_database
from repro.core.scenario import MappingScenario
from repro.datalog.evaluate import SemanticDatabase
from repro.logic.atoms import Conjunction
from repro.logic.dependencies import Dependency
from repro.logic.terms import Term, Variable
from repro.relational.instance import Instance
from repro.relational.kernel import ColumnarInstance, global_pool
from repro.relational.query import compile_query

__all__ = [
    "Violation",
    "VerificationReport",
    "ScenarioVerifier",
    "verify_solution",
    "semantic_target",
    "target_side",
]

#: A candidate target: a set-based instance, or an encoded store.
Target = Union[Instance, ColumnarInstance]


@dataclass(frozen=True)
class Violation:
    """One unsatisfied premise match of a dependency."""

    dependency: str
    binding: Tuple[Tuple[Variable, Term], ...]
    reason: str

    def __str__(self) -> str:
        assignment = ", ".join(f"{v}={t}" for v, t in self.binding)
        return f"{self.dependency} violated at [{assignment}]: {self.reason}"


@dataclass
class VerificationReport:
    """Outcome of :func:`verify_solution`."""

    ok: bool
    violations: List[Violation] = field(default_factory=list)
    mappings_checked: int = 0
    constraints_checked: int = 0
    premise_matches: int = 0

    def __str__(self) -> str:
        if self.ok:
            return (
                f"OK ({self.mappings_checked} mappings, "
                f"{self.constraints_checked} constraints, "
                f"{self.premise_matches} premise matches)"
            )
        lines = [f"FAILED with {len(self.violations)} violations:"]
        lines += [f"  {v}" for v in self.violations[:10]]
        if len(self.violations) > 10:
            lines.append(f"  ... {len(self.violations) - 10} more")
        return "\n".join(lines)


def _encoded(instance: Target) -> ColumnarInstance:
    """``instance`` as a store on the global pool, encoding at most once."""
    if isinstance(instance, ColumnarInstance) and instance.pool is global_pool():
        return instance
    store = ColumnarInstance()
    if isinstance(instance, ColumnarInstance):
        store.ingest(instance)
    else:
        store.add_all(instance)
    return store


def target_side(scenario: MappingScenario, target_instance: Target) -> ColumnarInstance:
    """``J_T ∪ Υ_T(J_T)`` as the encoded store the checks run on.

    The target views materialize in place over the candidate's rows, in
    the semantic database's store: a columnar candidate moves encoded, a
    plain ``Instance`` is encoded once on the way in."""
    database = SemanticDatabase(scenario.target_views)
    if isinstance(target_instance, ColumnarInstance):
        database.ingest(target_instance)
    else:
        database.add_facts(target_instance)
    return database.refresh().instance


def semantic_target(
    scenario: MappingScenario, target_instance: Target
) -> Instance:
    """``J_T ∪ Υ_T(J_T)``: the semantic view of a produced target."""
    return target_side(scenario, target_instance).to_instance()


def _code_getter(term: Term, slot_of, pool):
    """A disjunct equality operand read off an encoded premise row.

    A variable the premise does not bind stands for itself, so it only
    equals the same unbound variable — the decoded check's semantics."""
    if isinstance(term, Variable):
        slot = slot_of.get(term)
        if slot is None:
            return lambda _row, _term=term: _term
        return lambda row, _slot=slot: row[_slot]
    code = pool.encode(term)
    return lambda _row, _code=code: _code


def _check(
    dependency: Dependency,
    premise_side: ColumnarInstance,
    conclusion_side: ColumnarInstance,
    seeded: Optional[frozenset],
    reasons: Tuple[str, str],
    violations: List[Violation],
    max_violations: int,
    read_all: bool = True,
) -> int:
    """Check one dependency; returns its premise-match count.

    Premise rows come from ``premise_side`` and each conclusion disjunct
    is probed on ``conclusion_side``, seeded with the premise variables
    in ``seeded`` (all of them when None).  ``reasons`` are the
    violation texts for a denial and for an unsatisfied conclusion.
    Violations past ``max_violations`` are not recorded; with
    ``read_all`` False the premise scan stops there too, and the count
    covers only the rows read.
    """
    pool = premise_side.pool
    premise = compile_query(dependency.premise, (), premise_side).encoded(pool)
    varlist = premise.varlist
    bound = frozenset(varlist) if seeded is None else seeded & frozenset(varlist)
    slot_of = premise.slot_of
    disjuncts = []
    for disjunct in dependency.disjuncts:
        body = Conjunction(atoms=disjunct.atoms, comparisons=disjunct.comparisons)
        plan = compile_query(body, bound, conclusion_side).encoded(pool)
        equalities = tuple(
            (_code_getter(e.left, slot_of, pool), _code_getter(e.right, slot_of, pool))
            for e in disjunct.equalities
        )
        disjuncts.append((equalities, plan, plan.fill_for(varlist)))
    reason = reasons[1] if disjuncts else reasons[0]
    describe = dependency.describe()
    decode = premise_side.decode_term
    matched = 0
    for block in premise.blocks(premise_side):
        matched += len(block)
        for row in block:
            for equalities, plan, fill in disjuncts:
                if all(left(row) == right(row) for left, right in equalities) and (
                    plan.exists_filled(conclusion_side, fill, row)
                ):
                    break
            else:
                if len(violations) < max_violations:
                    binding = tuple(zip(varlist, map(decode, row)))
                    violations.append(Violation(describe, binding, reason))
                if not read_all and len(violations) >= max_violations:
                    return matched
    return matched


_MAPPING_REASONS = ("no conclusion disjunct satisfied",) * 2
_CONSTRAINT_REASONS = (
    "denial premise matched",
    "constraint conclusion not satisfied",
)


class ScenarioVerifier:
    """Soundness checks for many candidate targets of one scenario.

    The source side ``I_S ∪ Υ_S(I_S)`` is materialized once — either
    handed in (``source_side``, typically the chase input the pipeline
    already built) or computed on first use — and shared by every
    :meth:`verify` call.  Only the target side, which differs per
    candidate, is materialized per call.
    """

    def __init__(
        self,
        scenario: MappingScenario,
        source_instance: Instance,
        source_side: Optional[Target] = None,
    ) -> None:
        self.scenario = scenario
        self.source_instance = source_instance
        self._source_side = source_side
        self._source_store: Optional[ColumnarInstance] = None

    @property
    def source_side(self) -> Target:
        """``I_S ∪ Υ_S(I_S)``, materialized lazily and kept."""
        if self._source_side is None:
            self._source_side = source_database(
                self.scenario, self.source_instance
            ).instance
        return self._source_side

    def _encoded_source(self) -> ColumnarInstance:
        """The source side as an encoded store (encoded once, kept)."""
        if self._source_store is None:
            self._source_store = _encoded(self.source_side)
        return self._source_store

    def verify(
        self,
        target_instance: Target,
        max_violations: int = 100,
    ) -> VerificationReport:
        """Check one candidate target against the semantic scenario.

        ``target_instance`` is a set-based :class:`Instance` or a
        :class:`ColumnarInstance`; the latter is read without decoding.
        """
        report = VerificationReport(ok=True)
        source = self._encoded_source()
        target = target_side(self.scenario, target_instance)

        # Mapping premises read the source side; the conclusion is
        # seeded with the frontier (premise variables it mentions).
        for mapping in self.scenario.mappings:
            report.premise_matches += _check(
                mapping, source, target, mapping.frontier(),
                _MAPPING_REASONS, report.violations, max_violations,
            )
            report.mappings_checked += 1
        for constraint in self.scenario.target_constraints:
            report.premise_matches += _check(
                constraint, target, target, None,
                _CONSTRAINT_REASONS, report.violations, max_violations,
            )
            report.constraints_checked += 1

        report.ok = not report.violations
        return report


def verify_solution(
    scenario: MappingScenario,
    source_instance: Instance,
    target_instance: Target,
    max_violations: int = 100,
    source_side: Optional[Target] = None,
) -> VerificationReport:
    """Check that ``target_instance`` solves the original semantic scenario.

    ``target_instance`` should contain physical target facts (auxiliary
    ``_grom_req_*`` relations, if present, are ignored by virtue of not
    being mentioned in the scenario's dependencies); it may be an
    encoded :class:`ColumnarInstance`, which is checked without
    decoding.  ``source_side`` lets callers that already hold
    ``I_S ∪ Υ_S(I_S)`` (the pipeline's chase input) skip its
    re-materialization; verifying several candidates is cheaper still
    through :class:`ScenarioVerifier`.
    """
    return ScenarioVerifier(
        scenario, source_instance, source_side=source_side
    ).verify(target_instance, max_violations=max_violations)
