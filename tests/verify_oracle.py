"""Decoded per-binding soundness checks: the verifier's test oracle.

:mod:`repro.core.verify` checks encoded premise rows against encoded
conclusion plans.  This module keeps the straightforward decoded form it
replaced — one ``Conjunction`` and one ``exists`` call per premise
binding and disjunct — so the differential suite can assert that both
produce identical :class:`~repro.core.verify.VerificationReport`s.
"""

from __future__ import annotations

from typing import List

from repro.core.verify import VerificationReport, Violation
from repro.logic.atoms import Conjunction
from repro.logic.dependencies import Dependency
from repro.logic.terms import Variable
from repro.relational.query import evaluate_iter, exists


def _resolve(term, binding):
    if isinstance(term, Variable):
        return binding.get(term, term)
    return term


def _equalities_hold(disjunct, binding) -> bool:
    return all(
        _resolve(e.left, binding) == _resolve(e.right, binding)
        for e in disjunct.equalities
    )


def check_tgd(
    dependency: Dependency,
    source_side,
    target_side,
    violations: List[Violation],
    max_violations: int,
) -> int:
    matched = 0
    frontier = dependency.frontier()
    for binding in evaluate_iter(dependency.premise, source_side):
        matched += 1
        satisfied = False
        for disjunct in dependency.disjuncts:
            seed = {v: t for v, t in binding.items() if v in frontier}
            body = Conjunction(
                atoms=disjunct.atoms, comparisons=disjunct.comparisons
            )
            if _equalities_hold(disjunct, binding) and exists(
                body, target_side, seed=seed
            ):
                satisfied = True
                break
        if not satisfied and len(violations) < max_violations:
            violations.append(
                Violation(
                    dependency.describe(),
                    tuple(sorted(binding.items())),
                    "no conclusion disjunct satisfied",
                )
            )
    return matched


def check_constraint(
    dependency: Dependency,
    target_side,
    violations: List[Violation],
    max_violations: int,
) -> int:
    matched = 0
    for binding in evaluate_iter(dependency.premise, target_side):
        matched += 1
        if not dependency.disjuncts:
            if len(violations) < max_violations:
                violations.append(
                    Violation(
                        dependency.describe(),
                        tuple(sorted(binding.items())),
                        "denial premise matched",
                    )
                )
            continue
        satisfied = False
        for disjunct in dependency.disjuncts:
            body = Conjunction(
                atoms=disjunct.atoms, comparisons=disjunct.comparisons
            )
            if _equalities_hold(disjunct, binding) and exists(
                body, target_side, seed=binding
            ):
                satisfied = True
                break
        if not satisfied and len(violations) < max_violations:
            violations.append(
                Violation(
                    dependency.describe(),
                    tuple(sorted(binding.items())),
                    "constraint conclusion not satisfied",
                )
            )
    return matched


def oracle_verify(
    scenario, source_side, target_side, max_violations: int = 100
) -> VerificationReport:
    """The report :meth:`ScenarioVerifier.verify` must produce, from
    the decoded checks over the given ``I_S ∪ Υ_S(I_S)`` and
    ``J_T ∪ Υ_T(J_T)``."""
    report = VerificationReport(ok=True)
    for mapping in scenario.mappings:
        found: List[Violation] = []
        report.premise_matches += check_tgd(
            mapping, source_side, target_side, found, max_violations
        )
        report.mappings_checked += 1
        report.violations.extend(found[: max_violations - len(report.violations)])
    for constraint in scenario.target_constraints:
        found = []
        report.premise_matches += check_constraint(
            constraint, target_side, found, max_violations
        )
        report.constraints_checked += 1
        report.violations.extend(found[: max_violations - len(report.violations)])
    report.ok = not report.violations
    return report
