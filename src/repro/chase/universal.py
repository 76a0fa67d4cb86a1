"""Universal solutions: satisfaction checking and core computation.

Universal solutions (Fagin–Kolaitis–Miller–Popa, the paper's [4]) are
the "good" solutions of standard data-exchange scenarios: they map
homomorphically into every other solution.  This module provides

* :func:`satisfies` / :func:`violations` — does an instance satisfy a
  dependency set (the definition of *solution*);
* :func:`is_universal_for` — is one solution universal relative to a
  set of candidate solutions (tested via homomorphism existence);
* :func:`core_of` — the core of an instance with labeled nulls, i.e.
  the smallest homomorphically-equivalent subinstance.  The core is the
  canonical minimal universal solution; Llunatic (the chase engine GROM
  builds on) ships core computation, so we do too.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence, Tuple

from repro.core.verify import Target, Violation, _check, _encoded
from repro.logic.dependencies import Dependency
from repro.logic.homomorphism import (
    apply_assignment,
    exists_homomorphism,
    find_homomorphism,
)
from repro.logic.terms import Null, Term, Variable
from repro.relational.instance import Instance

__all__ = ["satisfies", "violations", "is_universal_for", "core_of"]


def violations(
    dependencies: Sequence[Dependency],
    instance: Target,
    limit: int = 10,
) -> List[Tuple[str, Dict[Variable, Term]]]:
    """Premise matches with no satisfied conclusion disjunct.

    The instance is encoded once and each dependency is checked by the
    verifier's encoded check, premise and conclusion on the same store
    (an equality's variable the premise does not bind stands for
    itself).  Dependencies are checked in order, and the scan stops at
    the ``limit``-th violation, in the middle of a premise if need be.
    """
    store = _encoded(instance)
    found: List[Violation] = []
    for dependency in dependencies:
        _check(
            dependency, store, store, None, ("",) * 2, found, limit, read_all=False
        )
        if len(found) >= limit:
            break
    return [(v.dependency, dict(v.binding)) for v in found]


def satisfies(dependencies: Sequence[Dependency], instance: Target) -> bool:
    """Whether ``instance`` satisfies every dependency (is a *model*)."""
    return not violations(dependencies, instance, limit=1)


def is_universal_for(
    solution: Instance, others: Iterable[Instance]
) -> bool:
    """Whether ``solution`` maps homomorphically into every other solution."""
    mine = list(solution)
    return all(exists_homomorphism(mine, list(other)) for other in others)


def core_of(instance: Instance) -> Instance:
    """The core of an instance with labeled nulls.

    Computed by repeatedly looking for a *proper retraction*: a
    homomorphism from the instance into itself whose image misses at
    least one fact.  When no proper retraction exists the instance is
    its own core.  Exponential in the worst case (core computation is
    NP-hard) but perfectly fine at the scenario sizes GROM produces.
    """
    current = list(instance)
    changed = True
    while changed:
        changed = False
        for index, fact in enumerate(current):
            if not any(isinstance(t, Null) for t in fact.terms):
                continue
            rest = current[:index] + current[index + 1 :]
            assignment = find_homomorphism(current, rest)
            if assignment is None:
                continue
            image = {apply_assignment(assignment, a) for a in current}
            if len(image) < len(current):
                current = sorted(image, key=str)
                changed = True
                break
    core = Instance()
    for fact in current:
        core.add(fact)
    return core

