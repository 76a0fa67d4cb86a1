"""The quadratic greedy planner, kept as the incremental planner's oracle.

Before :func:`repro.relational.query._greedy_order` rescored only the
atoms a pick touched, the planner rescored every remaining atom on
every pick: ``min(remaining, key=score)`` over the atoms in index
order, so the lowest score wins and the lower atom index breaks a tie.
:func:`quadratic_order` is that loop, with the intersection rule found
by brute force before each pick: a fresh variable that is the only
unbound term of two or more remaining atoms, occurring once in each,
binds from an intersection of those atoms (with several such variables,
the one whose lowest atom index is lowest).  It returns the order in
``_greedy_order``'s format, so the two compare directly.
"""

from __future__ import annotations

from typing import List, Optional

from repro.logic.terms import Variable
from repro.relational.query import _atom_score

__all__ = ["quadratic_order"]


def _sole_unbound(atom, bound) -> Optional[Variable]:
    """The atom's only unbound term when it is a variable occurring once."""
    unbound = [t for t in atom.terms if isinstance(t, Variable) and t not in bound]
    if len(unbound) == 1:
        return unbound[0]
    return None


def _positions(atom, bound):
    """The atom's positions holding a constant or a bound variable."""
    return tuple(
        p for p, t in enumerate(atom.terms) if not isinstance(t, Variable) or t in bound
    )


def quadratic_order(atoms, bound, instance, first_atom=None) -> List[object]:
    bound_now = set(bound)
    order: List[object] = []
    remaining = list(range(len(atoms)))
    if first_atom is not None:
        remaining.remove(first_atom)
        order.append(first_atom)
        bound_now.update(atoms[first_atom].variables())
    while remaining:
        candidates = {}
        for i in remaining:
            variable = _sole_unbound(atoms[i], bound_now)
            if variable is not None:
                candidates.setdefault(variable, []).append(i)
        ready = [(members[0], v) for v, members in candidates.items() if len(members) >= 2]
        if ready:
            _lowest, variable = min(ready, key=lambda entry: entry[0])
            members = tuple(candidates[variable])
            order.append((variable, members))
            remaining = [i for i in remaining if i not in members]
            bound_now.add(variable)
            continue
        best = min(
            remaining,
            key=lambda i: _atom_score(
                atoms[i], _positions(atoms[i], bound_now), instance
            ),
        )
        remaining.remove(best)
        order.append(best)
        bound_now.update(atoms[best].variables())
    return order
