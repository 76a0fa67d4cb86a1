"""The backtracking homomorphism search, kept as a differential oracle.

``repro.logic.homomorphism`` answers homomorphism questions with a
compiled query on the columnar join.  Before that it ran this search:
backtracking over indexed facts, ordering the pending atoms
most-constrained-first, with candidate facts fetched through a
two-level index — by relation and, for pattern atoms with *rigid*
positions (constants or frozen terms, which must match exactly), by a
lazily-built hash index keyed on those positions.  The code below is
that search as it was; ``tests/test_homomorphism.py`` compares the two
on random atom sets.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.logic.atoms import Atom
from repro.logic.homomorphism import Assignment, MappableTerm
from repro.logic.terms import Null, Term, Variable

__all__ = ["find_homomorphism", "exists_homomorphism", "all_homomorphisms"]


class _TargetIndex:
    """Relation- and rigidity-indexed view of the target fact set.

    ``candidates`` returns the facts a pattern atom can possibly map onto:
    all facts of its relation, narrowed — when the atom has rigid
    positions — to the hash bucket matching the rigid values.  Keyed
    indexes are built lazily per (relation, positions) shape and preserve
    relation-list order, so the search visits surviving candidates in the
    same order a full scan would.
    """

    def __init__(self, atoms: Iterable[Atom]) -> None:
        self._by_relation: Dict[str, List[Atom]] = defaultdict(list)
        for atom in atoms:
            self._by_relation[atom.relation].append(atom)
        self._keyed: Dict[
            tuple, Dict[tuple, List[Atom]]
        ] = {}

    def candidates(
        self, relation: str, positions: tuple, key: tuple
    ) -> Sequence[Atom]:
        if not positions:
            return self._by_relation.get(relation, ())
        index_key = (relation, positions)
        keyed = self._keyed.get(index_key)
        if keyed is None:
            keyed = defaultdict(list)
            for fact in self._by_relation.get(relation, ()):
                if len(fact.terms) > positions[-1]:
                    keyed[tuple(fact.terms[i] for i in positions)].append(fact)
            self._keyed[index_key] = keyed
        return keyed.get(key, ())


def _mappable(term: Term, frozen: FrozenSet[Term]) -> bool:
    return isinstance(term, (Variable, Null)) and term not in frozen


def _order_atoms(atoms: Sequence[Atom], frozen: FrozenSet[Term]) -> List[Atom]:
    """Most-constrained-first ordering heuristic.

    Atoms with more rigid positions (constants / frozen terms) are matched
    first; this prunes the backtracking tree early.
    """
    def rigidity(atom: Atom) -> int:
        return sum(1 for t in atom.terms if not _mappable(t, frozen))

    return sorted(atoms, key=rigidity, reverse=True)


def _try_match(
    pattern: Atom,
    fact: Atom,
    assignment: Assignment,
    frozen: FrozenSet[Term],
) -> Optional[Assignment]:
    """Extend ``assignment`` so the pattern atom maps onto ``fact``."""
    if pattern.relation != fact.relation or pattern.arity != fact.arity:
        return None
    extension: Assignment = {}
    for p_term, f_term in zip(pattern.terms, fact.terms):
        if _mappable(p_term, frozen):
            current = assignment.get(p_term, extension.get(p_term))
            if current is None:
                extension[p_term] = f_term
            elif current != f_term:
                return None
        elif p_term != f_term:
            return None
    if not extension:
        return assignment
    merged = dict(assignment)
    merged.update(extension)
    return merged


def _probe_spec(atom: Atom, frozen: FrozenSet[Term]) -> Tuple[tuple, tuple]:
    """The rigid positions of a pattern atom and their (static) key.

    Rigid terms — constants and frozen variables/nulls — must map to
    themselves, so the key they probe with never depends on the current
    assignment and can be computed once per search.
    """
    positions = tuple(
        i for i, t in enumerate(atom.terms) if not _mappable(t, frozen)
    )
    key = tuple(atom.terms[i] for i in positions)
    return positions, key


def _search(
    pending: List[Tuple[Atom, tuple, tuple]],
    index: _TargetIndex,
    assignment: Assignment,
    frozen: FrozenSet[Term],
    collect: Optional[List[Assignment]],
    limit: Optional[int],
) -> Optional[Assignment]:
    if not pending:
        if collect is not None:
            collect.append(dict(assignment))
            return None if limit is None or len(collect) < limit else assignment
        return assignment
    (atom, positions, key), rest = pending[0], pending[1:]
    for fact in index.candidates(atom.relation, positions, key):
        extended = _try_match(atom, fact, assignment, frozen)
        if extended is None:
            continue
        found = _search(rest, index, extended, frozen, collect, limit)
        if found is not None:
            return found
    return None


def find_homomorphism(
    source: Iterable[Atom],
    target: Iterable[Atom],
    seed: Optional[Mapping[MappableTerm, Term]] = None,
    frozen: Iterable[Term] = (),
) -> Optional[Assignment]:
    """Find one homomorphism from ``source`` into ``target``.

    ``seed`` pre-binds some variables/nulls; ``frozen`` lists terms that
    must map to themselves (used e.g. when checking that a solution is
    universal *relative to* the source constants).  Returns ``None`` when
    no homomorphism exists.
    """
    source_atoms = list(source)
    frozen_set = frozenset(frozen)
    index = _TargetIndex(target)
    ordered = [
        (atom, *_probe_spec(atom, frozen_set))
        for atom in _order_atoms(source_atoms, frozen_set)
    ]
    return _search(ordered, index, dict(seed or {}), frozen_set, None, None)


def exists_homomorphism(
    source: Iterable[Atom],
    target: Iterable[Atom],
    seed: Optional[Mapping[MappableTerm, Term]] = None,
    frozen: Iterable[Term] = (),
) -> bool:
    """Whether some homomorphism from ``source`` into ``target`` exists."""
    return find_homomorphism(source, target, seed, frozen) is not None


def all_homomorphisms(
    source: Iterable[Atom],
    target: Iterable[Atom],
    limit: Optional[int] = None,
    frozen: Iterable[Term] = (),
) -> List[Assignment]:
    """All homomorphisms from ``source`` into ``target`` (up to ``limit``)."""
    source_atoms = list(source)
    frozen_set = frozenset(frozen)
    index = _TargetIndex(target)
    ordered = [
        (atom, *_probe_spec(atom, frozen_set))
        for atom in _order_atoms(source_atoms, frozen_set)
    ]
    collected: List[Assignment] = []
    _search(ordered, index, {}, frozen_set, collected, limit)
    return collected
