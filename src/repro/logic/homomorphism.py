"""Homomorphisms between sets of atoms / facts.

A homomorphism ``h`` from a set of atoms A to a set of atoms B maps
variables and labeled nulls of A to terms of B such that ``h(a) ∈ B`` for
every ``a ∈ A``, leaving constants fixed.  Homomorphisms are the semantic
yard-stick of data exchange: *universal* solutions are exactly the
solutions that map homomorphically into every other solution, and the
restricted chase checks homomorphism extension before firing a tgd.

A homomorphism search is a conjunctive query on the one compiled join
(:mod:`repro.relational.query`), so there is no second join evaluator:

* the target is loaded once into a
  :class:`~repro.relational.kernel.ColumnarInstance` (:func:`load_target`);
* the source becomes a :class:`Pattern`: one conjunction per group of
  atoms connected by shared variables or nulls, in which every variable
  or null is a query variable and constants stay literal.  Frozen and
  seeded terms are *bound* variables, seeded with their images; the
  others are fresh, and their bindings are the assignment.  Groups map
  independently, so a search never enumerates their cross product (the
  blow-up the backtracking search hit on chase models, whose nulls
  mostly sit in groups of one or two facts).

Tables are named by relation *and* arity on both sides, so an atom only
ever meets facts of its own arity, and a schema-less atom list may use
one relation at two arities.  Target atoms may hold variables (they
intern like constants, see :data:`_POOL`), which a frozen source
variable then has to meet.  The backtracking search this replaced is the
differential oracle in ``tests/homomorphism_oracle.py``.
"""

from __future__ import annotations

from collections import defaultdict
from itertools import islice, product
from typing import Dict, Iterable, List, Mapping, Optional, Union

from repro.logic.atoms import Atom, Conjunction
from repro.logic.terms import Null, Term, Variable
from repro.relational.kernel import ColumnarInstance, TermPool
from repro.relational.query import CompiledQuery

__all__ = [
    "Assignment",
    "Pattern",
    "load_target",
    "find_homomorphism",
    "exists_homomorphism",
    "all_homomorphisms",
    "homomorphically_equivalent",
    "apply_assignment",
]

MappableTerm = Union[Variable, Null]
_MAPPABLE = (Variable, Null)
Assignment = Dict[MappableTerm, Term]
"""A homomorphism under construction: maps variables/nulls to terms."""


def apply_assignment(assignment: Mapping[MappableTerm, Term], atom: Atom) -> Atom:
    """Apply a homomorphism to an atom (constants stay fixed)."""
    new_terms = []
    for term in atom.terms:
        if isinstance(term, (Variable, Null)):
            new_terms.append(assignment.get(term, term))
        else:
            new_terms.append(term)
    return Atom(atom.relation, tuple(new_terms))


class _VariablePool(TermPool):
    """A term pool that interns variables as well as constants.

    Homomorphism targets are atom lists, not only facts: a variable in a
    target is a value like any other, which only the same variable (a
    frozen or seeded one) can match.  No comparison ever reads a
    variable's code, so its value slots stay empty."""

    __slots__ = ()

    def _append(self, term: Term) -> None:
        if not isinstance(term, Variable):
            super()._append(term)
            return
        self._terms.append(term)
        self._orders.append(None)
        self.values.append(None)
        self.is_str.append(False)


#: The pool every homomorphism store and plan shares, so a pattern
#: lowers once and runs against any loaded target.
_POOL = _VariablePool()


def _table(atom: Atom) -> str:
    """The table an atom reads or fills: its relation at its arity."""
    return f"{atom.relation}/{len(atom.terms)}"


def load_target(target: Iterable[Atom]) -> ColumnarInstance:
    """The target atoms as a store, one table per (relation, arity)."""
    store = ColumnarInstance(pool=_POOL)
    encode = store.encode_term
    rows: Dict[str, list] = defaultdict(list)
    for atom in target:
        rows[_table(atom)].append(tuple(map(encode, atom.terms)))
    for table, table_rows in rows.items():
        store.extend_encoded(table, table_rows)
    return store


def _components(atoms: List[Atom], fixed: Mapping[Term, Term]) -> List[List[Atom]]:
    """The atoms grouped by shared free terms (variables and nulls that
    are neither frozen nor seeded), in source order."""
    parent = list(range(len(atoms)))

    def root(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    first_atom: Dict[Term, int] = {}
    for i, atom in enumerate(atoms):
        for term in atom.terms:
            if isinstance(term, _MAPPABLE) and term not in fixed:
                parent[root(i)] = root(first_atom.setdefault(term, i))
    groups: Dict[int, List[Atom]] = {}
    for i, atom in enumerate(atoms):
        groups.setdefault(root(i), []).append(atom)
    return list(groups.values())


class _Component:
    """One connected group of source atoms compiled as a query.

    Every variable and null becomes a query variable ``h0, h1, …``; the
    input's own variables never reach the query, so no name can
    collide.  Frozen and seeded terms are bound variables, seeded with
    their images; the others are fresh, and their bindings are what the
    component contributes to an assignment."""

    __slots__ = ("query", "fixed", "terms")

    def __init__(
        self,
        atoms: List[Atom],
        images: Mapping[Term, Term],
        statistics: Optional[ColumnarInstance],
    ) -> None:
        query_variable: Dict[Term, Variable] = {}

        def rename(term: Term) -> Term:
            if not isinstance(term, _MAPPABLE):
                return term
            return query_variable.setdefault(term, Variable(f"h{len(query_variable)}"))

        body = Conjunction(
            [Atom(_table(atom), tuple(map(rename, atom.terms))) for atom in atoms]
        )
        self.fixed = {v: images[t] for t, v in query_variable.items() if t in images}
        self.terms = [(t, v) for t, v in query_variable.items() if t not in images]
        self.query = CompiledQuery(body, self.fixed, statistics)

    def assignments(self, store: ColumnarInstance, limit: Optional[int]) -> List[Assignment]:
        bindings = self.query.bindings(store, self.fixed)
        return [
            {term: binding[variable] for term, variable in self.terms}
            for binding in islice(bindings, limit)
        ]


class Pattern:
    """A source atom set compiled once to run against loaded targets.

    ``seed`` pre-binds some variables/nulls and ``frozen`` lists terms
    that must map to themselves (frozen wins over a seed).  Each group
    of connected atoms is a :class:`_Component`; an atom without free
    terms is a fact the target must hold.  ``statistics`` is a store
    whose sizes order the joins (the target the pattern will run on, or
    one shaped like it).
    """

    __slots__ = ("_seed", "_facts", "_components")

    def __init__(
        self,
        source: Iterable[Atom],
        seed: Optional[Mapping[MappableTerm, Term]] = None,
        frozen: Iterable[Term] = (),
        statistics: Optional[ColumnarInstance] = None,
    ) -> None:
        self._seed = dict(seed or {})
        images = {**self._seed, **{term: term for term in frozen}}
        self._facts: List[Atom] = []
        self._components: List[_Component] = []
        for group in _components(list(source), images):
            atom = group[0]
            if len(group) == 1 and all(
                t in images or not isinstance(t, _MAPPABLE) for t in atom.terms
            ):
                terms = tuple(images.get(t, t) for t in atom.terms)
                self._facts.append(Atom(_table(atom), terms))
            else:
                self._components.append(_Component(group, images, statistics))

    def exists(self, store: ColumnarInstance) -> bool:
        """Whether the pattern maps into a :func:`load_target` store."""
        return all(fact in store for fact in self._facts) and all(
            component.query.exists(store, component.fixed)
            for component in self._components
        )

    def assignments(
        self, store: ColumnarInstance, limit: Optional[int] = None
    ) -> List[Assignment]:
        """Up to ``limit`` homomorphisms into a :func:`load_target`
        store, each holding the seed and every assigned source term.

        The first ``limit`` combinations of the components' matches
        use at most ``limit`` matches of each, so no component is read
        further."""
        if not all(fact in store for fact in self._facts):
            return []
        choices = []
        for component in self._components:
            found = component.assignments(store, limit)
            if not found:
                return []
            choices.append(found)
        out: List[Assignment] = []
        for parts in islice(product(*choices), limit):
            assignment: Assignment = dict(self._seed)
            for part in parts:
                assignment.update(part)
            out.append(assignment)
        return out


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
    store = load_target(target)
    found = Pattern(source, seed, frozen, store).assignments(store, limit=1)
    return found[0] if found else None


def exists_homomorphism(
    source: Iterable[Atom],
    target: Iterable[Atom],
    seed: Optional[Mapping[MappableTerm, Term]] = None,
    frozen: Iterable[Term] = (),
) -> bool:
    """Whether some homomorphism from ``source`` into ``target`` exists."""
    store = load_target(target)
    return Pattern(source, seed, frozen, store).exists(store)


def all_homomorphisms(
    source: Iterable[Atom],
    target: Iterable[Atom],
    limit: Optional[int] = None,
    frozen: Iterable[Term] = (),
) -> List[Assignment]:
    """All homomorphisms from ``source`` into ``target`` (up to ``limit``)."""
    store = load_target(target)
    return Pattern(source, None, frozen, store).assignments(store, limit)


def homomorphically_equivalent(
    left: Iterable[Atom], right: Iterable[Atom]
) -> bool:
    """Whether homomorphisms exist in both directions.

    Two universal solutions of the same scenario are always
    homomorphically equivalent; this predicate backs tests and the
    core-minimization module.
    """
    left_atoms, right_atoms = list(left), list(right)
    return exists_homomorphism(left_atoms, right_atoms) and exists_homomorphism(
        right_atoms, left_atoms
    )
