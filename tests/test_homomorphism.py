"""Homomorphism search between atom sets: unit cases, and a differential
property against the backtracking search it replaced
(``tests/homomorphism_oracle.py``)."""

import hypothesis.strategies as st
from hypothesis import example, given

from repro.logic.atoms import Atom
from repro.logic.homomorphism import (
    all_homomorphisms,
    apply_assignment,
    exists_homomorphism,
    find_homomorphism,
    homomorphically_equivalent,
)
from repro.logic.terms import Constant, Null, Variable

import homomorphism_oracle as oracle

x, y = Variable("x"), Variable("y")
a, b = Constant("a"), Constant("b")


def test_simple_variable_mapping():
    source = [Atom("R", (x, y))]
    target = [Atom("R", (a, b))]
    hom = find_homomorphism(source, target)
    assert hom == {x: a, y: b}


def test_constants_must_be_preserved():
    assert not exists_homomorphism([Atom("R", (a,))], [Atom("R", (b,))])
    assert exists_homomorphism([Atom("R", (a,))], [Atom("R", (a,)), Atom("R", (b,))])


def test_nulls_map_like_variables():
    source = [Atom("R", (Null(1), Null(2)))]
    target = [Atom("R", (a, a))]
    hom = find_homomorphism(source, target)
    assert hom == {Null(1): a, Null(2): a}


def test_frozen_terms_fixed():
    source = [Atom("R", (Null(1),))]
    target = [Atom("R", (a,))]
    assert find_homomorphism(source, target, frozen=[Null(1)]) is None
    target_with_null = [Atom("R", (Null(1),))]
    assert find_homomorphism(source, target_with_null, frozen=[Null(1)]) == {}


def test_join_consistency():
    # R(x, y), S(y) — y must take the same value in both atoms.
    source = [Atom("R", (x, y)), Atom("S", (y,))]
    target = [Atom("R", (a, b)), Atom("S", (a,))]
    assert not exists_homomorphism(source, target)
    target_good = [Atom("R", (a, b)), Atom("S", (b,))]
    assert exists_homomorphism(source, target_good)


def test_all_homomorphisms_count():
    source = [Atom("R", (x,))]
    target = [Atom("R", (a,)), Atom("R", (b,))]
    homs = all_homomorphisms(source, target)
    assert len(homs) == 2
    assert {h[x] for h in homs} == {a, b}


def test_all_homomorphisms_limit():
    source = [Atom("R", (x,))]
    target = [Atom("R", (Constant(i),)) for i in range(10)]
    assert len(all_homomorphisms(source, target, limit=3)) == 3


def test_homomorphic_equivalence():
    one = [Atom("R", (Null(1),))]
    two = [Atom("R", (Null(2),)), Atom("R", (Null(3),))]
    assert homomorphically_equivalent(one, two)
    three = [Atom("R", (a,))]
    assert not homomorphically_equivalent(one, three)  # a cannot map back


def test_seed_binding():
    source = [Atom("R", (x, y))]
    target = [Atom("R", (a, b)), Atom("R", (b, b))]
    hom = find_homomorphism(source, target, seed={x: b})
    assert hom is not None and hom[x] == b and hom[y] == b


def test_apply_assignment_keeps_constants():
    atom = Atom("R", (x, a, Null(1)))
    mapped = apply_assignment({x: b, Null(1): a}, atom)
    assert mapped == Atom("R", (b, a, a))


def test_empty_source_always_maps():
    assert exists_homomorphism([], [Atom("R", (a,))])
    assert exists_homomorphism([], [])


def test_unmatchable_relation():
    assert not exists_homomorphism([Atom("Q", (x,))], [Atom("R", (a,))])


def test_one_relation_at_two_arities():
    # A schema-less target may use R at two arities; each source atom
    # only meets facts of its own.
    target = [Atom("R", (a,)), Atom("R", (a, b))]
    assert find_homomorphism([Atom("R", (x,)), Atom("R", (x, y))], target) == {x: a, y: b}
    assert not exists_homomorphism([Atom("R", (x, y, y))], target)
    assert all_homomorphisms([Atom("R", (x,))], target) == [{x: a}]


def test_variables_in_the_target_meet_only_themselves():
    target = [Atom("R", (y,))]
    assert find_homomorphism([Atom("R", (x,))], target) == {x: y}
    assert find_homomorphism([Atom("R", (y,))], target, frozen=[y]) == {}
    assert not exists_homomorphism([Atom("R", (x,))], target, frozen=[x])
    assert not exists_homomorphism([Atom("R", (a,))], target)


# -- differential: the compiled query against the backtracking oracle --------

_variables = st.sampled_from([x, y, Variable("z")])
_constants = st.integers(min_value=0, max_value=2).map(Constant)
_nulls = st.integers(min_value=1, max_value=3).map(Null)
_terms = st.one_of(_variables, _constants, _nulls)
#: Two relations at arities 0-3: the same relation at two arities is a
#: common draw, in the source, the target or across them.
_atoms = st.builds(Atom, st.sampled_from("RS"), st.lists(_terms, max_size=3))
_frozen = st.lists(_terms, max_size=2)
_seeds = st.dictionaries(st.one_of(_variables, _nulls), _terms, max_size=2)


def _is_homomorphism(assignment, source, target, seed, frozen):
    """Every source atom lands in the target; constants, frozen terms
    and the seed are kept, and every other variable or null is assigned."""
    fixed = set(frozen)
    mapping = {t: v for t, v in assignment.items() if t not in fixed}
    target_set = set(target)
    mappable = {
        t for atom in source for t in atom.terms
        if isinstance(t, (Variable, Null)) and t not in fixed
    }
    return (
        all(apply_assignment(mapping, atom) in target_set for atom in source)
        and mappable <= assignment.keys()
        and all(assignment[t] == v for t, v in seed.items())
    )


def _as_set(assignments):
    return {frozenset(h.items()) for h in assignments}


@example(source=[], target=[], seed={}, frozen=[], limit=1)
@example(source=[Atom("R", (x,))], target=[Atom("R", (a, b))], seed={}, frozen=[], limit=1)
@example(
    source=[Atom("R", (x, x)), Atom("S", ())],
    target=[Atom("R", (a, a)), Atom("R", (a,)), Atom("S", ())],
    seed={},
    frozen=[],
    limit=2,
)
@example(
    source=[Atom("R", (Null(1), y))],
    target=[Atom("R", (Null(1), b)), Atom("R", (a, y))],
    seed={y: b},
    frozen=[Null(1)],
    limit=1,
)
@given(
    source=st.lists(_atoms, max_size=4),
    target=st.lists(_atoms, max_size=6),
    seed=_seeds,
    frozen=_frozen,
    limit=st.integers(min_value=0, max_value=3),
)
def test_matches_backtracking_oracle(source, target, seed, frozen, limit):
    found = find_homomorphism(source, target, seed=seed, frozen=frozen)
    expected = oracle.find_homomorphism(source, target, seed=seed, frozen=frozen)
    assert (found is None) == (expected is None)
    assert exists_homomorphism(source, target, seed=seed, frozen=frozen) == (
        expected is not None
    )
    if found is not None:
        assert _is_homomorphism(found, source, target, seed, frozen)

    every = all_homomorphisms(source, target, frozen=frozen)
    assert _as_set(every) == _as_set(oracle.all_homomorphisms(source, target, frozen=frozen))
    assert len(_as_set(every)) == len(every)
    for assignment in every:
        assert _is_homomorphism(assignment, source, target, {}, frozen)
    capped = all_homomorphisms(source, target, limit=limit, frozen=frozen)
    assert len(capped) == min(limit, len(every))
    assert _as_set(capped) <= _as_set(every)
