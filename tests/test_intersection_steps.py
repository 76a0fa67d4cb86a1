"""Intersection steps: planner, drivers and postings against oracles.

When a fresh variable is the only unbound term of two or more remaining
atoms, occurring once in each, the planner binds it from the C-level
intersection of those atoms' postings (an *intersection step*) instead
of probing one atom and checking the others row by row.  This suite
holds the step to the same answers as everything it replaced:

* the materialized reference evaluator, as sets, for ``evaluate``,
  ``evaluate_delta`` and ``exists`` over cyclic bodies (triangle,
  4-cycle, diamond, K4) on random binary and ternary relations with
  nulls, with constants, repeated variables, comparisons, a negation,
  seeds and delta anchors;
* the row-at-a-time loop (``tests/row_oracle.py``), row for row and
  counter for counter;
* itself on a store's ``copy()``: intersections are emitted in
  ascending code order, so output order depends only on the contents,
  never on a posting's insertion history;
* the quadratic greedy planner (``tests/planner_oracle.py``): the
  incremental planner picks the same order.
"""

from __future__ import annotations

import hypothesis.strategies as st
import pytest
from hypothesis import example, given

from repro.logic.atoms import Atom, Comparison, Conjunction, NegatedConjunction
from repro.logic.terms import Constant, Null, Variable
from repro.relational import kernel
from repro.relational import query
from repro.relational.instance import Instance
from repro.relational.kernel import ColumnarInstance, TermPool
from repro.relational.query import (
    _greedy_order,
    _IntersectStep,
    _lay_out,
    compile_query,
    evaluate,
    evaluate_delta,
    exists,
    reference_evaluator,
)

from planner_oracle import quadratic_order
from row_oracle import row_probe_mode

x, y, z, w = (Variable(n) for n in "xyzw")

SHAPES = {
    "triangle": (("x", "y"), ("y", "z"), ("z", "x")),
    "4-cycle": (("x", "y"), ("y", "z"), ("z", "w"), ("w", "x")),
    "diamond": (("x", "y"), ("x", "z"), ("y", "w"), ("z", "w")),
    "K4": (("x", "y"), ("x", "z"), ("x", "w"), ("y", "z"), ("y", "w"), ("z", "w")),
}


def _shape(name):
    return Conjunction(
        atoms=tuple(Atom("E", (Variable(a), Variable(b))) for a, b in SHAPES[name])
    )


# ---------------------------------------------------------------------------
# Planner
# ---------------------------------------------------------------------------


class TestPlanner:
    @pytest.mark.parametrize("shape", sorted(SHAPES))
    def test_cyclic_shapes_plan_an_intersection(self, shape):
        plan = compile_query(_shape(shape))
        assert plan.intersections >= 1

    def test_triangle_binds_the_closing_variable_by_intersection(self):
        body = Conjunction(
            atoms=_shape("triangle").atoms,
            comparisons=(Comparison("<", x, y), Comparison("<", x, z)),
        )
        first, second = compile_query(body).steps
        assert not isinstance(first, _IntersectStep)
        assert isinstance(second, _IntersectStep)
        assert second.variable == z
        # E(y, z) keys on position 0, E(z, x) on position 1.
        assert [(r, p) for r, _a, p, _k in second.parts] == [("E", (0,)), ("E", (1,))]
        # x < y is checkable after step 0; x < z becomes a filter on z.
        assert first.comparisons == (Comparison("<", x, y),)
        assert second.comparisons == (Comparison("<", x, z),)

    @pytest.mark.parametrize("anchor", [0, 1, 2])
    def test_anchored_plans_start_with_a_row_id_step(self, anchor):
        # A unary pair shares x: unanchored, step 0 is an intersection;
        # anchored, the delta mask needs row ids, so the anchor probes.
        body = Conjunction(
            atoms=(Atom("P", (x,)), Atom("Q", (x,)), Atom("R", (x, y)))
        )
        assert isinstance(compile_query(body).steps[0], _IntersectStep)
        plan = compile_query(body, first_atom=anchor)
        assert not isinstance(plan.steps[0], _IntersectStep)

    def test_repeated_variable_is_no_intersection(self):
        body = Conjunction(atoms=(Atom("E", (x, y)), Atom("E", (y, y)), Atom("F", (y,))))
        assert compile_query(body, first_atom=0).intersections == 0

    def test_delta_on_an_intersection_first_plan_is_refused(self):
        store = ColumnarInstance(pool=TermPool())
        store.add(Atom("P", (Constant(1),)))
        store.add(Atom("Q", (Constant(1),)))
        body = Conjunction(atoms=(Atom("P", (x,)), Atom("Q", (x,))))
        plan = compile_query(body).encoded(store.pool)
        with pytest.raises(ValueError):
            list(plan.blocks(store, delta={0}))


# Random bodies for the planner property: atoms over relations of
# arities 1-3, variables from a small pool (so atoms share them and
# repeat them), constants, a random pre-bound set and anchor, and
# statistics from a random store (or none).
_VARS = [Variable(n) for n in "abcdef"]
_RELATIONS = {"P": 1, "R": 2, "S": 2, "T": 3}
_terms = st.one_of(
    st.sampled_from(_VARS), st.sampled_from([Constant(1), Constant(2)])
)


@st.composite
def _planner_cases(draw):
    atoms = []
    for _ in range(draw(st.integers(min_value=1, max_value=8))):
        relation = draw(st.sampled_from(sorted(_RELATIONS)))
        arity = _RELATIONS[relation]
        if draw(st.integers(0, 9)) == 0:
            arity = 2 if arity != 2 else 3  # an atom the table cannot match
        atoms.append(
            Atom(relation, tuple(draw(_terms) for _ in range(arity)))
        )
    variables = sorted({v for a in atoms for v in a.variables()}, key=str)
    bound = draw(st.sets(st.sampled_from(variables))) if variables else set()
    first_atom = draw(st.one_of(st.none(), st.integers(0, len(atoms) - 1)))
    store = None
    if draw(st.booleans()):
        store = ColumnarInstance(pool=TermPool())
        for relation, arity in _RELATIONS.items():
            rows = draw(
                st.lists(
                    st.tuples(*[st.integers(0, 3)] * arity), max_size=12
                )
            )
            for row in rows:
                store.add(Atom(relation, tuple(Constant(v) for v in row)))
    return atoms, frozenset(bound), store, first_atom


def _describe(steps):
    return [
        (type(step).__name__,) + tuple(getattr(step, s) for s in step.__slots__)
        for step in steps
    ]


@given(case=_planner_cases())
def test_incremental_planner_matches_the_quadratic_oracle(case):
    atoms, bound, store, first_atom = case
    order = quadratic_order(atoms, bound, store, first_atom)
    assert _greedy_order(atoms, bound, store, first_atom) == order
    steps, _pending = _lay_out(atoms, bound, order, ())
    plan = query.CompiledQuery(Conjunction(atoms=tuple(atoms)), bound, store, first_atom)
    assert _describe(plan.steps) == _describe(steps)


def test_chain_planning_makes_linear_key_count_calls():
    # R(x0, x1), R(x1, x2), ..., R(x199, x200): each pick binds one new
    # variable, which touches one more atom; the quadratic loop made a
    # key_count call per remaining atom per pick.
    atoms = tuple(
        Atom("R", (Variable(f"x{i}"), Variable(f"x{i + 1}"))) for i in range(200)
    )
    store = ColumnarInstance(pool=TermPool())
    for i in range(50):
        store.add(Atom("R", (Constant(i), Constant((i * 7) % 50))))
    calls = []
    key_count = store.key_count

    def counting(relation, positions):
        calls.append((relation, tuple(positions)))
        return key_count(relation, positions)

    store.key_count = counting
    plan = query.CompiledQuery(Conjunction(atoms=atoms), (), store)
    assert len(plan.steps) == 200
    assert len(calls) <= 2 * len(atoms)


# ---------------------------------------------------------------------------
# Literal codes are driver arguments: the caches grow by shape only
# ---------------------------------------------------------------------------


def test_driver_and_check_caches_are_keyed_by_shape():
    store = ColumnarInstance(pool=TermPool())
    for i in range(5):
        store.add(Atom("P", (Constant(i),)))
        store.add(Atom("R", (Constant(i), Constant(i + 1000))))

    def run(i):
        constant = Constant(i + 1000)
        assert evaluate(Conjunction(atoms=(Atom("R", (x, constant)),)), store) == (
            [{x: Constant(i)}] if i < 5 else []
        )
        evaluate(
            Conjunction(
                atoms=(Atom("P", (x,)),),
                comparisons=(Comparison("<", x, Constant(i)),),
            ),
            store,
        )

    run(0)
    drivers, checks = len(query._DRIVER_CACHE), len(kernel._CHECK_CODE)
    for i in range(1, 200):
        run(i)
    assert len(query._DRIVER_CACHE) - drivers <= 2
    assert len(kernel._CHECK_CODE) - checks <= 2


# ---------------------------------------------------------------------------
# Differential: reference evaluator, row loop, copies
# ---------------------------------------------------------------------------

_DOMAIN = [Constant(i) for i in range(4)] + [Null(0), Null(1)]
_values = st.sampled_from(_DOMAIN)
_constants = st.sampled_from([Constant(i) for i in range(4)])


@st.composite
def _facts(draw):
    edges = draw(st.lists(st.tuples(_values, _values), max_size=24))
    triples = draw(st.lists(st.tuples(_values, _values, _values), max_size=12))
    return [Atom("E", row) for row in edges] + [Atom("T", row) for row in triples]


@st.composite
def _bodies(draw):
    shape = SHAPES[draw(st.sampled_from(sorted(SHAPES)))]
    names = sorted({n for edge in shape for n in edge})
    term_of = {}
    for name in names:
        kind = draw(st.sampled_from(["var", "var", "var", "other", "constant"]))
        if kind == "other":  # a repeated variable
            term_of[name] = Variable(draw(st.sampled_from(names)))
        elif kind == "constant":
            term_of[name] = draw(_constants)
        else:
            term_of[name] = Variable(name)
    atoms = []
    for a, b in shape:
        left, right = term_of[a], term_of[b]
        if draw(st.integers(0, 3)) == 0:
            middle = draw(st.one_of(_constants, st.sampled_from([Variable(n) for n in names])))
            atoms.append(Atom("T", (left, middle, right)))
        else:
            atoms.append(Atom("E", (left, right)))
    variables = sorted({v for atom in atoms for v in atom.variables()}, key=str)
    comparisons = []
    negations = []
    if variables:
        operands = st.one_of(st.sampled_from(variables), _constants)
        for _ in range(draw(st.integers(0, 2))):
            comparisons.append(
                Comparison(
                    draw(st.sampled_from(["<", "<=", "!=", "="])),
                    draw(st.sampled_from(variables)),
                    draw(operands),
                )
            )
        if draw(st.booleans()):
            negations.append(
                NegatedConjunction(
                    Conjunction(
                        atoms=(Atom("E", (draw(operands), draw(operands))),)
                    )
                )
            )
    return Conjunction(
        atoms=tuple(atoms),
        comparisons=tuple(comparisons),
        negations=tuple(negations),
    )


def _as_set(bindings):
    return {tuple(sorted((v.name, t) for v, t in b.items())) for b in bindings}


def _stores(facts):
    """A plain instance and a store holding the same facts; the store's
    postings are built over the first half and then maintained
    incrementally over the second."""
    instance = Instance()
    for fact in facts:
        instance.add(fact)
    store = ColumnarInstance(pool=TermPool())
    half = len(facts) // 2
    for fact in facts[:half]:
        store.add(fact)
    postings = [("E", (0,)), ("E", (1,)), ("T", (0, 1)), ("T", (1, 2)), ("T", (0, 2))]
    for relation, positions in postings:
        if store.arity(relation) is not None:
            store.posting(relation, positions)
    for fact in facts[half:]:
        store.add(fact)
    return instance, store


TRIANGLE_WITH_NULLS = (
    [
        Atom("E", (Constant(0), Constant(1))),
        Atom("E", (Constant(1), Null(0))),
        Atom("E", (Null(0), Constant(0))),
        Atom("E", (Constant(1), Constant(2))),
        Atom("E", (Constant(2), Constant(0))),
    ],
    Conjunction(atoms=_shape("triangle").atoms, comparisons=(Comparison("<", x, y),)),
)


@given(facts=_facts(), body=_bodies(), data=st.data())
@example(facts=TRIANGLE_WITH_NULLS[0], body=TRIANGLE_WITH_NULLS[1], data=None)
def test_matches_the_reference_evaluator(facts, body, data):
    instance, store = _stores(facts)
    with reference_evaluator():
        expected = _as_set(evaluate(body, instance))
    assert _as_set(evaluate(body, store)) == expected
    assert exists(body, store) == bool(expected)
    variables = sorted(body.positive_variables(), key=str)
    if data is None or not variables:
        return
    seed = {data.draw(st.sampled_from(variables)): data.draw(_values)}
    with reference_evaluator():
        seeded = _as_set(evaluate(body, instance, seed=seed))
        seeded_exists = exists(body, instance, seed=seed)
    assert _as_set(evaluate(body, store, seed=seed)) == seeded
    assert exists(body, store, seed=seed) == seeded_exists
    delta = set(data.draw(st.lists(st.sampled_from(facts), max_size=6))) if facts else set()
    with reference_evaluator():
        expected_delta = _as_set(evaluate_delta(body, instance, delta))
    assert _as_set(evaluate_delta(body, store, delta)) == expected_delta


def _drain(plan, store):
    stats = store.kernel_stats
    probed, survivors = stats.probe_rows, stats.probe_survivors
    rows = [row for block in plan.blocks(store) for row in block]
    return rows, stats.probe_rows - probed, stats.probe_survivors - survivors


@given(facts=_facts(), body=_bodies(), anchor=st.integers(0, 5))
@example(facts=TRIANGLE_WITH_NULLS[0], body=TRIANGLE_WITH_NULLS[1], anchor=0)
def test_row_loop_copies_and_drivers_agree_row_for_row(facts, body, anchor):
    _instance, store = _stores(facts)
    for first_atom in (None, anchor % len(body.atoms)):
        plan = compile_query(body, (), store, first_atom=first_atom).encoded(store.pool)
        rows, probed, survivors = _drain(plan, store)
        with row_probe_mode():
            assert _drain(plan, store) == (rows, probed, survivors)
        # A copy rebuilds its postings from scratch, in another insertion
        # order: sorted intersections keep the output order.
        assert _drain(plan, store.copy())[0] == rows
