"""Comparisons on codes: the kernel compiler against ``Comparison.evaluate``.

:class:`~repro.relational.kernel.CodeComparison` is the one place a
comparison atom is lowered onto the columnar kernel.  It never decodes:
``=``/``!=`` compare codes, and order operators read the pool's raw
value array, returning False for nulls and for a str against a non-str.
These tests pin that those rules *are* the decoded semantics —
``Comparison.evaluate`` with a ``TypingError`` read as False — over
every operator, mixed value domains (including the numeric aliases
``1``/``1.0``/``True``, which intern to one code, and NaN) and every
operand placement, and that the compiled plans apply them identically
wherever a comparison lands: the first, middle or last join step, the
seed comparisons, a negation, and a ded disjunct.
"""

from __future__ import annotations

import math
from collections import Counter

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.chase.compiled import CompiledDependency
from repro.chase.engine import StandardChase
from repro.errors import ChaseError, TypingError
from repro.logic.atoms import (
    COMPARISON_OPS,
    Atom,
    Comparison,
    Conjunction,
    NegatedConjunction,
)
from repro.logic.dependencies import Disjunct, ded
from repro.logic.terms import Constant, Null, Variable
from repro.relational.instance import Instance
from repro.relational.kernel import CodeComparison, ColumnarInstance, TermPool
from repro.relational.query import (
    compile_query,
    evaluate,
    reference_evaluator,
)

from kernel_oracle import OracleChase, disjunct_satisfied
from row_oracle import row_probe_mode

x, y, z, w = (Variable(n) for n in "xyzw")

NAN = float("nan")

#: Values covering every typing rule: ints, floats, bools (1, 1.0 and
#: True alias one code), strs (ordered among themselves only), NaN
#: (unordered, equal only to itself) and nulls (never ordered).
DOMAIN = [
    Constant(0),
    Constant(1),
    Constant(1.0),
    Constant(True),
    Constant(False),
    Constant(-2),
    Constant(2.5),
    Constant(2**53 + 1),
    Constant(float(2**53)),
    Constant(NAN),
    Constant(""),
    Constant("1"),
    Constant("a"),
    Constant("b"),
    Null(0),
    Null(3, "hinted"),
]


def expected(op, left, right) -> bool:
    try:
        return Comparison(op, left, right).evaluate()
    except TypingError:
        return False


def code_check(op, left, right, placement, pool):
    """Run the kernel's compiled test with each operand as a slot or a
    literal (``placement`` is "ss", "sl", "ls" or "ll")."""
    slot_of = {x: 0, y: 1}
    left_term = x if placement[0] == "s" else left
    right_term = y if placement[1] == "s" else right
    compiled = CodeComparison(Comparison(op, left_term, right_term), slot_of, pool)
    row = (pool.encode(left), pool.encode(right))
    return compiled.check(row)


@pytest.mark.parametrize("placement", ["ss", "sl", "ls", "ll"])
@pytest.mark.parametrize("op", COMPARISON_OPS)
def test_codes_match_evaluate_over_the_domain(op, placement):
    pool = TermPool()
    for left in DOMAIN:
        for right in DOMAIN:
            assert code_check(op, left, right, placement, pool) == expected(
                op, left, right
            ), f"{left} {op} {right} ({placement})"


def test_numeric_aliases_share_one_code():
    pool = TermPool()
    assert pool.encode(Constant(1)) == pool.encode(Constant(1.0)) == pool.encode(
        Constant(True)
    )
    # The pool keeps the first-interned representative's raw value.
    assert pool.values[pool.encode(Constant(True))] == 1
    assert pool.is_str[pool.encode(Constant("1"))] is True


def test_literal_null_never_orders():
    pool = TermPool()
    compiled = CodeComparison(Comparison("<", x, Null(4)), {x: 0}, pool)
    assert compiled.expression("_row[{}]".format) == "False"
    assert compiled.check((pool.encode(Constant(1)),)) is False
    assert CodeComparison(Comparison("=", x, Null(4)), {x: 0}, pool).check(
        (pool.encode(Null(4)),)
    )


def test_literal_operands_intern_at_compile_time():
    pool = TermPool()
    CodeComparison(Comparison(">=", x, Constant("fresh")), {x: 0}, pool)
    assert pool.try_encode(Constant("fresh")) is not None


values = st.one_of(
    st.integers(-(2**60), 2**60).map(Constant),
    st.floats(allow_nan=True, allow_infinity=True).map(Constant),
    st.booleans().map(Constant),
    st.text(max_size=3).map(Constant),
    st.integers(0, 5).map(Null),
)


@settings(max_examples=300, deadline=None)
@given(
    op=st.sampled_from(COMPARISON_OPS),
    left=values,
    right=values,
    placement=st.sampled_from(["ss", "sl", "ls", "ll"]),
)
def test_codes_match_evaluate_on_mixed_domains(op, left, right, placement):
    assert code_check(op, left, right, placement, TermPool()) == expected(
        op, left, right
    )


# ---------------------------------------------------------------------------
# Compiled plans: block drivers, row mode and the reference evaluator
# ---------------------------------------------------------------------------

#: A mixed column: every value kind appears as a join payload.
MIXED = [1, 2, 2.5, True, 0, "a", "b", "1", NAN, Null(0), Null(1)]


def _term(value):
    return value if isinstance(value, Null) else Constant(value)


def _facts():
    facts = []
    for i, value in enumerate(MIXED):
        facts.append(Atom("R", (Constant(i % 4), _term(value))))
        facts.append(Atom("S", (_term(value), Constant(i))))
        facts.append(Atom("T", (Constant(i), _term(MIXED[(i + 1) % len(MIXED)]))))
    facts.append(Atom("Bad", (Constant(3), Constant(2))))
    facts.append(Atom("Bad", (Constant(5), Constant("z"))))
    facts.append(Atom("Bad", (Constant(7), Constant(0.5))))
    return facts


def _stores():
    columnar = ColumnarInstance(pool=TermPool())
    reference = Instance()
    for fact in _facts():
        columnar.add(fact)
        reference.add(fact)
    return columnar, reference


R = Atom("R", (x, y))
S = Atom("S", (y, z))
T = Atom("T", (z, w))



def _join(*comparisons):
    return Conjunction(atoms=(R, S, T), comparisons=comparisons)


#: (label, body, bound) — one comparison placement per case; the plans
#: anchor at R so the join order is R, S, T.
PLACEMENTS = [
    ("first-step", _join(Comparison("<", y, Constant(3))), ()),
    ("first-step-slots", _join(Comparison(">=", x, y)), ()),
    ("middle-step", _join(Comparison("<=", x, z)), ()),
    ("last-step", _join(Comparison("<", w, y)), ()),
    ("last-step-eq", _join(Comparison("!=", w, Constant(2))), ()),
    (
        "every-step",
        _join(
            Comparison("!=", y, Constant("b")),
            Comparison("<", x, z),
            Comparison("=", w, w),
        ),
        (),
    ),
    ("seed", _join(Comparison("<", x, Constant(2))), (x,)),
    (
        "negation",
        Conjunction(
            atoms=(R, S),
            negations=(
                NegatedConjunction(
                    # Keyed on z, at most one Bad row per key: a
                    # not-exists probe stops at its first survivor in row
                    # mode but at its first block in block mode, so the
                    # survivor counters only agree on single-row buckets.
                    Conjunction(
                        atoms=(Atom("Bad", (z, w)),),
                        comparisons=(Comparison(">", w, y), Comparison("!=", w, x)),
                    )
                ),
            ),
        ),
        (),
    ),
]


def _drain(plan, store, seed_values):
    stats = store.kernel_stats
    probed0, surv0 = stats.probe_rows, stats.probe_survivors
    rows = [row for block in plan.blocks(store, seed_values) for row in block]
    return rows, stats.probe_rows - probed0, stats.probe_survivors - surv0


def _canonical(bindings):
    """Bindings as a multiset (terms compare by value, so the decoded
    alias ``Constant(1)`` matches a stored ``Constant(True)``)."""
    return Counter(frozenset(b.items()) for b in bindings)


@pytest.mark.parametrize(
    "label,body,bound", PLACEMENTS, ids=[p[0] for p in PLACEMENTS]
)
def test_block_row_and_reference_agree(label, body, bound):
    columnar, reference = _stores()
    seeds = [{}] if not bound else [{x: Constant(k)} for k in range(4)]
    for seed in seeds:
        plan = compile_query(body, bound, first_atom=0 if not bound else None).encoded(
            columnar.pool
        )
        seed_values = [(plan.slot_of[var], columnar.encode_term(t)) for var, t in seed.items()]
        block = _drain(plan, columnar, seed_values)
        with row_probe_mode():
            row = _drain(plan, columnar, seed_values)
        assert block == row, label
        decoded = evaluate(body, columnar, seed=seed or None)
        with reference_evaluator():
            oracle = evaluate(body, reference, seed=seed or None)
        assert _canonical(decoded) == _canonical(oracle), label
        assert len(decoded) == len(block[0])


def test_placements_filter_something():
    # Guard against vacuous cases: every placement must cut the
    # unfiltered join yet keep at least one row.
    columnar, _ = _stores()
    for label, body, bound in PLACEMENTS:
        if bound:
            continue
        unfiltered = Conjunction(atoms=body.atoms)
        kept = len(evaluate(body, columnar))
        assert 0 < kept < len(evaluate(unfiltered, columnar)), label


# ---------------------------------------------------------------------------
# Ded disjunct conclusions
# ---------------------------------------------------------------------------


def _pair_ded():
    """P(x, y) -> (Q(x) & y > 2) | (Q(x) & y <= 2) | Big(x)."""
    return ded(
        Conjunction(atoms=(Atom("P", (x, y)),)),
        (
            Disjunct(atoms=(Atom("Q", (x,)),), comparisons=(Comparison(">", y, Constant(2)),)),
            Disjunct(atoms=(Atom("Q", (x,)),), comparisons=(Comparison("<=", y, Constant(2)),)),
            Disjunct(atoms=(Atom("Big", (x,)),)),
        ),
        name="pairs",
    )


#: MIXED without the numeric aliases: the chase tests render decoded
#: facts, and an alias decodes as whichever of 1 / True the process-wide
#: pool interned first.
UNALIASED = [3, 2, 2.5, -1, "a", "1", NAN, Null(0), Null(1)]


def _pair_source():
    source = Instance()
    for i, value in enumerate(UNALIASED):
        source.add(Atom("P", (Constant(f"p{i}"), _term(value))))
    return source


def test_disjunct_checks_match_decoded_checks():
    dependency = _pair_ded()
    compiled = CompiledDependency(dependency)
    disjuncts = dependency.disjuncts
    working = ColumnarInstance(pool=TermPool())
    working.add_all(_pair_source())
    working.add(Atom("Q", (Constant("p1"),)))
    varlist = compiled.premise_varlist
    for index in range(len(dependency.disjuncts)):
        for fact in working.facts("P"):
            binding = dict(zip((x, y), fact.terms))
            row = tuple(working.encode_term(binding[var]) for var in varlist)
            assert compiled.disjunct_satisfied_encoded(
                index, row, working
            ) == disjunct_satisfied(disjuncts[index], binding, working), (index, fact)


@pytest.mark.parametrize("branch", [0, 1, 2])
def test_ded_branch_chases_identically_on_both_kernels(branch):
    outcomes = []
    for chase in (StandardChase, OracleChase):
        engine = chase([_pair_ded()], ("P",), branch_choice={0: branch})
        result = engine.run(_pair_source())
        outcomes.append(
            (
                result.status,
                result.failure_reason,
                None if result.target is None else sorted(map(str, result.target)),
            )
        )
    assert outcomes[0] == outcomes[1]


def test_unbound_disjunct_comparison_fails_when_fired():
    dependency = ded(
        Conjunction(atoms=(Atom("P", (x, y)),)),
        (Disjunct(comparisons=(Comparison("<", z, x),)),),
        name="unbound",
    )
    compiled = CompiledDependency(dependency)
    pool = TermPool()
    kernel = compiled.disjunct_kernel(0, pool)
    (_comparison, check), = kernel.comparisons
    with pytest.raises(ChaseError, match="unbound variable z"):
        check((pool.encode(Constant(1)), pool.encode(Constant(2))))


def test_nan_rows_never_order():
    pool = TermPool()
    nan = pool.encode(Constant(NAN))
    for op in ("<", "<=", ">", ">="):
        check = CodeComparison(Comparison(op, x, y), {x: 0, y: 1}, pool).check
        assert check((nan, pool.encode(Constant(1.0)))) is False
        assert check((nan, nan)) is False
    assert math.isnan(pool.values[nan])
