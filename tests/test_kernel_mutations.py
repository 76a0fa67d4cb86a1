"""Property suite: random mutation sequences over both stores.

The columnar kernel's mutation surface — per-row inserts, bulk encoded
extends, tombstone deletes, resurrections, generation bumps — must be
observationally identical to the set-based ``Instance``, and must
preserve the invariants the block probe pipeline leans on: sorted index
buckets (RowMask restriction slices them by bisect) and per-generation
insertion windows that cover every live row exactly once (semi-naive
evaluation would otherwise see a fact twice or never).

Hypothesis drives interleaved op sequences through a
:class:`ColumnarInstance` and a reference :class:`Instance` in
lockstep, then compares fact sets, query results and window structure.
"""

from __future__ import annotations

import hypothesis.strategies as st
from hypothesis import HealthCheck, example, given, settings

from repro.logic.atoms import Atom, Conjunction
from repro.logic.terms import Constant, Variable
from repro.relational.instance import Instance
from repro.relational.kernel import ColumnarInstance, TermPool
from repro.relational.query import evaluate

x, y, z = Variable("x"), Variable("y"), Variable("z")

RELATIONS = ("R", "S")


def _fact(relation, a, b):
    return Atom(relation, (Constant(a), Constant(b)))


# Ops over a tiny value domain so sequences hit duplicates, deletes of
# present facts, and re-adds of tombstoned rows (resurrections).
values = st.integers(min_value=0, max_value=3)
facts = st.tuples(st.sampled_from(RELATIONS), values, values)

operations = st.lists(
    st.one_of(
        st.tuples(st.just("add"), facts),
        st.tuples(st.just("remove"), facts),
        st.tuples(st.just("extend"), st.lists(facts, max_size=6)),
        st.tuples(st.just("bump"), st.just(None)),
    ),
    max_size=40,
)


def _apply(ops):
    columnar = ColumnarInstance(pool=TermPool())
    reference = Instance()
    for op, payload in ops:
        if op == "add":
            relation, a, b = payload
            assert columnar.add(_fact(relation, a, b)) == reference.add(
                _fact(relation, a, b)
            )
        elif op == "remove":
            relation, a, b = payload
            assert columnar.remove(_fact(relation, a, b)) == reference.remove(
                _fact(relation, a, b)
            )
        elif op == "extend":
            # The columnar side takes the bulk encoded path (one batch,
            # in-batch dedup, index maintenance); the reference side
            # adds row by row — results must not differ.
            by_relation = {}
            for relation, a, b in payload:
                by_relation.setdefault(relation, []).append(
                    columnar.encode_row((Constant(a), Constant(b)))
                )
                reference.add(_fact(relation, a, b))
            for relation, rows in by_relation.items():
                columnar.extend_encoded(relation, rows)
        else:
            # Generations are columnar-only bookkeeping: the set-based
            # side has no notion of them.
            columnar.bump_generation()
    return columnar, reference


def _bindings(body, instance):
    return sorted(
        tuple(sorted((v.name, t) for v, t in binding.items()))
        for binding in evaluate(body, instance)
    )


# A pinned resurrection: add, tombstone, bump, re-add — the row id is
# reused and must land in the *new* generation's window only.
RESURRECTION = [
    ("add", ("R", 0, 1)),
    ("add", ("S", 1, 2)),
    ("remove", ("R", 0, 1)),
    ("bump", None),
    ("extend", [("R", 0, 1), ("R", 0, 1), ("S", 1, 3)]),
]


@settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(ops=operations)
@example(ops=RESURRECTION)
@example(ops=[("add", ("R", 1, 1)), ("remove", ("R", 1, 1)),
              ("add", ("R", 1, 1))])
def test_kernels_agree_after_arbitrary_mutations(ops):
    columnar, reference = _apply(ops)
    for relation in RELATIONS:
        assert columnar.facts(relation) == reference.facts(relation)
    assert len(columnar) == len(reference)
    body = Conjunction(atoms=(Atom("R", (x, y)), Atom("S", (y, z))))
    assert _bindings(body, columnar) == _bindings(body, reference)


@settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(ops=operations)
@example(ops=RESURRECTION)
def test_every_live_row_sits_in_exactly_one_generation_window(ops):
    columnar, _ = _apply(ops)
    current = columnar.current_generation
    # Window g = rows inserted in [g, g+1): the per-generation slices
    # the chase round loop and the fixpoint iterate.
    counts = {}
    for g in range(0, current + 1):
        later = set(columnar.rows_since(g + 1))
        for entry in columnar.rows_since(g):
            if entry not in later:
                counts[entry] = counts.get(entry, 0) + 1
    live = {
        (relation, row_id)
        for relation in columnar.relations()
        for row_id in columnar.live_row_ids(relation)
    }
    assert set(counts) == live
    assert all(count == 1 for count in counts.values())


@settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(ops=operations)
@example(ops=RESURRECTION)
def test_index_buckets_stay_sorted_through_resurrection(ops):
    # RowMask.restrict slices buckets with bisect, which silently
    # returns wrong windows on unsorted input — resurrection re-inserts
    # an *old* row id after larger ones and must insort, not append.
    columnar, _ = _apply(ops)
    for relation in columnar.relations():
        for positions in [(0,), (1,), (0, 1)]:
            index = columnar.encoded_index(relation, positions)
            for bucket in index.values():
                assert list(bucket) == sorted(bucket)


# ---------------------------------------------------------------------------
# Postings: incrementally maintained sets equal a from-scratch rebuild
# ---------------------------------------------------------------------------

# Values include nulls so null maps have something to rewrite.
posting_values = st.sampled_from([0, 1, 2, 3, -1, -2])
posting_rows = st.tuples(st.sampled_from(RELATIONS), posting_values, posting_values)

posting_operations = st.lists(
    st.one_of(
        st.tuples(st.just("add"), posting_rows),
        st.tuples(st.just("remove"), posting_rows),
        st.tuples(st.just("extend"), st.lists(posting_rows, max_size=6)),
        st.tuples(
            st.just("null_map"),
            st.dictionaries(st.sampled_from([-1, -2]), posting_values, max_size=2),
        ),
        st.tuples(st.just("copy"), posting_rows),
        st.tuples(st.just("bump"), st.just(None)),
    ),
    max_size=30,
)


def _code(store, value):
    """A test value as a code: nulls are negative, constants intern."""
    return value if value < 0 else store.pool.encode(Constant(value))


def _brute_posting(store, relation, positions):
    (value_position,) = set(range(store.arity(relation))) - set(positions)
    posting = {}
    for row_id in store.live_row_ids(relation):
        row = store.row_values(relation, row_id)
        key = tuple(row[p] for p in positions)
        posting.setdefault(key, set()).add(row[value_position])
    return posting


def _check_postings(store):
    """Every posting equals its rebuild; reading them keeps them live."""
    for relation in RELATIONS:
        if store.arity(relation) is None:
            continue
        for positions in [(0,), (1,)]:
            assert store.posting(relation, positions) == _brute_posting(
                store, relation, positions
            )


def _snapshot(store):
    return {
        (relation, positions): {
            key: set(codes)
            for key, codes in store.posting(relation, positions).items()
        }
        for relation in RELATIONS
        if store.arity(relation) is not None
        for positions in [(0,), (1,)]
    }


# Add, tombstone (drops the postings), rebuild, then resurrect the row
# incrementally, by add_encoded and by a duplicate-carrying extend.
POSTING_RESURRECTION = [
    ("add", ("R", 0, 1)),
    ("add", ("R", 0, 2)),
    ("remove", ("R", 0, 1)),
    ("add", ("R", 0, 1)),
    ("remove", ("R", 0, 2)),
    ("extend", [("R", 0, 2), ("R", 0, 2), ("R", 3, 1), ("S", 1, 1)]),
    ("null_map", {-1: 2}),
    ("copy", ("S", 2, 2)),
]


@settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(ops=posting_operations)
@example(ops=POSTING_RESURRECTION)
@example(ops=[("add", ("R", -1, 0)), ("add", ("R", 2, 0)), ("null_map", {-1: 2})])
def test_postings_equal_a_rebuild_after_every_mutation(ops):
    store = ColumnarInstance(pool=TermPool())
    for op, payload in ops:
        if op == "add":
            relation, a, b = payload
            store.add_encoded(relation, (_code(store, a), _code(store, b)))
        elif op == "remove":
            relation, a, b = payload
            decode = store.decode_term
            store.remove(
                Atom(relation, (decode(_code(store, a)), decode(_code(store, b))))
            )
        elif op == "extend":
            by_relation = {}
            for relation, a, b in payload:
                by_relation.setdefault(relation, []).append(
                    (_code(store, a), _code(store, b))
                )
            for relation, rows in by_relation.items():
                store.extend_encoded(relation, rows)
        elif op == "null_map":
            store.apply_null_map_encoded(
                {null: _code(store, value) for null, value in payload.items()}
            )
        elif op == "copy":
            # The copy shares no posting with the original: mutating it
            # leaves the original's postings as they were.
            before = _snapshot(store)
            clone = store.copy()
            relation, a, b = payload
            clone.add_encoded(relation, (_code(store, a), _code(store, b)))
            _check_postings(clone)
            assert _snapshot(store) == before
            store = clone
        else:
            store.bump_generation()
        _check_postings(store)
