"""Unit tests for the conjunctive-query evaluator (joins, negation, delta)."""

import pytest

from repro.errors import UnsafeDependencyError
from repro.logic.atoms import Atom, Comparison, Conjunction, NegatedConjunction
from repro.logic.terms import Constant, Null, Variable
from repro.relational.instance import Instance
from repro.relational.kernel import ColumnarInstance
from repro.relational.query import evaluate, evaluate_delta, exists

x, y, z = Variable("x"), Variable("y"), Variable("z")


def c(v):
    return Constant(v)


@pytest.fixture()
def graph():
    """Edges of a small directed graph plus node labels."""
    instance = Instance()
    for edge in [(1, 2), (2, 3), (3, 1), (1, 3)]:
        instance.add(Atom("E", (c(edge[0]), c(edge[1]))))
    for node, label in [(1, "a"), (2, "b"), (3, "a")]:
        instance.add(Atom("L", (c(node), c(label))))
    return instance


class TestJoins:
    def test_single_atom(self, graph):
        rows = evaluate(Conjunction(atoms=(Atom("E", (x, y)),)), graph)
        assert len(rows) == 4

    def test_two_way_join(self, graph):
        body = Conjunction(atoms=(Atom("E", (x, y)), Atom("E", (y, z))))
        rows = evaluate(body, graph)
        pairs = {(b[x].value, b[y].value, b[z].value) for b in rows}
        assert (1, 2, 3) in pairs
        assert (3, 1, 2) in pairs

    def test_repeated_variable_self_loop(self, graph):
        body = Conjunction(atoms=(Atom("E", (x, x)),))
        assert evaluate(body, graph) == []
        graph.add(Atom("E", (c(5), c(5))))
        rows = evaluate(body, graph)
        assert len(rows) == 1 and rows[0][x] == c(5)

    def test_constant_selection(self, graph):
        body = Conjunction(atoms=(Atom("E", (c(1), y)),))
        values = {b[y].value for b in evaluate(body, graph)}
        assert values == {2, 3}

    def test_triangle(self, graph):
        body = Conjunction(
            atoms=(Atom("E", (x, y)), Atom("E", (y, z)), Atom("E", (z, x)))
        )
        rows = evaluate(body, graph)
        assert rows  # 1 -> 2 -> 3 -> 1

    def test_seed_restricts(self, graph):
        body = Conjunction(atoms=(Atom("E", (x, y)),))
        rows = evaluate(body, graph, seed={x: c(2)})
        assert len(rows) == 1 and rows[0][y] == c(3)

    def test_empty_result_on_missing_relation(self, graph):
        assert evaluate(Conjunction(atoms=(Atom("Z", (x,)),)), graph) == []

    def test_cross_product(self, graph):
        body = Conjunction(atoms=(Atom("L", (x, y)), Atom("L", (z, c("a")))))
        rows = evaluate(body, graph)
        assert len(rows) == 3 * 2


class TestArity:
    """An atom only matches a table of its own arity; every other step
    matches nothing, on the join and on the single-probe path."""

    @pytest.fixture()
    def pair(self):
        store = ColumnarInstance()
        store.add(Atom("R", (c(1), c(2))))
        return store

    def test_shorter_atom_matches_nothing(self, pair):
        assert evaluate(Conjunction(atoms=(Atom("R", (x,)),)), pair) == []
        assert not exists(Conjunction(atoms=(Atom("R", (x,)),)), pair)

    def test_longer_atom_matches_nothing(self, pair):
        longer = Conjunction(atoms=(Atom("R", (x, y, z)),))
        assert not exists(longer, pair)
        assert evaluate(longer, pair) == []
        # A key position past the table's columns neither plans nor probes.
        keyed = Conjunction(atoms=(Atom("R", (x, y, c(5))),))
        assert evaluate(keyed, pair) == []
        assert not exists(keyed, pair, seed={x: c(1)})

    def test_mismatched_step_inside_a_join(self, pair):
        pair.add(Atom("S", (c(2),)))
        body = Conjunction(atoms=(Atom("S", (y,)), Atom("R", (x, y, z))))
        assert evaluate(body, pair) == []
        assert not exists(body, pair)
        matching = Conjunction(atoms=(Atom("S", (y,)), Atom("R", (x, y))))
        assert evaluate(matching, pair) == [{x: c(1), y: c(2)}]

    def test_matching_arity_still_matches(self, pair):
        assert evaluate(Conjunction(atoms=(Atom("R", (x, y)),)), pair) == [
            {x: c(1), y: c(2)}
        ]
        assert exists(Conjunction(atoms=(Atom("R", (c(1), y)),)), pair)


class TestComparisons:
    def test_filter(self, graph):
        body = Conjunction(
            atoms=(Atom("E", (x, y)),),
            comparisons=(Comparison("<", x, y),),
        )
        rows = evaluate(body, graph)
        assert {(b[x].value, b[y].value) for b in rows} == {(1, 2), (2, 3), (1, 3)}

    def test_comparison_between_variables_and_constants(self, graph):
        body = Conjunction(
            atoms=(Atom("E", (x, y)),),
            comparisons=(Comparison(">=", y, c(3)),),
        )
        assert len(evaluate(body, graph)) == 2

    def test_comparison_on_seed_only(self, graph):
        body = Conjunction(comparisons=(Comparison("<", x, c(2)),))
        assert evaluate(body, graph, seed={x: c(1)}) == [{x: c(1)}]
        assert evaluate(body, graph, seed={x: c(5)}) == []

    def test_unbound_comparison_raises(self, graph):
        body = Conjunction(
            atoms=(Atom("E", (x, y)),),
            comparisons=(Comparison("<", z, c(2)),),
        )
        with pytest.raises(UnsafeDependencyError):
            evaluate(body, graph)

    def test_null_order_comparison_filters_row(self, graph):
        graph.add(Atom("E", (Null(1), c(9))))
        body = Conjunction(
            atoms=(Atom("E", (x, y)),),
            comparisons=(Comparison("<", x, y),),
        )
        rows = evaluate(body, graph)
        assert all(not isinstance(b[x], Null) for b in rows)

    def test_string_mismatch_comparison_filters(self, graph):
        body = Conjunction(
            atoms=(Atom("L", (x, y)),),
            comparisons=(Comparison("<", y, c(3)),),  # label < int: never
        )
        assert evaluate(body, graph) == []


class TestNegation:
    def test_simple_anti_join(self, graph):
        # Nodes with a label but no outgoing edge to node 1.
        body = Conjunction(
            atoms=(Atom("L", (x, y)),),
            negations=(
                NegatedConjunction(Conjunction(atoms=(Atom("E", (x, c(1))),))),
            ),
        )
        nodes = {b[x].value for b in evaluate(body, graph)}
        assert nodes == {1, 2}  # 3 -> 1 exists

    def test_negation_with_local_variable(self, graph):
        # Nodes with no outgoing edges at all.
        graph.add(Atom("L", (c(9), c("z"))))
        body = Conjunction(
            atoms=(Atom("L", (x, y)),),
            negations=(
                NegatedConjunction(Conjunction(atoms=(Atom("E", (x, z)),))),
            ),
        )
        nodes = {b[x].value for b in evaluate(body, graph)}
        assert nodes == {9}

    def test_nested_negation(self, graph):
        # x such that NOT exists y: E(x, y) AND NOT L(y, 'a')
        # = x whose successors all have label 'a' (vacuously or not).
        inner = Conjunction(
            atoms=(Atom("E", (x, y)),),
            negations=(
                NegatedConjunction(Conjunction(atoms=(Atom("L", (y, c("a"))),))),
            ),
        )
        body = Conjunction(
            atoms=(Atom("L", (x, z)),),
            negations=(NegatedConjunction(inner),),
        )
        nodes = {b[x].value for b in evaluate(body, graph)}
        # 1 -> 2 and L(2) = 'b', so 1 is excluded; 2 -> 3 ('a') ok; 3 -> 1 ('a') ok.
        assert nodes == {2, 3}

    def test_negation_of_conjunction(self, graph):
        # No path of length 2 starting at x.
        body = Conjunction(
            atoms=(Atom("L", (x, y)),),
            negations=(
                NegatedConjunction(
                    Conjunction(atoms=(Atom("E", (x, z)), Atom("E", (z, Variable("w")))))
                ),
            ),
        )
        assert {b[x].value for b in evaluate(body, graph)} == set()

    def test_exists(self, graph):
        assert exists(Conjunction(atoms=(Atom("E", (c(1), c(2))),)), graph)
        assert not exists(Conjunction(atoms=(Atom("E", (c(2), c(1))),)), graph)


class TestDelta:
    def test_delta_restricts_to_new_facts(self, graph):
        body = Conjunction(atoms=(Atom("E", (x, y)),))
        new_fact = Atom("E", (c(7), c(8)))
        graph.add(new_fact)
        rows = evaluate_delta(body, graph, {new_fact})
        assert len(rows) == 1
        assert rows[0][x] == c(7)

    def test_delta_join_uses_full_instance_for_other_atoms(self, graph):
        body = Conjunction(atoms=(Atom("E", (x, y)), Atom("E", (y, z))))
        new_fact = Atom("E", (c(3), c(2)))
        graph.add(new_fact)
        rows = evaluate_delta(body, graph, {new_fact})
        triples = {(b[x].value, b[y].value, b[z].value) for b in rows}
        # New fact as first atom: 3 -> 2 -> 3; as second atom: 2 -> 3 -> 2... etc.
        assert (3, 2, 3) in triples
        assert (2, 3, 2) in triples
        # No stale-only matches.
        assert (1, 2, 3) not in triples

    def test_delta_deduplicates(self, graph):
        body = Conjunction(atoms=(Atom("E", (x, y)), Atom("E", (x, y))))
        new_fact = Atom("E", (c(7), c(8)))
        graph.add(new_fact)
        rows = evaluate_delta(body, graph, {new_fact})
        assert len(rows) == 1

    def test_delta_empty_when_relation_not_in_body(self, graph):
        body = Conjunction(atoms=(Atom("L", (x, y)),))
        new_fact = Atom("E", (c(7), c(8)))
        graph.add(new_fact)
        assert evaluate_delta(body, graph, {new_fact}) == []

    def test_delta_equals_full_minus_old(self, graph):
        body = Conjunction(atoms=(Atom("E", (x, y)), Atom("E", (y, z))))
        before = {
            tuple(sorted((k.name, str(v)) for k, v in b.items()))
            for b in evaluate(body, graph)
        }
        new_facts = {Atom("E", (c(2), c(4))), Atom("E", (c(4), c(1)))}
        for fact in new_facts:
            graph.add(fact)
        after = {
            tuple(sorted((k.name, str(v)) for k, v in b.items()))
            for b in evaluate(body, graph)
        }
        delta_rows = {
            tuple(sorted((k.name, str(v)) for k, v in b.items()))
            for b in evaluate_delta(body, graph, new_facts)
        }
        assert delta_rows == after - before


class TestLimit:
    def test_limit_caps_results(self, graph):
        body = Conjunction(atoms=(Atom("E", (x, y)),))
        assert len(evaluate(body, graph, limit=2)) == 2

    def test_limit_with_negation_applied_after_filtering(self, graph):
        body = Conjunction(
            atoms=(Atom("L", (x, y)),),
            negations=(
                NegatedConjunction(Conjunction(atoms=(Atom("E", (x, c(1))),))),
            ),
        )
        rows = evaluate(body, graph, limit=1)
        assert len(rows) == 1
        assert rows[0][x].value in {1, 2}
