"""Dependency analysis of view programs: recursion check, strata, order.

GROM's *rewriter* requires non-recursive Datalog with negation (view
unfolding would not terminate otherwise), and :func:`check_nonrecursive`
enforces exactly that.  The *evaluator* is more liberal: semi-naive
materialization handles any **stratified** program — recursion through
positive edges is evaluated to fixpoint, only recursion through
negation is rejected.  :func:`stratified_components` computes the
strongly-connected components of the view dependency graph in
evaluation order and raises when a cycle crosses a negative edge.

Non-recursive programs are trivially stratified; the machinery here
still computes proper strata and a topological evaluation order, plus
the predicate dependency graph with edge polarity — which the
rewriter's static analysis reuses to locate "problematic" negation
patterns.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, FrozenSet, List, Set, Tuple

from repro.analysis.graphs import strongly_connected_components
from repro.errors import RecursionError_
from repro.datalog.program import ViewProgram

__all__ = [
    "predicate_graph",
    "check_nonrecursive",
    "evaluation_order",
    "strata",
    "stratified_components",
    "depends_on",
]

Edge = Tuple[str, str, bool]
"""(from-view, to-predicate, is-negative) edge in the dependency graph."""


def predicate_graph(program: ViewProgram) -> List[Edge]:
    """All dependency edges ``head -> body predicate`` with polarity.

    A predicate referenced both positively and under negation contributes
    two edges.  Negation polarity is recorded for *any* nesting depth
    (odd depths count as negative; even depths re-become positive, e.g.
    the double negation in the running example's ``UnpopularProduct``).
    """
    edges: Set[Edge] = set()
    for rule in program:
        head = rule.head.relation

        def walk(conjunction, negative: bool) -> None:
            for atom in conjunction.atoms:
                edges.add((head, atom.relation, negative))
            for negation in conjunction.negations:
                walk(negation.inner, not negative)

        walk(rule.body, False)
    return sorted(edges)


def _adjacency(program: ViewProgram) -> Dict[str, Set[str]]:
    adjacency: Dict[str, Set[str]] = defaultdict(set)
    for head, predicate, _negative in predicate_graph(program):
        if program.is_view(predicate):
            adjacency[head].add(predicate)
    return adjacency


def _view_components(program: ViewProgram) -> List[Tuple[str, ...]]:
    """Tarjan's SCCs of the view-to-view dependency graph.

    Edges point at dependencies, so the components come out in reverse
    topological order of the condensation — dependencies first, which
    is exactly the bottom-up evaluation order.
    """
    return strongly_connected_components(
        sorted(program.view_names()),
        [
            (head, predicate)
            for head, predicate, _negative in predicate_graph(program)
            if program.is_view(predicate)
        ],
    )


def check_nonrecursive(program: ViewProgram) -> None:
    """Raise :class:`RecursionError_` when a view depends on itself."""
    evaluation_order(program)


def evaluation_order(program: ViewProgram) -> List[str]:
    """View names in bottom-up (dependencies-first) topological order.

    Raises :class:`RecursionError_` when a component is a cycle: more
    than one member, or a view that references itself."""
    adjacency = _adjacency(program)
    order: List[str] = []
    for component in _view_components(program):
        view = component[0]
        if len(component) > 1 or view in adjacency.get(view, ()):
            raise RecursionError_(f"view program is recursive: cycle through {view!r}")
        order.append(view)
    return order


def strata(program: ViewProgram) -> Dict[str, int]:
    """Assign each view a stratum number.

    Base predicates live at stratum 0.  A view's stratum is at least the
    stratum of every positively-referenced view, and strictly greater
    than the stratum of every negatively-referenced predicate that is a
    view.  For non-recursive programs a single bottom-up pass suffices.
    """
    order = evaluation_order(program)
    levels: Dict[str, int] = {}
    edges = predicate_graph(program)
    by_head: Dict[str, List[Tuple[str, bool]]] = defaultdict(list)
    for head, predicate, negative in edges:
        by_head[head].append((predicate, negative))
    for view in order:
        level = 1
        for predicate, negative in by_head.get(view, ()):
            if program.is_view(predicate):
                required = levels[predicate] + (1 if negative else 0)
                level = max(level, required)
        levels[view] = level
    return levels


def stratified_components(program: ViewProgram) -> List[List[str]]:
    """Mutually-recursive view groups in bottom-up evaluation order.

    The strongly-connected components of the view-to-view dependency
    graph, topologically sorted so every component's dependencies come
    first.  A singleton component is an ordinary non-recursive view; a
    larger component (or a self-loop) is a set of mutually recursive
    views the semi-naive evaluator iterates to fixpoint *together*.

    Raises :class:`RecursionError_` when a cycle crosses a negative edge
    — recursion through negation has no stratified semantics (the
    classical ``p ⇐ ¬p`` has no stable model the evaluator could
    compute), so such programs are rejected outright.
    """
    components = [list(component) for component in _view_components(program)]
    membership = {
        view: position
        for position, component in enumerate(components)
        for view in component
    }
    for head, predicate, negative in predicate_graph(program):
        if (
            negative
            and program.is_view(predicate)
            and membership[head] == membership[predicate]
        ):
            raise RecursionError_(
                f"view program is not stratified: {head!r} depends "
                f"negatively on {predicate!r} within a recursive cycle"
            )
    return components


def depends_on(program: ViewProgram, view: str) -> FrozenSet[str]:
    """All views (transitively) referenced by ``view``."""
    adjacency = _adjacency(program)
    seen: Set[str] = set()
    frontier = [view]
    while frontier:
        current = frontier.pop()
        for nxt in adjacency.get(current, ()):
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return frozenset(seen)
