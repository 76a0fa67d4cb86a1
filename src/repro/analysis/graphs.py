"""Small deterministic graph kernels for the analyzer and the evaluator.

The static analyzer and the Datalog evaluator's stratification need
exactly two graph algorithms — strongly connected components and a
condensation-order traversal — over graphs whose nodes are positions,
rules, dependency indices or view names.  They are implemented here
(iterative Tarjan plus a heap-based Kahn order) instead of pulling in a
graph library: the determinism guarantees of the whole repo extend to
the analyzer, so component *numbering* and stratum *order* must be
functions of the input alone, never of hash seeds or import versions.
"""

from __future__ import annotations

import heapq
from typing import Dict, Hashable, Iterable, List, Sequence, Set, Tuple

__all__ = ["strongly_connected_components", "condensation_order"]


def strongly_connected_components(
    nodes: Sequence[Hashable],
    edges: Iterable[Tuple[Hashable, Hashable]],
) -> List[Tuple[Hashable, ...]]:
    """Tarjan's SCCs, iteratively, in a deterministic order.

    ``nodes`` fixes the DFS root order, so two calls with the same input
    produce the same component list; each component's members are
    returned in ``nodes`` order.  Edges mentioning unknown endpoints are
    ignored (the analyzer's graphs are closed by construction, this is
    belt-and-braces).
    """
    order = {node: position for position, node in enumerate(nodes)}
    adjacency: Dict[Hashable, List[Hashable]] = {node: [] for node in nodes}
    for source, target in edges:
        if source in order and target in order:
            adjacency[source].append(target)
    for successors in adjacency.values():
        successors.sort(key=order.__getitem__)

    index_of: Dict[Hashable, int] = {}
    lowlink: Dict[Hashable, int] = {}
    on_stack: Set[Hashable] = set()
    stack: List[Hashable] = []
    components: List[Tuple[Hashable, ...]] = []
    counter = 0

    for root in nodes:
        if root in index_of:
            continue
        # Explicit DFS stack of (node, iterator position) frames.
        work: List[Tuple[Hashable, int]] = [(root, 0)]
        while work:
            node, child_at = work.pop()
            if child_at == 0:
                index_of[node] = lowlink[node] = counter
                counter += 1
                stack.append(node)
                on_stack.add(node)
            successors = adjacency[node]
            advanced = False
            while child_at < len(successors):
                successor = successors[child_at]
                child_at += 1
                if successor not in index_of:
                    work.append((node, child_at))
                    work.append((successor, 0))
                    advanced = True
                    break
                if successor in on_stack:
                    lowlink[node] = min(lowlink[node], index_of[successor])
            if advanced:
                continue
            if lowlink[node] == index_of[node]:
                component: List[Hashable] = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.append(member)
                    if member == node:
                        break
                component.sort(key=order.__getitem__)
                components.append(tuple(component))
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[node])
    return components


def condensation_order(
    nodes: Sequence[Hashable],
    edges: Iterable[Tuple[Hashable, Hashable]],
) -> List[Tuple[Hashable, ...]]:
    """SCCs in a deterministic topological order of the condensation.

    Kahn's algorithm over the component DAG with a min-heap keyed by
    each component's smallest member (in ``nodes`` order): among the
    components whose predecessors are all emitted, the one containing
    the earliest node comes first.  This is the analyzer's canonical
    stratum order.
    """
    position = {node: index for index, node in enumerate(nodes)}
    components = strongly_connected_components(nodes, edges)
    component_of = {
        node: index
        for index, component in enumerate(components)
        for node in component
    }
    successors: List[Set[int]] = [set() for _ in components]
    indegree = [0] * len(components)
    for source, target in edges:
        if source not in component_of or target not in component_of:
            continue
        from_component = component_of[source]
        to_component = component_of[target]
        if from_component != to_component and to_component not in successors[from_component]:
            successors[from_component].add(to_component)
            indegree[to_component] += 1

    def key(component_index: int) -> int:
        return position[components[component_index][0]]

    ready = [
        (key(index), index)
        for index in range(len(components))
        if indegree[index] == 0
    ]
    heapq.heapify(ready)
    out: List[Tuple[Hashable, ...]] = []
    while ready:
        _, index = heapq.heappop(ready)
        out.append(components[index])
        for successor in sorted(successors[index]):
            indegree[successor] -= 1
            if indegree[successor] == 0:
                heapq.heappush(ready, (key(successor), successor))
    return out
