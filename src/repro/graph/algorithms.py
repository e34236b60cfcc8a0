"""Core graph algorithms used across the library.

These are the substrate routines the paper's algorithms rely on:

* Tarjan's strongly connected components (iterative, recursion-free) —
  used to build ``G_SCC`` / ``Q_SCC`` (Section 4).
* Condensation graphs with topological ordering.
* Topological *ranks* ``r(v)`` exactly as the paper defines them:
  ``r(v) = 0`` when ``v_SCC`` is a leaf of the condensation (out-degree 0),
  else ``1 + max`` over condensation successors.
* Reachability / descendants, BFS shortest path (for the distance-based
  diversity function of Section 3.4).

All functions take either a :class:`repro.graph.digraph.Graph` or the pair
``(n, successors)`` so they work on pattern graphs, data graphs and the
match-pair graph alike.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from repro.errors import GraphError
from repro.graph.digraph import Graph

SuccessorFn = Callable[[int], Sequence[int]]


def _as_successors(graph_or_n: "Graph | int", succ: SuccessorFn | None) -> tuple[int, SuccessorFn]:
    """Normalise the (graph) / (n, succ) calling conventions."""
    if isinstance(graph_or_n, Graph):
        return graph_or_n.num_nodes, graph_or_n.successors
    if succ is None:
        raise GraphError("successors function required when passing a node count")
    return graph_or_n, succ


def strongly_connected_components(
    graph_or_n: "Graph | int", succ: SuccessorFn | None = None
) -> list[list[int]]:
    """Tarjan's SCC algorithm, iterative.

    Returns components in *reverse topological order* of the condensation:
    a component is emitted only after every component it can reach.
    """
    n, successors = _as_successors(graph_or_n, succ)
    index_of = [-1] * n
    lowlink = [0] * n
    on_stack = [False] * n
    stack: list[int] = []
    components: list[list[int]] = []
    counter = 0

    for root in range(n):
        if index_of[root] != -1:
            continue
        index_of[root] = lowlink[root] = counter
        counter += 1
        stack.append(root)
        on_stack[root] = True
        # Each frame is a node and the iterator over its children; a
        # frame is resumed where it left off after a child returns.
        work = [(root, iter(successors(root)))]
        while work:
            node, children = work[-1]
            for child in children:
                if index_of[child] == -1:
                    index_of[child] = lowlink[child] = counter
                    counter += 1
                    stack.append(child)
                    on_stack[child] = True
                    work.append((child, iter(successors(child))))
                    break
                if on_stack[child] and index_of[child] < lowlink[node]:
                    lowlink[node] = index_of[child]
            else:
                work.pop()
                low = lowlink[node]
                if low == index_of[node]:
                    component: list[int] = []
                    while True:
                        member = stack.pop()
                        on_stack[member] = False
                        component.append(member)
                        if member == node:
                            break
                    components.append(component)
                if work:
                    parent = work[-1][0]
                    if low < lowlink[parent]:
                        lowlink[parent] = low
    return components


@dataclass(frozen=True)
class Condensation:
    """The SCC condensation of a directed graph.

    Attributes
    ----------
    components:
        ``components[c]`` is the list of original nodes in component ``c``.
        Components are indexed in reverse topological order (Tarjan order):
        if component ``a`` can reach component ``b`` then ``a > b``.
    comp_of:
        ``comp_of[v]`` is the component index of original node ``v``.
    comp_succ / comp_pred:
        Deduplicated adjacency between components.
    """

    components: list[list[int]]
    comp_of: list[int]
    comp_succ: list[list[int]]
    comp_pred: list[list[int]]

    @property
    def num_components(self) -> int:
        return len(self.components)

    def is_trivial(self, comp: int, self_loops: set[int] | None = None) -> bool:
        """True when component ``comp`` is a single node without a self-loop."""
        if len(self.components[comp]) > 1:
            return False
        if self_loops and self.components[comp][0] in self_loops:
            return False
        return True

    def topological_order(self) -> list[int]:
        """Component indices ordered so edges go from earlier to later."""
        return list(range(len(self.components) - 1, -1, -1))

    def reverse_topological_order(self) -> list[int]:
        """Component indices ordered so edges go from later to earlier."""
        return list(range(len(self.components)))


def condensation(graph_or_n: "Graph | int", succ: SuccessorFn | None = None) -> Condensation:
    """Build the SCC condensation (the ``G_SCC`` of Section 4)."""
    n, successors = _as_successors(graph_or_n, succ)
    components = strongly_connected_components(n, successors)
    comp_of = [0] * n
    for comp_index, members in enumerate(components):
        for member in members:
            comp_of[member] = comp_index

    comp_succ: list[list[int]] = [[] for _ in components]
    comp_pred: list[list[int]] = [[] for _ in components]
    seen: set[tuple[int, int]] = set()
    for node in range(n):
        src_comp = comp_of[node]
        for child in successors(node):
            dst_comp = comp_of[child]
            if src_comp == dst_comp:
                continue
            key = (src_comp, dst_comp)
            if key in seen:
                continue
            seen.add(key)
            comp_succ[src_comp].append(dst_comp)
            comp_pred[dst_comp].append(src_comp)
    return Condensation(components, comp_of, comp_succ, comp_pred)


def topological_ranks(
    graph_or_n: "Graph | int", succ: SuccessorFn | None = None
) -> tuple[list[int], Condensation]:
    """Topological ranks ``r(v)`` per the paper (Section 4).

    ``r(v) = 0`` if ``v``'s SCC is a condensation leaf, otherwise
    ``max(1 + r(v'))`` over condensation successors.  Returns the rank per
    original node alongside the condensation used to compute it.
    """
    cond = condensation(graph_or_n, succ)
    comp_rank = [0] * cond.num_components
    # Components are in reverse topological order: successors of a component
    # always have smaller indices, so one forward pass suffices.
    for comp in range(cond.num_components):
        successors_of = cond.comp_succ[comp]
        if successors_of:
            comp_rank[comp] = 1 + max(comp_rank[child] for child in successors_of)
    node_rank = [comp_rank[cond.comp_of[node]] for node in range(len(cond.comp_of))]
    return node_rank, cond


def is_dag(graph_or_n: "Graph | int", succ: SuccessorFn | None = None) -> bool:
    """True when the graph has no directed cycle (including self-loops)."""
    n, successors = _as_successors(graph_or_n, succ)
    for node in range(n):
        if node in successors(node):
            return False
    return all(len(c) == 1 for c in strongly_connected_components(n, successors))


def topological_order(graph_or_n: "Graph | int", succ: SuccessorFn | None = None) -> list[int]:
    """Kahn's algorithm; raises :class:`GraphError` if the graph is cyclic."""
    n, successors = _as_successors(graph_or_n, succ)
    in_degree = [0] * n
    for node in range(n):
        for child in successors(node):
            in_degree[child] += 1
    queue = deque(node for node in range(n) if in_degree[node] == 0)
    order: list[int] = []
    while queue:
        node = queue.popleft()
        order.append(node)
        for child in successors(node):
            in_degree[child] -= 1
            if in_degree[child] == 0:
                queue.append(child)
    if len(order) != n:
        raise GraphError("graph contains a cycle; no topological order exists")
    return order


def reachable_from(
    graph_or_n: "Graph | int",
    sources: Iterable[int],
    succ: SuccessorFn | None = None,
    include_sources: bool = True,
) -> set[int]:
    """The set of nodes reachable from ``sources`` (BFS)."""
    n, successors = _as_successors(graph_or_n, succ)
    del n
    seen = set(sources)
    queue = deque(seen)
    while queue:
        node = queue.popleft()
        for child in successors(node):
            if child not in seen:
                seen.add(child)
                queue.append(child)
    if not include_sources:
        # A source stays only if it is reachable from another source or a cycle.
        retained: set[int] = set()
        starts = set(sources)
        for node in seen:
            for child in successors(node):
                if child in seen:
                    retained.add(child)
        return retained | (seen - starts)
    return seen


def descendants(graph: Graph, node: int) -> set[int]:
    """Proper descendants of ``node`` (nodes reachable by a path of ≥ 1 edge)."""
    seen: set[int] = set()
    queue = deque(graph.successors(node))
    seen.update(graph.successors(node))
    while queue:
        current = queue.popleft()
        for child in graph.successors(current):
            if child not in seen:
                seen.add(child)
                queue.append(child)
    return seen


def bfs_distance(graph: Graph, source: int, target: int) -> int | None:
    """Length of the shortest directed path ``source -> target``.

    Returns ``None`` when ``target`` is unreachable; ``0`` when
    ``source == target``.  Used by the distance-based diversity function
    (Section 3.4), where an infinite distance maps to diversity 1.
    """
    if source == target:
        return 0
    seen = {source}
    queue = deque([(source, 0)])
    while queue:
        node, dist = queue.popleft()
        for child in graph.successors(node):
            if child == target:
                return dist + 1
            if child not in seen:
                seen.add(child)
                queue.append((child, dist + 1))
    return None
