"""Coupling maps of the IBM devices used in the paper's evaluation.

The edge lists reproduce the published heavy-hex lattices: the 7-qubit
Falcon r5.11H layout (``nairobi``) and the 27-qubit Falcon layout shared by
``toronto``, ``mumbai`` and ``hanoi``.  Only the connectivity is hardware
data here; error rates come from :mod:`repro.backends.calibration`.

A device's connectivity is a :class:`CouplingGraph`: a small immutable
undirected graph that carries the few searches the transpiler runs on it
(a weighted shortest path for routing, a DFS order and hop distances for
the layout fallback, and a connectivity check).  Building a device
problem therefore imports no graph library.  Iteration follows networkx's
``Graph`` rules, so these searches visit and break ties exactly as the
networkx functions they replace: nodes in insertion order, each node's
neighbours in the order its edges were added.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Mapping
from heapq import heappop, heappush
from itertools import count

#: 7-qubit heavy-hex "H" layout:
#:
#:     0 - 1 - 2
#:         |
#:         3
#:         |
#:     4 - 5 - 6
EDGES_7Q_FALCON: list[tuple[int, int]] = [
    (0, 1), (1, 2), (1, 3), (3, 5), (4, 5), (5, 6),
]

#: 27-qubit Falcon heavy-hex lattice (toronto / mumbai / hanoi).
EDGES_27Q_FALCON: list[tuple[int, int]] = [
    (0, 1), (1, 2), (1, 4), (2, 3), (3, 5), (4, 7), (5, 8), (6, 7),
    (7, 10), (8, 9), (8, 11), (10, 12), (11, 14), (12, 13), (12, 15),
    (13, 14), (14, 16), (15, 18), (16, 19), (17, 18), (18, 21), (19, 20),
    (19, 22), (21, 23), (22, 25), (23, 24), (24, 25), (25, 26),
]


class CouplingGraph:
    """Undirected coupling graph on physical qubit ids.

    Built from an adjacency mapping (node -> neighbours in iteration
    order), which must be symmetric.  Nothing mutates a graph after
    construction; :meth:`subgraph` returns a new one that keeps this
    graph's node and neighbour order.
    """

    __slots__ = ("_adj", "_edges")

    def __init__(self, adjacency: Mapping[int, Iterable[int]]):
        adj = {node: tuple(nbrs) for node, nbrs in adjacency.items()}
        for node, nbrs in adj.items():
            for nbr in nbrs:
                if node not in adj.get(nbr, ()):
                    raise ValueError(f"adjacency is not symmetric: {node} "
                                     f"lists {nbr} but not the reverse")
        # networkx's edge order: each edge once, from the endpoint that
        # comes first in node order
        edges = []
        done: set[int] = set()
        for node, nbrs in adj.items():
            edges.extend((node, nbr) for nbr in nbrs if nbr not in done)
            done.add(node)
        self._adj = adj
        self._edges = tuple(edges)

    # -- structure --------------------------------------------------------
    @property
    def nodes(self) -> tuple[int, ...]:
        return tuple(self._adj)

    @property
    def edges(self) -> tuple[tuple[int, int], ...]:
        return self._edges

    @property
    def degree(self) -> dict[int, int]:
        """Node -> degree (a self-loop counts twice, as in networkx)."""
        return {node: len(nbrs) + (node in nbrs)
                for node, nbrs in self._adj.items()}

    def neighbors(self, node: int) -> tuple[int, ...]:
        return self._adj[node]

    def has_edge(self, u: int, v: int) -> bool:
        return v in self._adj.get(u, ())

    def number_of_nodes(self) -> int:
        return len(self._adj)

    def number_of_edges(self) -> int:
        return len(self._edges)

    def __contains__(self, node) -> bool:
        return node in self._adj

    def subgraph(self, nodes: Iterable[int]) -> CouplingGraph:
        """The subgraph induced by ``nodes`` (ids not in the graph are
        ignored)."""
        keep = {node for node in nodes if node in self._adj}
        return CouplingGraph({node: [nbr for nbr in nbrs if nbr in keep]
                              for node, nbrs in self._adj.items()
                              if node in keep})

    # -- searches ---------------------------------------------------------
    def is_connected(self) -> bool:
        if not self._adj:
            raise ValueError("connectivity is undefined for the null graph")
        return len(self.hop_distances(next(iter(self._adj)))) == len(self._adj)

    def hop_distances(self, source: int) -> dict[int, int]:
        """Hop count from ``source`` to every node it reaches (BFS)."""
        dist = {source: 0}
        frontier = [source]
        hops = 0
        while frontier:
            hops += 1
            nxt = []
            for node in frontier:
                for nbr in self._adj[node]:
                    if nbr not in dist:
                        dist[nbr] = hops
                        nxt.append(nbr)
            frontier = nxt
        return dist

    def dfs_preorder(self, source: int) -> list[int]:
        """Nodes reachable from ``source`` in depth-first preorder."""
        order = [source]
        visited = {source}
        stack = [iter(self._adj[source])]
        while stack:
            for child in stack[-1]:
                if child not in visited:
                    visited.add(child)
                    order.append(child)
                    stack.append(iter(self._adj[child]))
                    break
            else:
                stack.pop()
        return order

    def shortest_path(self, source: int, target: int,
                      weight: Callable[[int, int], float]) -> list[int]:
        """Least-weight path from ``source`` to ``target``.

        Bidirectional Dijkstra, alternating a forward and a backward
        search; heap ties go to the node pushed first.  This is networkx's
        ``bidirectional_dijkstra``, so among equal-weight paths it returns
        the same one.  ``weight(u, v)`` is the cost of traversing edge
        ``(u, v)`` and must be non-negative.

        Raises:
            ValueError: if either node is missing or no path joins them.
        """
        for node in (source, target):
            if node not in self._adj:
                raise ValueError(f"node {node} not in coupling graph")
        if source == target:
            return [source]
        dists: list[dict[int, float]] = [{}, {}]
        preds: list[dict[int, int | None]] = [{source: None}, {target: None}]
        seen: list[dict[int, float]] = [{source: 0}, {target: 0}]
        tick = count()
        fringe: list[list] = [[(0, next(tick), source)],
                              [(0, next(tick), target)]]
        best: float | None = None
        meet = None
        direction = 1
        while fringe[0] and fringe[1]:
            direction = 1 - direction
            dist, _, node = heappop(fringe[direction])
            if node in dists[direction]:
                continue
            dists[direction][node] = dist
            if node in dists[1 - direction]:
                return (_trace(meet, preds[0])[::-1]
                        + _trace(preds[1][meet], preds[1]))
            for nbr in self._adj[node]:
                if nbr in dists[direction]:
                    continue
                cost = dist + (weight(node, nbr) if direction == 0
                               else weight(nbr, node))
                if nbr not in seen[direction] or cost < seen[direction][nbr]:
                    seen[direction][nbr] = cost
                    heappush(fringe[direction], (cost, next(tick), nbr))
                    preds[direction][nbr] = node
                    if nbr in seen[1 - direction]:
                        total = cost + seen[1 - direction][nbr]
                        if best is None or best > total:
                            best, meet = total, nbr
        raise ValueError(f"no path between {source} and {target}")


def _trace(node: int | None, preds: dict[int, int | None]) -> list[int]:
    """``node`` and its predecessors up to the search's root."""
    path = []
    while node is not None:
        path.append(node)
        node = preds[node]
    return path


def coupling_graph(edges: Iterable[tuple[int, int]],
                   num_qubits: int) -> CouplingGraph:
    """Undirected coupling graph with every qubit ``0..num_qubits-1``
    present as a node; each node's neighbours follow ``edges`` order."""
    adj: dict[int, dict[int, None]] = {q: {} for q in range(num_qubits)}
    for u, v in edges:
        adj.setdefault(u, {})[v] = None
        adj.setdefault(v, {})[u] = None
    return CouplingGraph(adj)


def line_topology(num_qubits: int) -> CouplingGraph:
    """A simple chain -- used by the Fig. 7/8 sweeps after transpiling to a
    line of ``toronto`` and by the scaling study, where topology is not the
    object of interest."""
    return coupling_graph([(i, i + 1) for i in range(num_qubits - 1)],
                          num_qubits)
