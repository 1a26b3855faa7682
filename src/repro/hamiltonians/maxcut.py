"""MaxCut Hamiltonians: the optimization-domain VQA workload.

The paper motivates VQAs with MAXCUT approximation (Sec. 1-2, via QAOA) and
notes Clapton applies to any VQA; this module provides the standard cost
Hamiltonian so the generality claim is exercisable:

    H = sum_{(i,j) in E} w_ij (Z_i Z_j - I) / 2

whose ground states are computational-basis states encoding maximum cuts
(energy = -cut weight).  Because H is diagonal, exact answers come from
classical enumeration for small graphs -- which the tests exploit.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from ..paulis.pauli_sum import PauliSum

if TYPE_CHECKING:
    import networkx as nx


def maxcut_hamiltonian(graph: nx.Graph) -> PauliSum:
    """Cost Hamiltonian of a (possibly weighted) MaxCut instance.

    Args:
        graph: Undirected graph; edge attribute ``weight`` defaults to 1.
    """
    nodes = sorted(graph.nodes)
    index = {v: i for i, v in enumerate(nodes)}
    n = len(nodes)
    if n < 2 or graph.number_of_edges() == 0:
        raise ValueError("MaxCut needs at least one edge")
    terms = []
    constant = 0.0
    for u, v, data in graph.edges(data=True):
        weight = float(data.get("weight", 1.0))
        terms.append((0.5 * weight, {index[u]: "Z", index[v]: "Z"}))
        constant -= 0.5 * weight
    hamiltonian = PauliSum.from_sparse_terms(terms, n)
    return hamiltonian + PauliSum.from_sparse_terms([(constant, {})], n)


def cut_value(graph: nx.Graph, assignment: dict) -> float:
    """Weight of the cut induced by a +-1 / 0-1 node assignment."""
    total = 0.0
    for u, v, data in graph.edges(data=True):
        if bool(assignment[u]) != bool(assignment[v]):
            total += float(data.get("weight", 1.0))
    return total


def best_cut_bruteforce(graph: nx.Graph) -> float:
    """Exact maximum cut by enumeration (small graphs only)."""
    nodes = sorted(graph.nodes)
    if len(nodes) > 20:
        raise ValueError("brute force limited to 20 nodes")
    best = 0.0
    for mask in range(1 << (len(nodes) - 1)):  # fix node 0's side
        assignment = {v: (mask >> i) & 1 for i, v in enumerate(nodes[1:])}
        assignment[nodes[0]] = 0
        best = max(best, cut_value(graph, assignment))
    return best


def random_maxcut_instance(num_nodes: int, edge_probability: float,
                           rng: np.random.Generator,
                           weighted: bool = False) -> nx.Graph:
    """Erdos-Renyi MaxCut instance (optionally with uniform [0,1] weights)."""
    import networkx as nx

    graph = nx.erdos_renyi_graph(num_nodes, edge_probability,
                                 seed=int(rng.integers(0, 2 ** 31)))
    while graph.number_of_edges() == 0:
        graph = nx.erdos_renyi_graph(num_nodes, edge_probability,
                                     seed=int(rng.integers(0, 2 ** 31)))
    if weighted:
        for u, v in graph.edges:
            graph[u][v]["weight"] = float(rng.uniform(0.1, 1.0))
    return graph
