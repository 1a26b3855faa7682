"""Coupling maps of the IBM devices used in the paper's evaluation.

The edge lists reproduce the published heavy-hex lattices: the 7-qubit
Falcon r5.11H layout (``nairobi``) and the 27-qubit Falcon layout shared by
``toronto``, ``mumbai`` and ``hanoi``.  Only the connectivity is hardware
data here; error rates come from :mod:`repro.backends.calibration`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import networkx as nx

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


def coupling_graph(edges: list[tuple[int, int]], num_qubits: int) -> nx.Graph:
    """Undirected coupling graph with every qubit present as a node."""
    import networkx as nx

    graph = nx.Graph()
    graph.add_nodes_from(range(num_qubits))
    graph.add_edges_from(edges)
    return graph


def line_topology(num_qubits: int) -> nx.Graph:
    """A simple chain -- used by the Fig. 7/8 sweeps after transpiling to a
    line of ``toronto`` and by the scaling study, where topology is not the
    object of interest."""
    return coupling_graph([(i, i + 1) for i in range(num_qubits - 1)],
                          num_qubits)
