"""Routing: make every two-qubit gate act on coupled physical qubits.

A greedy shortest-path router in the spirit of (a simplified) SABRE: walk
the circuit in order while tracking the logical-to-physical mapping; when a
two-qubit gate spans non-adjacent physical qubits, insert SWAPs along a
shortest path (preferring low-error edges via the backend's error weights)
until the pair is adjacent, updating the mapping as qubits move.

Works on *unbound* circuits -- rotation parameters ride along untouched --
so the VQE ansatz is routed once and bound per iteration, exactly like the
paper's flow (transpile first, then feed ``A'`` to Clapton, Sec. 5.2.2).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..backends.topologies import CouplingGraph
from ..circuits.circuit import Circuit


@dataclass
class RoutingResult:
    """Physical circuit plus the evolving qubit maps.

    Attributes:
        circuit: Circuit on the physical register (same width as the device
            graph; compaction happens in :func:`repro.transpiler.transpile`).
        initial_layout: logical qubit -> physical qubit before the circuit.
        final_layout: logical qubit -> physical qubit after the circuit
            (SWAPs move logical qubits; measurements use this map).
        num_swaps: SWAPs inserted.
    """

    circuit: Circuit
    initial_layout: dict[int, int]
    final_layout: dict[int, int]
    num_swaps: int


def route_circuit(circuit: Circuit, graph: CouplingGraph,
                  initial_layout: dict[int, int],
                  edge_weight: dict[tuple[int, int], float] | None = None
                  ) -> RoutingResult:
    """Insert SWAPs so every 2-qubit gate is on an edge of ``graph``.

    Args:
        circuit: Logical circuit (may contain symbolic parameters).
        graph: Physical coupling graph.  SWAP paths come from
            :meth:`CouplingGraph.shortest_path` (bidirectional Dijkstra),
            so among equal-cost paths the graph's neighbour order decides.
        initial_layout: Placement of each logical qubit.
        edge_weight: Optional per-edge cost used to pick among shortest
            paths (two-qubit error rates); unweighted hops when omitted.
    """
    placed = set(initial_layout.values())
    if len(placed) != len(initial_layout):
        raise ValueError("initial layout maps two logical qubits to one physical")
    for phys in placed:
        if phys not in graph:
            raise ValueError(f"physical qubit {phys} not in coupling graph")

    log_to_phys = dict(initial_layout)
    phys_to_log = {p: l for l, p in log_to_phys.items()}
    # width by max physical id: `graph` may be an induced subgraph whose
    # node ids are sparse (compaction happens in the transpile pipeline)
    num_device_qubits = max(graph.nodes) + 1
    out = Circuit(num_device_qubits)

    def weight(a: int, b: int) -> float:
        if edge_weight is None:
            return 1.0
        return 1.0 + edge_weight.get(tuple(sorted((a, b))), 0.0)

    num_swaps = 0
    for inst in circuit.instructions:
        if len(inst.qubits) == 1:
            out.append(inst.name, [log_to_phys[inst.qubits[0]]], inst.params)
            continue
        la, lb = inst.qubits
        pa, pb = log_to_phys[la], log_to_phys[lb]
        if not graph.has_edge(pa, pb):
            path = graph.shortest_path(pa, pb, weight)
            # swap the first qubit down the path until adjacent to pb
            for hop in path[1:-1]:
                out.swap(pa, hop)
                num_swaps += 1
                moved = phys_to_log.get(hop)
                phys_to_log[hop] = phys_to_log.pop(pa)
                if moved is not None:
                    phys_to_log[pa] = moved
                    log_to_phys[moved] = pa
                log_to_phys[phys_to_log[hop]] = hop
                pa = hop
        out.append(inst.name, [pa, pb], inst.params)
    return RoutingResult(circuit=out, initial_layout=dict(initial_layout),
                         final_layout=dict(log_to_phys), num_swaps=num_swaps)


def decompose_swaps(circuit: Circuit) -> Circuit:
    """Replace each SWAP with its 3-CX implementation (IBM native cost)."""
    out = Circuit(circuit.num_qubits)
    for inst in circuit.instructions:
        if inst.name == "swap":
            a, b = inst.qubits
            out.cx(a, b).cx(b, a).cx(a, b)
        else:
            out.instructions.append(inst)
    return out
