"""Initial layout search: place the ansatz chain on good physical qubits.

The circular hardware-efficient ansatz is a nearest-neighbour chain plus one
wrap-around pair, so the natural layout is a simple path in the coupling
graph.  Heavy-hex lattices contain no length-10 cycles that would absorb the
wrap-around link, so the wrap CX is left to the router.

The search is a noise-aware depth-first enumeration: paths are scored by the
summed two-qubit error along their edges plus the readout error of their
qubits (the dominant costs for the theta = 0 skeleton), and the best-scoring
path wins.  A node budget keeps worst-case work bounded on larger graphs.
"""

from __future__ import annotations

import numpy as np

from ..backends.backend import Backend


def path_score(backend: Backend, path: list[int]) -> float:
    """Lower is better: accumulated 2q gate error + readout error."""
    cal = backend.calibration
    error = sum(cal.error_2q[tuple(sorted((a, b)))]
                for a, b in zip(path, path[1:]))
    error += float(np.sum(cal.readout_p01[path] + cal.readout_p10[path]) / 2)
    return error


def find_line_layout(backend: Backend, length: int,
                     max_nodes_expanded: int = 200_000) -> list[int]:
    """Best simple path of ``length`` qubits in the coupling graph.

    Raises:
        ValueError: if the graph has no simple path of that length.
    """
    if length < 1:
        raise ValueError("length must be >= 1")
    if length > backend.num_qubits:
        raise ValueError(
            f"cannot place {length} logical qubits on {backend.num_qubits}")
    if length == 1:
        readout = backend.calibration.readout_p01 + backend.calibration.readout_p10
        return [int(np.argmin(readout))]

    graph = backend.graph
    best_path: list[int] | None = None
    best_score = float("inf")
    expanded = 0

    def dfs(path: list[int], used: set[int]) -> None:
        nonlocal best_path, best_score, expanded
        if expanded >= max_nodes_expanded:
            return
        expanded += 1
        if len(path) == length:
            score = path_score(backend, path)
            if score < best_score:
                best_score = score
                best_path = list(path)
            return
        # visit lower-error edges first so early complete paths are good
        # ones even if the node budget cuts the search short
        neighbors = [v for v in graph.neighbors(path[-1]) if v not in used]
        neighbors.sort(key=lambda v: backend.calibration.error_2q[
            tuple(sorted((path[-1], v)))])
        for v in neighbors:
            path.append(v)
            used.add(v)
            dfs(path, used)
            used.remove(v)
            path.pop()

    for start in graph.nodes:
        dfs([start], {start})
    if best_path is None:
        raise ValueError(f"no simple path of length {length} in {backend.name}")
    return best_path


def trivial_layout(num_qubits: int) -> list[int]:
    """Identity placement (used when the topology is already a line)."""
    return list(range(num_qubits))


def find_chain_layout(backend: Backend, length: int) -> list[int]:
    """Line layout when one exists, DFS-order placement otherwise.

    Heavy-hex devices cannot always host a full-length simple path (nairobi
    has none of length 7), so the fallback orders a DFS traversal of the
    coupling graph and lets the router bridge the non-adjacent consecutive
    pairs with SWAPs -- the same thing Qiskit's layout+routing stack ends up
    doing for the paper's 7-qubit nairobi runs.
    """
    try:
        return find_line_layout(backend, length)
    except ValueError:
        pass
    graph = backend.graph
    cal = backend.calibration
    hops = {node: graph.hop_distances(node) for node in graph.nodes}
    best: list[int] | None = None
    best_score = float("inf")
    for start in graph.nodes:
        order = graph.dfs_preorder(start)[:length]
        if len(order) < length:
            continue
        score = sum(hops[a][b] for a, b in zip(order, order[1:]))
        score += float(np.sum(cal.readout_p01[order] + cal.readout_p10[order]) / 2)
        if score < best_score:
            best_score = score
            best = order
    if best is None:
        raise ValueError(
            f"backend {backend.name} cannot host {length} connected qubits")
    return best
