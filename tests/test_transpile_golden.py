"""The transpiler against a networkx reference.

Routing, the layout fallback and the induced-subgraph check run on
:class:`repro.backends.CouplingGraph` searches that must visit nodes and
break ties exactly as the networkx calls they replaced: a weighted
``nx.shortest_path`` (bidirectional Dijkstra), ``nx.dfs_preorder_nodes``,
``nx.shortest_path_length`` and ``nx.is_connected``.  This file keeps a
copy of the networkx-based functions as the oracle, on networkx graphs
built from the devices' published edge lists, and compares whole
transpiles (instructions, layouts, SWAP counts, physical qubits) and
seeded routings instance by instance.
"""

import dataclasses
import random

import networkx as nx
import numpy as np
import pytest

from repro.backends import (
    ALL_BACKENDS,
    EDGES_27Q_FALCON,
    EDGES_7Q_FALCON,
    FakeLine,
    coupling_graph,
)
from repro.circuits import Circuit, hardware_efficient_ansatz
from repro.transpiler import route_circuit, transpile
from repro.transpiler.layout import path_score
from repro.transpiler.routing import RoutingResult, decompose_swaps
from repro.transpiler.transpile import TranspileResult

LINE_WIDTH = 12
#: device -> (factory, edge list, qubit count) as the devices are built
DEVICES = {
    **{name: (factory,
              EDGES_7Q_FALCON if name == "nairobi" else EDGES_27Q_FALCON,
              7 if name == "nairobi" else 27)
       for name, factory in ALL_BACKENDS.items()},
    f"line-{LINE_WIDTH}": (lambda: FakeLine(LINE_WIDTH),
                           [(i, i + 1) for i in range(LINE_WIDTH - 1)],
                           LINE_WIDTH),
}


# ----------------------------------------------------------------------
# The networkx reference: the transpiler as it was before CouplingGraph
# ----------------------------------------------------------------------
def nx_coupling_graph(edges, num_qubits):
    graph = nx.Graph()
    graph.add_nodes_from(range(num_qubits))
    graph.add_edges_from(edges)
    return graph


def ref_route_circuit(circuit, graph, initial_layout, edge_weight=None):
    placed = set(initial_layout.values())
    if len(placed) != len(initial_layout):
        raise ValueError("initial layout maps two logical qubits to one physical")
    for phys in placed:
        if phys not in graph:
            raise ValueError(f"physical qubit {phys} not in coupling graph")

    log_to_phys = dict(initial_layout)
    phys_to_log = {p: l for l, p in log_to_phys.items()}
    num_device_qubits = max(graph.nodes) + 1
    out = Circuit(num_device_qubits)

    def weight(a, b):
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
            path = nx.shortest_path(graph, pa, pb,
                                    weight=lambda u, v, d: weight(u, v))
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


def ref_find_line_layout(backend, length, max_nodes_expanded=200_000):
    if length == 1:
        readout = backend.calibration.readout_p01 + backend.calibration.readout_p10
        return [int(np.argmin(readout))]
    graph = backend.graph
    best_path = None
    best_score = float("inf")
    expanded = 0

    def dfs(path, used):
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
        raise ValueError(f"no simple path of length {length}")
    return best_path


def ref_find_chain_layout(backend, length):
    try:
        return ref_find_line_layout(backend, length)
    except ValueError:
        pass
    graph = backend.graph
    cal = backend.calibration
    best = None
    best_score = float("inf")
    for start in graph.nodes:
        order = list(nx.dfs_preorder_nodes(graph, source=start))[:length]
        if len(order) < length:
            continue
        score = sum(nx.shortest_path_length(graph, a, b)
                    for a, b in zip(order, order[1:]))
        score += float(np.sum(cal.readout_p01[order] + cal.readout_p10[order]) / 2)
        if score < best_score:
            best_score = score
            best = order
    if best is None:
        raise ValueError(f"cannot host {length} connected qubits")
    return best


def ref_transpile(circuit, backend, restrict_to_layout=True):
    layout = ref_find_chain_layout(backend, circuit.num_qubits)
    initial = {q: p for q, p in enumerate(layout)}
    weights = {k: float(v) for k, v in backend.calibration.error_2q.items()}
    graph = backend.graph
    if restrict_to_layout:
        induced = graph.subgraph(layout)
        if nx.is_connected(induced):
            graph = induced
    routed = ref_route_circuit(circuit, graph, initial, edge_weight=weights)
    physical_circuit = decompose_swaps(routed.circuit)
    used = sorted({q for inst in physical_circuit.instructions
                   for q in inst.qubits}
                  | set(routed.final_layout.values())
                  | set(initial.values()))
    compact_of = {phys: i for i, phys in enumerate(used)}
    compact = Circuit(len(used))
    for inst in physical_circuit.instructions:
        compact.append(inst.name, [compact_of[q] for q in inst.qubits],
                       inst.params)
    return TranspileResult(
        circuit=compact, physical_qubits=used,
        initial_layout={q: compact_of[p] for q, p in initial.items()},
        final_layout={q: compact_of[p]
                      for q, p in routed.final_layout.items()},
        backend=backend, num_swaps=routed.num_swaps)


# ----------------------------------------------------------------------
# Comparison helpers
# ----------------------------------------------------------------------
def instructions(circuit):
    return [(inst.name, tuple(inst.qubits), tuple(inst.params))
            for inst in circuit.instructions]


def device_pair(name):
    """The backend, and the same backend on its networkx reference graph."""
    factory, edges, num_qubits = DEVICES[name]
    backend = factory()
    reference = dataclasses.replace(
        backend, graph=nx_coupling_graph(edges, num_qubits))
    return backend, reference


def random_edge_lists():
    """Seeded graphs with many equal-cost paths: grids and sparse random
    connected graphs, edges shuffled and randomly oriented so neighbour
    order is not sorted."""
    rng = random.Random(2024)
    graphs = []
    for rows, cols in ((3, 4), (4, 4), (3, 6)):
        edges = [(r * cols + c, r * cols + c + 1)
                 for r in range(rows) for c in range(cols - 1)]
        edges += [(r * cols + c, (r + 1) * cols + c)
                  for r in range(rows - 1) for c in range(cols)]
        graphs.append((edges, rows * cols))
    for num_nodes in (8, 12, 16):
        order = list(range(num_nodes))
        rng.shuffle(order)
        edges = [(order[i], order[rng.randrange(i)])
                 for i in range(1, num_nodes)]
        while len(edges) < 3 * num_nodes // 2:
            a, b = rng.sample(range(num_nodes), 2)
            if (a, b) not in edges and (b, a) not in edges:
                edges.append((a, b))
        graphs.append((edges, num_nodes))
    for edges, _ in graphs:
        rng.shuffle(edges)
        edges[:] = [(b, a) if rng.random() < 0.5 else (a, b)
                    for a, b in edges]
    return graphs


def assert_same_routing(got, want):
    assert instructions(got.circuit) == instructions(want.circuit)
    assert got.circuit.num_qubits == want.circuit.num_qubits
    assert got.initial_layout == want.initial_layout
    assert got.final_layout == want.final_layout
    assert got.num_swaps == want.num_swaps


# ----------------------------------------------------------------------
# Tests
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", sorted(DEVICES))
def test_graph_matches_networkx_structure(name):
    backend, reference = device_pair(name)
    graph, ref = backend.graph, reference.graph
    assert list(graph.nodes) == list(ref.nodes)
    assert list(graph.edges) == list(ref.edges)
    assert graph.degree == dict(ref.degree)
    for node in ref.nodes:
        assert list(graph.neighbors(node)) == list(ref.neighbors(node))
        assert graph.hop_distances(node) == nx.single_source_shortest_path_length(ref, node)
        assert graph.dfs_preorder(node) == list(nx.dfs_preorder_nodes(ref, node))
    rng = random.Random(name)
    for _ in range(20):
        nodes = rng.sample(list(ref.nodes), rng.randint(1, len(ref)))
        sub, ref_sub = graph.subgraph(nodes), ref.subgraph(nodes)
        assert sorted(sub.nodes) == sorted(ref_sub.nodes)
        for node in sub.nodes:
            assert list(sub.neighbors(node)) == list(ref_sub.neighbors(node))
        assert sub.is_connected() == nx.is_connected(ref_sub)


@pytest.mark.parametrize("name", sorted(DEVICES))
def test_transpile_matches_networkx_reference(name):
    """Every width 2..min(n, 14), routed inside the layout and not."""
    backend, reference = device_pair(name)
    for width in range(2, min(backend.num_qubits, 14) + 1):
        ansatz = hardware_efficient_ansatz(width)
        for restrict in (True, False):
            got = transpile(ansatz, backend, restrict_to_layout=restrict)
            want = ref_transpile(ansatz, reference, restrict_to_layout=restrict)
            key = (width, restrict)
            assert instructions(got.circuit) == instructions(want.circuit), key
            assert got.physical_qubits == want.physical_qubits, key
            assert got.initial_layout == want.initial_layout, key
            assert got.final_layout == want.final_layout, key
            assert got.num_swaps == want.num_swaps, key


def test_nairobi_full_width_takes_the_dfs_fallback():
    """No simple path covers all 7 nairobi qubits, so the layout comes
    from the DFS-order fallback and the router bridges the gaps."""
    backend, reference = device_pair("nairobi")
    with pytest.raises(ValueError):
        ref_find_line_layout(reference, 7)
    got = transpile(hardware_efficient_ansatz(7), backend)
    want = ref_transpile(hardware_efficient_ansatz(7), reference)
    assert got.num_swaps == want.num_swaps > 0
    assert instructions(got.circuit) == instructions(want.circuit)
    assert got.final_layout == want.final_layout


@pytest.mark.parametrize("weighted", [False, True],
                         ids=["unit-hops", "calibration-weights"])
@pytest.mark.parametrize("name", sorted(DEVICES))
def test_route_scattered_layouts_matches_networkx(name, weighted):
    """Random 2-qubit circuits on random scattered placements: long SWAP
    paths with many equal-cost ties (all of them with unit hops)."""
    backend, reference = device_pair(name)
    weights = ({k: float(v) for k, v in backend.calibration.error_2q.items()}
               if weighted else None)
    rng = random.Random(f"{name}-{weighted}")
    for _ in range(12):
        width = rng.randint(2, min(backend.num_qubits, 10))
        circuit = Circuit(width)
        for _ in range(3 * width):
            a, b = rng.sample(range(width), 2)
            circuit.cx(a, b)
            circuit.h(rng.randrange(width))
        placement = rng.sample(range(backend.num_qubits), width)
        layout = dict(enumerate(placement))
        got = route_circuit(circuit, backend.graph, layout, edge_weight=weights)
        want = ref_route_circuit(circuit, reference.graph, layout,
                                 edge_weight=weights)
        assert_same_routing(got, want)


@pytest.mark.parametrize("weights", ["unit", "two-level", "random"])
@pytest.mark.parametrize("index", range(6))
def test_shortest_path_matches_networkx_on_tied_graphs(index, weights):
    """Every pair of a grid or random graph: unit hops tie almost
    everywhere, two-level weights tie often, random weights rarely."""
    edges, num_nodes = random_edge_lists()[index]
    graph = coupling_graph(edges, num_nodes)
    ref = nx_coupling_graph(edges, num_nodes)
    rng = random.Random(f"{index}-{weights}")
    cost = {tuple(sorted(e)): (1.0 if weights == "unit"
                               else float(rng.randint(1, 2))
                               if weights == "two-level" else rng.random())
            for e in edges}

    def weight(u, v):
        return cost[tuple(sorted((u, v)))]

    for source in range(num_nodes):
        for target in range(num_nodes):
            want = nx.shortest_path(ref, source, target,
                                    weight=lambda u, v, d: weight(u, v))
            assert graph.shortest_path(source, target, weight) == want, \
                (source, target)


@pytest.mark.parametrize("index", range(6))
def test_route_on_tied_graphs_matches_networkx(index):
    edges, num_nodes = random_edge_lists()[index]
    graph = coupling_graph(edges, num_nodes)
    ref = nx_coupling_graph(edges, num_nodes)
    rng = random.Random(index)
    for weighted in (False, True):
        weights = ({tuple(sorted(e)): rng.choice((0.01, 0.02)) for e in edges}
                   if weighted else None)
        for _ in range(8):
            width = rng.randint(2, min(num_nodes, 8))
            circuit = Circuit(width)
            for _ in range(3 * width):
                circuit.cx(*rng.sample(range(width), 2))
            layout = dict(enumerate(rng.sample(range(num_nodes), width)))
            assert_same_routing(
                route_circuit(circuit, graph, layout, edge_weight=weights),
                ref_route_circuit(circuit, ref, layout, edge_weight=weights))
