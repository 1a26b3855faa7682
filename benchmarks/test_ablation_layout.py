"""Ablation: does the noise-aware layout search matter?

The transpiler scores candidate physical lines by accumulated two-qubit and
readout error (Sec. 5.2.2's noise-aware placement).  This bench compares the
chosen layout against the *worst* scoring line of the same length under the
full device model, holding the method (Clapton) fixed.
"""

import numpy as np
from conftest import print_banner, run_once

from repro.backends import FakeToronto
from repro.core import VQEProblem, clapton, evaluate_initial_point
from repro.hamiltonians import get_benchmark, ground_state_energy
from repro.transpiler.layout import path_score


def _worst_line(backend, length: int) -> list[int]:
    """Highest-error simple path (exhaustive over DFS enumeration)."""
    worst, worst_score = None, -1.0
    graph = backend.graph

    def dfs(path, used):
        nonlocal worst, worst_score
        if len(path) == length:
            score = path_score(backend, path)
            if score > worst_score:
                worst_score, worst = score, list(path)
            return
        for v in graph.neighbors(path[-1]):
            if v not in used:
                path.append(v)
                used.add(v)
                dfs(path, used)
                used.remove(v)
                path.pop()

    for start in graph.nodes:
        dfs([start], {start})
    return worst


def test_ablation_layout(benchmark, bench_config):
    hamiltonian = get_benchmark("ising_J1.00", 6).hamiltonian()
    backend = FakeToronto()
    e0 = ground_state_energy(hamiltonian)

    def experiment():
        out = {}
        best_problem = VQEProblem.from_backend(hamiltonian, backend)
        out["noise-aware"] = (best_problem.transpiled.physical_qubits,
                              evaluate_initial_point(
                                  clapton(best_problem, config=bench_config)))
        worst = _worst_line(backend, 6)
        worst_problem = VQEProblem.from_backend(hamiltonian, backend,
                                                layout=worst)
        out["worst-line"] = (worst_problem.transpiled.physical_qubits,
                             evaluate_initial_point(
                                 clapton(worst_problem, config=bench_config)))
        return out

    results = run_once(benchmark, experiment)
    print_banner(f"Ablation | layout choice | Ising J=1.00, 6q, toronto | "
                 f"E0={e0:.4f}")
    for name, (qubits, ev) in results.items():
        print(f"{name:<12} qubits={qubits}  device={ev.device_model:.4f}")
    assert (results["noise-aware"][1].device_model
            <= results["worst-line"][1].device_model + 1e-6)
