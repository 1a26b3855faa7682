"""Correctness check of one finished search, off the batched path.

The searches score genomes through the population-batched
``evaluate_many`` path behind the memo table.  The check re-scores the
reported best genome two independent ways:

1. the single-genome ``loss(genome)`` of a freshly built loss (from the
   method registry, not the object the search used) must equal the
   reported best loss exactly -- the program promises bit-identical
   values on both paths;
2. the noiseless term L_0 must match a gate-by-gate
   ``StabilizerSimulator`` run of the decoded Clifford circuit to 1e-9.
"""

from __future__ import annotations

import numpy as np

#: L_0 tolerance against the stabilizer simulator.
L0_TOLERANCE = 1e-9


def l0_reference(problem, method_name: str, genome) -> float:
    """``<0|C† H C|0>`` by simulating the decoded circuit ``C``."""
    from repro import StabilizerSimulator, clapton_transformation_circuit
    from repro.circuits.ansatz import cafqa_angles, hardware_efficient_ansatz

    n = problem.num_logical_qubits
    if method_name == "clapton":
        circuit = clapton_transformation_circuit(genome, n,
                                                 problem.entanglement)
    else:
        circuit = hardware_efficient_ansatz(n, problem.entanglement).bind(
            cafqa_angles(genome))
    simulator = StabilizerSimulator(n)
    simulator.apply_circuit(circuit)
    return simulator.expectation_sum(problem.hamiltonian)


def check_search(problem, method_name: str, genome, best_loss: float
                 ) -> str | None:
    """``None`` when the search's reported best loss checks out, else why."""
    from repro.methods import get_method

    genome = np.asarray(genome)
    loss = get_method(method_name).make_loss(problem)
    single = float(loss(genome))
    if single != best_loss:
        return (f"{method_name}: single-genome loss {single!r} != "
                f"reported best loss {best_loss!r}")
    noiseless = loss.components(genome)[1]
    reference = l0_reference(problem, method_name, genome)
    if abs(noiseless - reference) > L0_TOLERANCE:
        return (f"{method_name}: L_0 {noiseless!r} != stabilizer "
                f"simulator {reference!r}")
    return None
