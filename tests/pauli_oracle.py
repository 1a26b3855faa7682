"""Serial boolean-layout reference for the packed, batched Clifford path.

The program conjugates word-packed, population-stacked tables only.  This
module recomputes the same quantities the slow, obvious way -- one genome
at a time, gate by gate, on :class:`~repro.paulis.table.PauliTable` bit
matrices through the boolean LUT branch of
:func:`~repro.stabilizer.tableau.apply_gate_to_table` -- so the
equivalence tests can demand ``np.array_equal`` against an oracle that
shares no batching, masking, leveling or word-packing code with the path
under test.
"""

from __future__ import annotations

import numpy as np

from repro.circuits.ansatz import (
    cafqa_angles,
    clapton_transformation_circuit,
    drop_identity_rotations,
    hardware_efficient_ansatz,
)
from repro.core import ClaptonLoss
from repro.noise.twirling import (
    pauli_channel_attenuation,
    twirled_relaxation_probabilities,
)
from repro.paulis import PauliTable
from repro.stabilizer import CliffordTableau, apply_gate_to_table, gate_tableau


def apply_gate_masked(table: PauliTable, gate, qubits, rows) -> None:
    """In place, conjugate only the ``rows``-selected rows by ``gate``.

    Extracts the selected sub-table, runs the unmasked boolean kernel on
    it and scatters the rows back.
    """
    sub = PauliTable(table.x[rows], table.z[rows], table.phase_exp[rows])
    apply_gate_to_table(sub, gate, qubits)
    table.x[rows] = sub.x
    table.z[rows] = sub.z
    table.phase_exp[rows] = sub.phase_exp


def _gate(inst):
    return gate_tableau(inst.name, tuple(float(p) for p in inst.params))


def tableau_from_circuit(circuit) -> CliffordTableau:
    """A circuit's tableau, built gate by gate on the boolean layout."""
    tableau = CliffordTableau.identity(circuit.num_qubits)
    for inst in circuit.instructions:
        apply_gate_to_table(tableau.rows, _gate(inst), inst.qubits)
    return tableau


def pull_back(table: PauliTable, circuit) -> PauliTable:
    """``C† P C`` for every row, through the gates of ``C``'s inverse."""
    table = table.copy()
    for inst in circuit.inverse().instructions:
        apply_gate_to_table(table, _gate(inst), inst.qubits)
    return table


def transform_table(hamiltonian, gamma, entanglement: str = "circular"
                    ) -> PauliTable:
    """One genome's anticonjugated term table, through its decoded circuit."""
    circuit = clapton_transformation_circuit(
        gamma, hamiltonian.num_qubits, entanglement)
    return pull_back(hamiltonian.table, circuit)


def embed_table(table: PauliTable, positions, num_qubits: int) -> PauliTable:
    """Scatter logical columns onto the evaluation register."""
    x = np.zeros((table.num_rows, num_qubits), dtype=bool)
    z = np.zeros_like(x)
    x[:, list(positions)] = table.x
    z[:, list(positions)] = table.z
    return PauliTable(x, z, table.phase_exp.copy())


def noisy_term_values(clifford_model, circuit, table: PauliTable
                      ) -> np.ndarray:
    """The serial backward noise walk of ``circuit`` on a boolean table.

    Same attenuation rules as
    :class:`~repro.noise.clifford_model.CliffordNoiseModel` (readout and
    basis-prep factors up front, then per gate, last first: depolarizing,
    logical flips, twirled relaxation, and the inverse-gate conjugation),
    applied to every row of one genome's table.
    """
    nm = clifford_model.noise_model
    table = table.copy()
    support = table.x | table.z
    factors = np.prod(np.where(support, nm.readout_z_attenuation()[None, :],
                               1.0), axis=1)
    if clifford_model.include_basis_prep_error:
        prep = 1.0 - 4.0 * nm.depol_1q / 3.0
        factors = factors * np.prod(np.where(table.x, prep[None, :], 1.0),
                                    axis=1)
    by_code_flip = None
    if nm.logical_flip_probs is not None:
        flips = nm.logical_flip_probs
        f_i, f_x, f_y, f_z = pauli_channel_attenuation(
            np.array([1.0 - sum(flips), *flips]))
        by_code_flip = np.array([f_i, f_x, f_z, f_y])
    relax = clifford_model.include_twirled_relaxation and nm.t1 is not None
    for inst, inverse in zip(reversed(circuit.instructions),
                             circuit.inverse().instructions):
        qubits = list(inst.qubits)
        p = nm.gate_depol(inst)
        if p > 0:
            touched = (table.x[:, qubits] | table.z[:, qubits]).any(axis=1)
            factors[touched] *= ((1.0 - 4.0 * p / 3.0) if len(qubits) == 1
                                 else (1.0 - 16.0 * p / 15.0))
        codes = {q: table.x[:, q].astype(np.int64)
                 + 2 * table.z[:, q].astype(np.int64) for q in qubits}
        if by_code_flip is not None:
            for q in qubits:
                factors *= by_code_flip[codes[q]]
        if relax:
            for q in qubits:
                f_i, f_x, f_y, f_z = pauli_channel_attenuation(
                    twirled_relaxation_probabilities(
                        nm.gate_duration(inst), float(nm.t1[q]),
                        float(nm.t2[q])))
                factors *= np.array([f_i, f_x, f_z, f_y])[codes[q]]
        apply_gate_to_table(table, _gate(inverse), inverse.qubits)
    return factors * table.expectation_all_zeros()


def clapton_components(loss, gamma) -> tuple[float, float]:
    """``(L_N, L_0)`` of one transformation genome."""
    problem = loss.problem
    coeffs = problem.hamiltonian.coefficients
    table = transform_table(problem.hamiltonian, gamma, problem.entanglement)
    noiseless = float(coeffs @ table.expectation_all_zeros())
    eval_table = embed_table(table, problem.positions,
                             problem.num_eval_qubits)
    noisy = float(coeffs @ noisy_term_values(
        loss.clifford_model, problem.skeleton(), eval_table))
    return noisy, noiseless


def cafqa_components(loss, genome) -> tuple[float, float]:
    """``(L_N, L_0)`` of one CAFQA genome (L_N is 0 unless noise-aware)."""
    problem = loss.problem
    theta = cafqa_angles(genome)
    logical = drop_identity_rotations(hardware_efficient_ansatz(
        problem.num_logical_qubits, problem.entanglement).bind(theta))
    table = pull_back(problem.hamiltonian.table, logical)
    noiseless = float(problem.hamiltonian.coefficients
                      @ table.expectation_all_zeros())
    if not loss.noise_aware:
        return 0.0, noiseless
    mapped = problem.mapped_hamiltonian()
    noisy = float(mapped.coefficients @ noisy_term_values(
        loss.clifford_model, problem.bound_ansatz(theta), mapped.table))
    return noisy, noiseless


def loss_value(loss, genome) -> float:
    """The scalar loss of one genome, as the loss object weighs it."""
    if isinstance(loss, ClaptonLoss):
        noisy, noiseless = clapton_components(loss, genome)
        return loss.noisy_weight * noisy + loss.noiseless_weight * noiseless
    noisy, noiseless = cafqa_components(loss, genome)
    return noisy + noiseless
