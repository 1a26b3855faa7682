"""Fermion-to-qubit mappings: parity transform and two-qubit reduction.

The paper maps molecular Hamiltonians "using the parity mapping with the
two-qubit reduction applied" (Sec. 5.1.2).  We obtain the parity mapping by
conjugating the Jordan-Wigner Hamiltonian with the CNOT-cascade Clifford
that turns occupation bits into prefix parities -- mathematically identical
to the Seeley-Richard-Love construction, and conveniently exercised through
this package's own tableau engine:

    |n_0, n_1, ..>  --cascade-->  |p_0, p_1, ..>,  p_j = n_0 ^ ... ^ n_j

Under spin-blocked ordering (all alpha modes, then all beta), qubit
``n/2 - 1`` then stores the total alpha parity and qubit ``n - 1`` the total
parity.  Both are conserved, every Hamiltonian term carries I or Z there,
and the two qubits can be replaced by their sector eigenvalues -- the
two-qubit reduction that brings the paper's molecules to 10 qubits.
"""

from __future__ import annotations

import numpy as np

from ..circuits.circuit import Circuit
from ..paulis.pauli_sum import PauliSum
from ..paulis.table import PauliTable
from ..stabilizer.tableau import CliffordTableau


def parity_cascade_circuit(num_modes: int) -> Circuit:
    """CNOT cascade computing prefix parities in place."""
    circ = Circuit(num_modes)
    for j in range(num_modes - 1):
        circ.cx(j, j + 1)
    return circ


def jw_to_parity(hamiltonian: PauliSum) -> PauliSum:
    """Convert a Jordan-Wigner Hamiltonian to the parity representation.

    If the cascade unitary is ``U`` (occupations -> parities), operators map
    as ``O -> U O U†``.
    """
    circuit = parity_cascade_circuit(hamiltonian.num_qubits)
    # conjugate_table computes C P C† for the tableau's circuit, so build
    # the tableau of U itself.
    tableau = CliffordTableau.from_circuit(circuit)
    table = tableau.conjugate_table(hamiltonian.table)
    return PauliSum(table, hamiltonian.coefficients.copy())


def taper_qubits(hamiltonian: PauliSum, qubits: list[int],
                 eigenvalues: list[int]) -> PauliSum:
    """Remove symmetry qubits, substituting their Z eigenvalues.

    Args:
        hamiltonian: Operator whose every term has I or Z on ``qubits``
            (guaranteed when the operator commutes with those Z's).
        qubits: Positions to remove.
        eigenvalues: ``+1`` or ``-1`` sector eigenvalue per removed qubit.

    Raises:
        ValueError: if a term acts with X or Y on a tapered qubit.
    """
    if len(qubits) != len(eigenvalues):
        raise ValueError("need one eigenvalue per tapered qubit")
    if any(e not in (-1, 1) for e in eigenvalues):
        raise ValueError("eigenvalues must be +-1")
    table = hamiltonian.table
    for q in qubits:
        if table.x_column(q).any():
            raise ValueError(
                f"qubit {q} carries X/Y components; not a Z symmetry")
    coeffs = hamiltonian.coefficients.copy()
    for q, e in zip(qubits, eigenvalues):
        coeffs = np.where(table.z_column(q), e * coeffs, coeffs)
    keep = [c for c in range(hamiltonian.num_qubits) if c not in set(qubits)]
    new_table = PauliTable.from_bits(table.unpack_x()[:, keep],
                                     table.unpack_z()[:, keep])
    return PauliSum(new_table, coeffs)


def parity_two_qubit_reduction(jw_hamiltonian: PauliSum, num_alpha: int,
                               num_beta: int) -> PauliSum:
    """Parity mapping plus the two-qubit reduction (spin-blocked modes).

    Args:
        jw_hamiltonian: Jordan-Wigner Hamiltonian with modes ordered as
            ``alpha_0 .. alpha_{m-1}, beta_0 .. beta_{m-1}``.
        num_alpha / num_beta: Electrons per spin sector (fix the parities).
    """
    n = jw_hamiltonian.num_qubits
    if n % 2:
        raise ValueError("spin-blocked register must have even width")
    parity = jw_to_parity(jw_hamiltonian)
    alpha_parity = (-1) ** num_alpha
    total_parity = (-1) ** (num_alpha + num_beta)
    return taper_qubits(parity, [n // 2 - 1, n - 1],
                        [alpha_parity, total_parity])
