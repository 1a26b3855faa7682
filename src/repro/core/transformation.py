"""The Clapton problem transformation (Sec. 3.2).

A genome ``gamma`` decodes to a Clifford circuit ``C(gamma)``; the VQE
problem transforms by anticonjugation, ``H -> H(gamma) = C†(gamma) H C(gamma)``
(Eq. 5/6), with conjugation signs absorbed into the coefficients so the
transformed problem is again a plain weighted Pauli sum -- directly
implementable in the VQE framework, as the paper emphasizes.
"""

from __future__ import annotations

import numpy as np

from ..circuits.ansatz import (
    clapton_transformation_circuit,
    transformation_slots,
)
from ..circuits.circuit import Circuit
from ..obs.kernel import kernel_event
from ..paulis.pauli_sum import PauliSum
from ..paulis.table import PauliTable
from ..stabilizer.tableau import CliffordTableau


def transformation_tableau(gamma, num_qubits: int,
                           entanglement: str = "circular") -> CliffordTableau:
    """Tableau of ``C†(gamma)`` (the anticonjugation direction)."""
    circuit = clapton_transformation_circuit(gamma, num_qubits, entanglement)
    return CliffordTableau.from_circuit(circuit.inverse())


def transform_table(hamiltonian: PauliSum, gamma,
                    entanglement: str = "circular") -> PauliTable:
    """Anticonjugated term table of one genome (rows carry +-1 signs).

    A batch of one: row block 0 of :func:`transform_table_many`.
    """
    return transform_table_many(
        hamiltonian, np.asarray(gamma, dtype=np.int64)[None, :], entanglement)


def transform_table_many(hamiltonian: PauliSum, gammas,
                         entanglement: str = "circular") -> PauliTable:
    """Anticonjugated term tables of a whole genome population, stacked.

    One Hamiltonian table copy per genome is stacked into a
    ``(P*M, n)`` table (genome ``p`` owns rows ``[p*M, (p+1)*M)``) and
    pulled back through ``C(gamma)`` last gate first, so the result is
    ``C†(gamma) P C(gamma)`` for every row.  Each RY/RZ rotation layer of
    :func:`~repro.circuits.ansatz.transformation_slots` is ONE bit-sliced
    word pass over the stack
    (:func:`~repro.stabilizer.tableau.pull_back_rotation_layer`, every
    genome's own composed single-qubit Clifford on every qubit at once,
    :func:`~repro.stabilizer.tableau.rotation_layer_cliffords`), and each
    two-qubit slot is one leveled-LUT pass: the genome's gene at that slot
    is the row's level, and level 0 is the identity entry -- exactly the
    gates the decode of
    :func:`~repro.circuits.ansatz.clapton_transformation_circuit` never
    emits.  A transformation is ``len(pairs) + 2`` passes.
    """
    from ..stabilizer.tableau import (
        apply_gate_levels_to_table,
        gate_tableau,
        pull_back_rotation_layer,
        rotation_layer_cliffords,
    )

    gammas = np.asarray(gammas, dtype=np.int64)
    if gammas.ndim != 2:
        raise ValueError("gammas must be a (P, d) integer matrix")
    n = hamiltonian.num_qubits
    slots = transformation_slots(n, entanglement)
    if gammas.shape[1] != len(slots):
        raise ValueError(f"gamma must have length {len(slots)}, "
                         f"got {gammas.shape[1]}")
    if np.any((gammas < 0) | (gammas > 3)):
        raise ValueError("gamma entries must be in {0, 1, 2, 3}")

    num_terms = hamiltonian.table.num_rows
    # the slot layout: 2N first-layer genes (ry, rz per qubit), the pair
    # slots, then 2N second-layer genes
    last = len(slots) - 2 * n
    pair_entries = [None,
                    (gate_tableau("cx"), False),
                    (gate_tableau("cx"), True),
                    (gate_tableau("swap"), False)]
    # one aggregated kernel event per transformation (per-pass events
    # would multiply span counts for no insight)
    with kernel_event("kernel.fused_levels", passes=True):
        stacked = hamiltonian.table.tile(len(gammas))
        pull_back_rotation_layer(stacked, rotation_layer_cliffords(
            gammas[:, last::2], gammas[:, last + 1::2]))
        for _, qubits, gene in reversed(slots[2 * n:last]):
            apply_gate_levels_to_table(stacked, pair_entries, qubits,
                                       np.repeat(gammas[:, gene], num_terms))
        pull_back_rotation_layer(stacked, rotation_layer_cliffords(
            gammas[:, 0:2 * n:2], gammas[:, 1:2 * n:2]))
    return stacked


def transform_hamiltonian(hamiltonian: PauliSum, gamma,
                          entanglement: str = "circular") -> PauliSum:
    """The transformed problem ``H(gamma)`` as a canonical PauliSum."""
    return PauliSum(transform_table(hamiltonian, gamma, entanglement),
                    hamiltonian.coefficients.copy())


def untransform_state_circuit(gamma, num_qubits: int, vqe_circuit: Circuit,
                              entanglement: str = "circular") -> Circuit:
    """Circuit preparing the *original*-problem state from a post-Clapton one.

    Running VQE on ``H(gamma)`` produces ``|psi_hat> = A(theta)|0>``; the
    equivalent state for the original ``H`` is ``C(gamma)|psi_hat>``
    (Sec. 3.2), so the returned circuit is ``A(theta)`` followed by
    ``C(gamma)`` -- cheap to realize in experiment because ``C`` uses only
    1- and 2-qubit Clifford gates.
    """
    transform = clapton_transformation_circuit(gamma, num_qubits, entanglement)
    return vqe_circuit.compose(transform)


def embed_table(table: PauliTable, positions: list[int],
                num_qubits: int) -> PauliTable:
    """Scatter table columns onto a wider register (logical -> physical).

    The trivial embedding (identity layout at equal width) is a plain copy
    -- the common case for untranspiled problems, and free of any bit
    shuffling.
    """
    if (num_qubits == table.num_qubits
            and list(positions) == list(range(num_qubits))):
        return table.copy()
    x = np.zeros((table.num_rows, num_qubits), dtype=bool)
    z = np.zeros_like(x)
    x[:, list(positions)] = table.unpack_x()
    z[:, list(positions)] = table.unpack_z()
    return PauliTable.from_bits(x, z, table.phase_exp.copy())
