"""The Clapton problem transformation (Sec. 3.2).

A genome ``gamma`` decodes to a Clifford circuit ``C(gamma)``; the VQE
problem transforms by anticonjugation, ``H -> H(gamma) = C†(gamma) H C(gamma)``
(Eq. 5/6), with conjugation signs absorbed into the coefficients so the
transformed problem is again a plain weighted Pauli sum -- directly
implementable in the VQE framework, as the paper emphasizes.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from ..circuits.ansatz import (
    clapton_transformation_circuit,
    transformation_slots,
)
from ..circuits.circuit import Circuit
from ..obs.kernel import kernel_event
from ..paulis import bitops
from ..paulis.pauli_sum import PauliSum
from ..paulis.table import PauliTable
from ..stabilizer.tableau import (
    CliffordTableau,
    PairRing,
    gate_tableau,
    pull_back_rotation_layer,
    rotation_layer_cliffords,
)


def transformation_tableau(gamma, num_qubits: int,
                           entanglement: str = "circular") -> CliffordTableau:
    """Tableau of ``C†(gamma)`` (the anticonjugation direction)."""
    circuit = clapton_transformation_circuit(gamma, num_qubits, entanglement)
    return CliffordTableau.from_circuit(circuit.inverse())


@lru_cache(maxsize=64)
def _pair_ring(num_qubits: int, entanglement: str) -> PairRing:
    """The compiled two-qubit slots of ``C(gamma)``, in pull-back order.

    Compiled once per ``(n, entanglement)``: the slot layout of
    :func:`~repro.circuits.ansatz.transformation_slots` is the 2N
    first-layer genes (ry, rz per qubit), the ``ring.num_slots`` pair
    slots, then the 2N second-layer genes.
    """
    slots = transformation_slots(num_qubits, entanglement)
    pair_entries = [None,
                    (gate_tableau("cx"), False),
                    (gate_tableau("cx"), True),
                    (gate_tableau("swap"), False)]
    # the pull-back walks the ring last slot first
    return PairRing.compile(
        pair_entries,
        [qubits for kind, qubits, _ in reversed(slots) if kind == "pair"],
        num_qubits)


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
    :func:`~repro.stabilizer.tableau.rotation_layer_cliffords`), and the
    two-qubit slots run as one compiled
    :class:`~repro.stabilizer.tableau.PairRing`: each slot's gene picks
    its gate per genome (level 0 is the identity -- exactly the gates the
    decode of
    :func:`~repro.circuits.ansatz.clapton_transformation_circuit` never
    emits), and up to four adjacent chain slots share one per-plane
    window pass.  A transformation is ``len(ring.windows) + 2`` passes
    (6 at N = 12: the wrap pair and three chain windows).
    """
    gammas = np.asarray(gammas, dtype=np.int64)
    if gammas.ndim != 2:
        raise ValueError("gammas must be a (P, d) integer matrix")
    n = hamiltonian.num_qubits
    ring = _pair_ring(n, entanglement)
    last = 2 * n + ring.num_slots  # first gene of the second layer
    if gammas.shape[1] != last + 2 * n:
        raise ValueError(f"gamma must have length {last + 2 * n}, "
                         f"got {gammas.shape[1]}")
    if np.any((gammas < 0) | (gammas > 3)):
        raise ValueError("gamma entries must be in {0, 1, 2, 3}")

    # one aggregated kernel event per transformation (per-pass events
    # would multiply span counts for no insight)
    with kernel_event("kernel.fused_levels", passes=True):
        stacked = hamiltonian.table.tile(len(gammas))
        pull_back_rotation_layer(stacked, rotation_layer_cliffords(
            gammas[:, last::2], gammas[:, last + 1::2]))
        ring.apply(stacked, gammas[:, 2 * n:last][:, ::-1])
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


@lru_cache(maxsize=64)
def _embed_tables(positions: tuple, num_qubits: int) -> np.ndarray:
    """The compiled layout ``positions``: ``(ceil(n/8), 256, W)`` byte tables.

    Entry ``u`` of source byte ``c`` holds, on the ``num_qubits``-wide
    register's ``W`` words, the columns ``positions[8c + i]`` of ``u``'s
    set bits ``i`` (:func:`~repro.paulis.bitops.byte_tables`; the
    columns are distinct, so their XOR is their OR).  Compiled once per
    layout.
    """
    n = len(positions)
    if len(set(positions)) != n:
        raise ValueError("positions must be distinct")
    if any(q < 0 or q >= num_qubits for q in positions):
        raise ValueError(f"positions must lie in 0..{num_qubits - 1}")
    unit = np.zeros((n, num_qubits), dtype=bool)
    unit[np.arange(n), positions] = True
    # source bit 8c + i is unit row 8c + i, or the zero row n past the end
    rows = np.minimum(np.arange(8 * -(-n // 8)), n).reshape(-1, 8)
    tables = bitops.byte_tables(bitops.pack_bits(unit, num_qubits), rows)
    tables.flags.writeable = False  # shared by every call on this layout
    return tables


def embed_table(table: PauliTable, positions: list[int],
                num_qubits: int) -> PauliTable:
    """Scatter table columns onto a wider register (logical -> physical).

    Column ``q`` of ``table`` becomes column ``positions[q]`` of a
    ``num_qubits``-wide table; the phases are copied.  The layout is
    compiled once into Four-Russians byte tables (:func:`_embed_tables`),
    so each plane's words are one gather per source byte, ORed together,
    with nothing unpacked.  The trivial embedding (identity layout at
    equal width) is a plain copy -- the common case for untranspiled
    problems.

    Raises:
        ValueError: if ``positions`` does not hold one index per table
            column, repeats an index, or holds one outside
            ``0..num_qubits - 1``.
    """
    positions = tuple(int(q) for q in positions)
    if len(positions) != table.num_qubits:
        raise ValueError(f"positions must hold {table.num_qubits} indices, "
                         f"got {len(positions)}")
    if (num_qubits == table.num_qubits
            and positions == tuple(range(num_qubits))):
        return table.copy()
    tables = _embed_tables(positions, num_qubits)
    shape = (table.num_rows, bitops.num_words(num_qubits))
    planes = (np.zeros(shape, dtype=np.uint64),
              np.zeros(shape, dtype=np.uint64))
    for out, words in zip(planes, (table.x, table.z)):
        for table_c, bytes_c in zip(tables, bitops.word_bytes(words).T):
            out |= table_c.take(bytes_c, axis=0)
    return PauliTable(*planes, num_qubits, table.phase_exp)
