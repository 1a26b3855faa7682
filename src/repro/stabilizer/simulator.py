"""CHP-style stabilizer simulator (Aaronson-Gottesman).

This is the package's stand-in for stim's simulation core: it tracks a
stabilizer state as 2n phase-signed Pauli rows (n destabilizers, n
stabilizers) in one word-packed :class:`~repro.paulis.table.PauliTable`,
applies Clifford gates by conjugating all rows at once through the same
word-level LUT kernel as the losses, and supports Z-basis measurement and
exact Pauli expectation values.  Row operations are word operations:
commutation tests are popcounts of ``x & z'`` words, and row products are
word XORs with popcount phase tracking.

Expectation values are what Clapton's losses consume: for a stabilizer state
``|psi>`` and Pauli ``P``, ``<psi|P|psi>`` is 0 when ``P`` anticommutes with
any stabilizer generator and otherwise ``+-1``, with the sign recovered by
expressing ``P`` as a product of generators via the destabilizer pairing.
"""

from __future__ import annotations

import numpy as np

from ..circuits.circuit import Circuit
from ..paulis import bitops
from ..paulis.pauli import PauliString
from ..paulis.table import PauliTable
from .tableau import CliffordTableau, apply_gate_to_table, gate_tableau


class StabilizerSimulator:
    """A stabilizer state on ``num_qubits`` qubits, initially ``|0...0>``.

    Rows ``0..n-1`` of :attr:`rows` are destabilizers (initially ``X_k``),
    rows ``n..2n-1`` stabilizers (initially ``Z_k``).
    """

    def __init__(self, num_qubits: int):
        self.num_qubits = int(num_qubits)
        self.reset()

    def reset(self) -> None:
        self.rows = CliffordTableau.identity(self.num_qubits).rows

    # ------------------------------------------------------------------
    # Evolution
    # ------------------------------------------------------------------
    def apply_gate(self, name: str, qubits, params: tuple = ()) -> None:
        gate = gate_tableau(name, tuple(float(p) for p in params))
        apply_gate_to_table(self.rows, gate, tuple(qubits))

    def apply_circuit(self, circuit: Circuit) -> None:
        if circuit.num_qubits != self.num_qubits:
            raise ValueError("register size mismatch")
        for inst in circuit.instructions:
            self.apply_gate(inst.name, inst.qubits, inst.params)

    def apply_pauli(self, pauli: PauliString) -> None:
        """Apply a (stochastic-noise) Pauli: flips signs of anticommuting rows."""
        anti = self._anticommutes(slice(None), PauliTable.from_paulis([pauli]))
        self.rows.phase_exp = (self.rows.phase_exp + 2 * anti) % 4

    def _anticommutes(self, rows: slice, other: PauliTable) -> np.ndarray:
        """0/1 per selected row: does it anticommute with ``other``'s row?"""
        return (bitops.popcount_rows(self.rows.x[rows] & other.z)
                + bitops.popcount_rows(self.rows.z[rows] & other.x)) % 2

    def _stabilizer_product(self, which: np.ndarray) -> PauliTable:
        """One-row table: the product of the stabilizers paired with the
        destabilizer indices ``which``, multiplied in index order."""
        n = self.num_qubits
        acc = PauliTable.identity(1, n)
        row = np.ones(1, dtype=bool)
        for i in which:
            acc.mul_table_row_on_rows(row, self.rows, n + int(i))
        return acc

    # ------------------------------------------------------------------
    # Measurement
    # ------------------------------------------------------------------
    def measure(self, qubit: int, rng: np.random.Generator) -> int:
        """Measure ``qubit`` in the Z basis, collapsing the state."""
        n = self.num_qubits
        rows = self.rows
        x_col = rows.x_column(qubit)
        candidates = np.flatnonzero(x_col[n:])
        if candidates.size:
            p = int(candidates[0]) + n  # random outcome branch
            mask = x_col.copy()
            mask[p] = False
            rows.mul_pauli_on_rows(mask, rows.row(p))
            # destabilizer p-n becomes the old stabilizer; stabilizer p
            # becomes +-Z_qubit with a fair random sign.
            rows.x[p - n] = rows.x[p]
            rows.z[p - n] = rows.z[p]
            rows.phase_exp[p - n] = rows.phase_exp[p]
            outcome = int(rng.integers(0, 2))
            word, bit = divmod(qubit, bitops.WORD_BITS)
            rows.x[p] = 0
            rows.z[p] = 0
            rows.z[p, word] = np.uint64(1) << np.uint64(bit)
            rows.phase_exp[p] = 2 * outcome
            return outcome
        # Deterministic branch: Z_qubit is (up to sign) in the stabilizer
        # group; accumulate the product of stabilizers paired with the
        # destabilizers that anticommute with Z_qubit.
        sign = self._stabilizer_product(np.flatnonzero(x_col[:n])).signs()[0]
        return 0 if sign == 1 else 1

    def measure_all(self, rng: np.random.Generator) -> np.ndarray:
        return np.array([self.measure(q, rng) for q in range(self.num_qubits)])

    # ------------------------------------------------------------------
    # Expectation values
    # ------------------------------------------------------------------
    def expectation(self, pauli: PauliString) -> float:
        """Exact ``<psi|P|psi>`` (0 or +-1) without collapsing the state."""
        return self._expectation(PauliTable.from_paulis([pauli]))

    def _expectation(self, target: PauliTable) -> float:
        """:meth:`expectation` of a one-row table's Pauli."""
        n = self.num_qubits
        if self._anticommutes(slice(n, None), target).any():
            return 0.0
        acc = self._stabilizer_product(
            np.flatnonzero(self._anticommutes(slice(None, n), target)))
        # acc equals +-P; compare canonical signs and bodies.
        if not (np.array_equal(acc.x, target.x)
                and np.array_equal(acc.z, target.z)):
            raise AssertionError("destabilizer decomposition failed")
        return float(acc.signs()[0] * target.signs()[0])

    def expectation_sum(self, hamiltonian) -> float:
        """``<psi|H|psi>`` for a :class:`~repro.paulis.pauli_sum.PauliSum`."""
        table = hamiltonian.table
        total = 0.0
        for i, coeff in enumerate(hamiltonian.coefficients):
            total += float(coeff) * self._expectation(table.take(slice(i, i + 1)))
        return total

    def statevector(self) -> np.ndarray:
        """Dense statevector (tests only; exponential in n).

        Reconstructed by projecting ``|0...0>``-seeded random vector onto the
        stabilizer group's +1 eigenspace via the group projector
        ``prod_k (1 + S_k) / 2``.
        """
        n = self.num_qubits
        dim = 2 ** n
        projector = np.eye(dim, dtype=complex)
        for i in range(n):
            s = self.rows.row(n + i).to_matrix()
            projector = projector @ (np.eye(dim) + s) / 2
        # any column with non-zero norm is the state (rank-1 projector)
        for col in range(dim):
            vec = projector[:, col]
            norm = np.linalg.norm(vec)
            if norm > 1e-8:
                vec = vec / norm
                # fix global phase: make first non-zero amplitude real positive
                first = vec[np.flatnonzero(np.abs(vec) > 1e-10)[0]]
                return vec * (abs(first) / first)
        raise AssertionError("stabilizer projector has no support")


def clifford_state_expectation(circuit: Circuit, hamiltonian) -> float:
    """``<0|C† H C|0>`` for a Clifford circuit ``C`` -- one tableau pass.

    This is the noiseless path used by CAFQA's cost and Clapton's L0; it
    anticonjugates all Hamiltonian terms at once instead of simulating.
    """
    tableau = CliffordTableau.from_circuit(circuit.inverse())
    conjugated = tableau.conjugate_table(hamiltonian.table)
    return float(hamiltonian.coefficients @ conjugated.expectation_all_zeros())
