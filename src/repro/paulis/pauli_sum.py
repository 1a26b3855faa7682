"""Weighted sums of Pauli strings -- the Hamiltonians Clapton transforms.

A VQE Hamiltonian is ``H = sum_i c_i P_i`` (Eq. 6 of the paper) with real
coefficients ``c_i`` and canonical (sign-free) Pauli strings ``P_i``; signs
produced by Clifford conjugation are absorbed into the coefficients, which is
exactly what :meth:`PauliSum.canonicalize` implements.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from .pauli import PauliString
from .table import PauliTable


class PauliSum:
    """A real-weighted sum of Pauli strings on a fixed number of qubits.

    The terms are stored as a word-packed :class:`PauliTable` plus a
    coefficient vector.
    Construction canonicalizes: phases are folded into coefficients so every
    stored row has sign +1, and duplicate rows are merged.

    Args:
        table: Batch of Pauli strings (may carry +-1 signs; they are folded
            into the coefficients).
        coefficients: One real coefficient per table row.
    """

    __slots__ = ("table", "coefficients")

    def __init__(self, table: PauliTable, coefficients):
        coefficients = np.asarray(coefficients, dtype=float)
        if coefficients.shape != (table.num_rows,):
            raise ValueError("need exactly one coefficient per Pauli term")
        signs = table.signs()
        coefficients = coefficients * signs
        # canonical phases
        bare = PauliTable(table.x.copy(), table.z.copy(), table.num_qubits)
        self.table, self.coefficients = _merge_duplicates(bare, coefficients)

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_terms(cls, terms: Iterable[tuple[float, str]]) -> "PauliSum":
        """Build from ``(coefficient, label)`` pairs, e.g. ``(0.5, "XXI")``."""
        terms = list(terms)
        if not terms:
            raise ValueError("need at least one term")
        coeffs = [c for c, _ in terms]
        table = PauliTable.from_labels([lbl for _, lbl in terms])
        return cls(table, coeffs)

    @classmethod
    def from_sparse_terms(cls, terms: Iterable[tuple[float, dict]],
                          num_qubits: int) -> "PauliSum":
        """Build from ``(coefficient, {qubit: "X"|"Y"|"Z"})`` pairs."""
        terms = list(terms)
        paulis = [PauliString.from_sparse(f, num_qubits) for _, f in terms]
        return cls(PauliTable.from_paulis(paulis), [c for c, _ in terms])

    # ------------------------------------------------------------------
    # Properties
    # ------------------------------------------------------------------
    @property
    def num_qubits(self) -> int:
        return self.table.num_qubits

    @property
    def num_terms(self) -> int:
        return self.table.num_rows

    def terms(self) -> list[tuple[float, PauliString]]:
        return [(float(c), p) for c, p in zip(self.coefficients, self.table.to_paulis())]

    def identity_constant(self) -> float:
        """The coefficient of the identity term (0.0 if absent)."""
        return float(self.coefficients[self.table.weights() == 0].sum())

    def max_abs_coefficient(self) -> float:
        return float(np.abs(self.coefficients).max())

    # ------------------------------------------------------------------
    # Arithmetic
    # ------------------------------------------------------------------
    def __add__(self, other: "PauliSum") -> "PauliSum":
        if self.num_qubits != other.num_qubits:
            raise ValueError("qubit-count mismatch")
        x = np.vstack([self.table.x, other.table.x])
        z = np.vstack([self.table.z, other.table.z])
        coeffs = np.concatenate([self.coefficients, other.coefficients])
        return PauliSum(PauliTable(x, z, self.num_qubits), coeffs)

    def __mul__(self, scalar: float) -> "PauliSum":
        return PauliSum(self.table.copy(), self.coefficients * float(scalar))

    __rmul__ = __mul__

    def __neg__(self) -> "PauliSum":
        return self * -1.0

    def __sub__(self, other: "PauliSum") -> "PauliSum":
        return self + (-other)

    # ------------------------------------------------------------------
    # Evaluation helpers
    # ------------------------------------------------------------------
    def expectation_all_zeros(self) -> float:
        """``<0...0| H |0...0>`` -- Clapton's noiseless cost L0 (Eq. 10)."""
        return float(self.coefficients @ self.table.expectation_all_zeros())

    def mixed_state_energy(self) -> float:
        """``tr[H] / 2^n`` -- energy of the fully mixed state.

        Used by the paper (Fig. 5) as the upper normalization fixpoint;
        equals the identity-term coefficient because non-identity Paulis are
        traceless.
        """
        return self.identity_constant()

    def expectation_statevector(self, statevector: np.ndarray) -> float:
        """``<psi| H |psi>`` against a dense statevector (tests, small n)."""
        from ..densesim.statevector import pauli_sum_expectation

        return pauli_sum_expectation(self, statevector)

    def to_matrix(self) -> np.ndarray:
        """Dense ``2^n x 2^n`` matrix; only for small ``n``."""
        dim = 2 ** self.num_qubits
        out = np.zeros((dim, dim), dtype=complex)
        for c, p in self.terms():
            out += c * p.to_matrix()
        return out

    def to_sparse_matrix(self):
        """Sparse CSR matrix built term-by-term (used for exact E0)."""
        from ..hamiltonians.exact import pauli_sum_to_sparse

        return pauli_sum_to_sparse(self)

    def __repr__(self) -> str:
        return (f"PauliSum(num_qubits={self.num_qubits}, "
                f"num_terms={self.num_terms})")


def _coefficient_dots(values, coefficients: np.ndarray, num_points: int
                      ) -> np.ndarray:
    """``(P,)`` sums ``float(coefficients @ block)`` of ``P`` stacked
    ``M``-term blocks, bit for bit: the stacked matmul runs that same dot
    per block, where a plain ``(P, M) @ (M,)`` sums in another order."""
    blocks = np.reshape(values, (num_points, 1, len(coefficients)))
    return np.matmul(blocks, coefficients[:, None])[:, 0, 0]


def _merge_duplicates(table: PauliTable, coeffs: np.ndarray
                      ) -> tuple[PauliTable, np.ndarray]:
    """Merge identical rows (summing coefficients) and drop zero terms.

    Keeps first-seen order so Hamiltonians print deterministically.  Rows
    are keyed on their packed words, which identify the bits exactly.
    """
    if table.num_rows == 0:
        return table, coeffs
    keys = {}
    order = []
    merged = []
    for i in range(table.num_rows):
        key = (table.x[i].tobytes(), table.z[i].tobytes())
        if key in keys:
            merged[keys[key]] += coeffs[i]
        else:
            keys[key] = len(order)
            order.append(i)
            merged.append(float(coeffs[i]))
    merged = np.array(merged)
    keep = np.abs(merged) > 1e-12
    # Never drop everything: keep at least the first term even if zero, so
    # degenerate Hamiltonians (H = 0) remain representable.
    if not keep.any():
        keep[0] = True
    idx = np.array(order)[keep]
    return table.take(idx), merged[keep]
