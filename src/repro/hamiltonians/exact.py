"""Exact ground-state energies via sparse diagonalization.

The paper's metric (Eq. 14) is defined against the exact ground energy E0,
"possible to compute ... exactly by diagonalizing the Hamiltonian" for the
<= 10-qubit benchmarks.  Pauli terms are assembled directly into a sparse
CSR matrix using their one-nonzero-per-column structure, so up to ~16 qubits
is comfortable.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    import scipy.sparse as sp


def pauli_to_sparse(pauli) -> sp.csr_matrix:
    """Sparse matrix of one Pauli string (2^n rows, one entry per column)."""
    import scipy.sparse as sp

    n = pauli.num_qubits
    dim = 1 << n
    xmask = 0
    zmask = 0
    for qubit in range(n):
        bit = 1 << (n - 1 - qubit)
        if pauli.x[qubit]:
            xmask |= bit
        if pauli.z[qubit]:
            zmask |= bit
    cols = np.arange(dim, dtype=np.int64)
    rows = cols ^ xmask
    phases = (-1.0) ** np.bitwise_count(cols.astype(np.uint64) & np.uint64(zmask))
    coeff = pauli.sign * (1j) ** int(np.count_nonzero(pauli.x & pauli.z))
    data = coeff * phases
    return sp.csr_matrix((data, (rows, cols)), shape=(dim, dim))


def pauli_sum_to_sparse(hamiltonian) -> sp.csr_matrix:
    """Sparse matrix of a whole :class:`~repro.paulis.pauli_sum.PauliSum`."""
    import scipy.sparse as sp

    dim = 1 << hamiltonian.num_qubits
    total = sp.csr_matrix((dim, dim), dtype=complex)
    for coeff, pauli in hamiltonian.terms():
        total = total + coeff * pauli_to_sparse(pauli)
    return total


def ground_state_energy(hamiltonian) -> float:
    """Smallest eigenvalue E0 of the Hamiltonian."""
    return _lowest_eigenpair(hamiltonian, vector=False)[0]


def ground_state(hamiltonian) -> tuple[float, np.ndarray]:
    """Ground energy (the bits of :func:`ground_state_energy`) and a
    complex ground-state vector."""
    value, vector = _lowest_eigenpair(hamiltonian, vector=True)
    return value, vector.astype(complex)


def _lowest_eigenpair(hamiltonian, vector: bool
                      ) -> tuple[float, np.ndarray | None]:
    """E0 and, with ``vector``, a ground-state vector: the one solve
    behind both public functions, so they return the same E0 bits.

    The matrix's real part is solved when it has no imaginary entries.
    Up to 64 rows E0 is LAPACK's ``eigvalsh`` of the dense matrix and
    the vector comes from ``eigh`` (another driver, whose eigenvalue can
    differ in the last bits); beyond that ARPACK runs from
    :func:`_start_vector`, and its eigenvalue has the same bits with or
    without the vector.
    """
    matrix = pauli_sum_to_sparse(hamiltonian)
    if _is_real(matrix):
        matrix = matrix.real
    dim = matrix.shape[0]
    if dim <= 64:
        dense = matrix.toarray()
        return (float(np.linalg.eigvalsh(dense)[0]),
                np.linalg.eigh(dense)[1][:, 0] if vector else None)
    import scipy.sparse.linalg as spla

    result = spla.eigsh(matrix, k=1, which="SA",
                        return_eigenvectors=vector,
                        v0=_start_vector(dim, matrix.dtype))
    if vector:
        return float(result[0][0]), result[1][:, 0]
    return float(result[0]), None


def _start_vector(dim: int, dtype) -> np.ndarray:
    """A fixed Lanczos start vector, so E0 is the same on every call.

    Left to itself ARPACK draws a fresh random start per call and the
    converged value moves in its last digits.  A seeded random vector is
    as generic as ARPACK's own (``ones`` can be orthogonal to a
    symmetric ground state)."""
    return np.random.default_rng(0).standard_normal(dim).astype(dtype)


def _is_real(matrix: sp.spmatrix) -> bool:
    return bool(np.abs(matrix.imag).max() < 1e-12) if matrix.nnz else True
