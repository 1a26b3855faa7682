"""Second quantization: fermionic operators and the Jordan-Wigner map.

The electronic Hamiltonian in a spin-orbital basis is

    H = E_core + sum_{PQ} h_PQ a†_P a_Q
        + 1/2 sum_{PQRS} <PQ|RS> a†_P a†_Q a_S a_R

Jordan-Wigner represents each ladder operator as a Pauli polynomial,

    a†_j = (X_j - i Y_j)/2 * Z_0 ... Z_{j-1}
    a_j  = (X_j + i Y_j)/2 * Z_0 ... Z_{j-1}

so products of ladder operators become complex-weighted Pauli sums.  The
intermediate algebra runs over a small complex Pauli polynomial type; the
final Hamiltonian is Hermitian, its imaginary parts cancel, and the result
is exported as a real :class:`~repro.paulis.pauli_sum.PauliSum`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..paulis.pauli_sum import PauliSum
from ..paulis.table import PauliTable

# i-exponent of the product of two single-qubit Paulis, indexed by the
# code x + 2z (I=0, X=1, Z=2, Y=3): sigma_a sigma_b = i^PHASE * sigma_{a^b}.
# Derived from: XY=iZ, YZ=iX, ZX=iY and cyclic/anti-cyclic counterparts.
_PHASE = np.zeros((4, 4), dtype=np.int64)
_PHASE[1, 3] = 1   # X*Y = iZ
_PHASE[3, 1] = 3   # Y*X = -iZ
_PHASE[3, 2] = 1   # Y*Z = iX
_PHASE[2, 3] = 3   # Z*Y = -iX
_PHASE[2, 1] = 1   # Z*X = iY
_PHASE[1, 2] = 3   # X*Z = -iY


class PauliPolynomial:
    """A complex-weighted sum of canonical Pauli strings (internal helper).

    Terms live in a dict keyed by the (x, z) bit patterns; coefficients are
    complex.  Only the handful of operations the JW pipeline needs are
    implemented: scalar init, addition in place, polynomial product.
    """

    __slots__ = ("num_qubits", "terms")

    def __init__(self, num_qubits: int):
        self.num_qubits = num_qubits
        self.terms: dict[tuple[bytes, bytes], complex] = {}

    @classmethod
    def scalar(cls, num_qubits: int, value: complex) -> "PauliPolynomial":
        poly = cls(num_qubits)
        zeros = np.zeros(num_qubits, dtype=bool)
        poly.add_term(value, zeros, zeros)
        return poly

    def add_term(self, coeff: complex, x: np.ndarray, z: np.ndarray) -> None:
        key = (x.tobytes(), z.tobytes())
        self.terms[key] = self.terms.get(key, 0.0) + coeff

    def add(self, other: "PauliPolynomial") -> None:
        for key, coeff in other.terms.items():
            self.terms[key] = self.terms.get(key, 0.0) + coeff

    def scaled(self, factor: complex) -> "PauliPolynomial":
        out = PauliPolynomial(self.num_qubits)
        out.terms = {k: v * factor for k, v in self.terms.items()}
        return out

    def product(self, other: "PauliPolynomial") -> "PauliPolynomial":
        out = PauliPolynomial(self.num_qubits)
        n = self.num_qubits
        for (xa_b, za_b), ca in self.terms.items():
            xa = np.frombuffer(xa_b, dtype=bool)
            za = np.frombuffer(za_b, dtype=bool)
            code_a = xa + 2 * za.astype(np.int64)
            for (xb_b, zb_b), cb in other.terms.items():
                xb = np.frombuffer(xb_b, dtype=bool)
                zb = np.frombuffer(zb_b, dtype=bool)
                code_b = xb + 2 * zb.astype(np.int64)
                exponent = int(_PHASE[code_a, code_b].sum()) % 4
                coeff = ca * cb * (1j) ** exponent
                out.add_term(coeff, xa ^ xb, za ^ zb)
        return out

    def to_pauli_sum(self, imag_tol: float = 1e-9) -> PauliSum:
        """Export as a real PauliSum; raises if imaginary parts survive."""
        xs, zs, coeffs = [], [], []
        for (x_b, z_b), coeff in self.terms.items():
            if abs(coeff) < 1e-12:
                continue
            if abs(coeff.imag) > imag_tol:
                raise ValueError("non-Hermitian operator: imaginary Pauli "
                                 f"coefficient {coeff}")
            xs.append(np.frombuffer(x_b, dtype=bool))
            zs.append(np.frombuffer(z_b, dtype=bool))
            coeffs.append(coeff.real)
        if not xs:
            zeros = np.zeros(self.num_qubits, dtype=bool)
            xs, zs, coeffs = [zeros], [zeros], [0.0]
        table = PauliTable.from_bits(np.stack(xs), np.stack(zs))
        return PauliSum(table, np.array(coeffs))


def jordan_wigner_ladder(index: int, num_modes: int, creation: bool
                         ) -> PauliPolynomial:
    """JW image of ``a†_index`` (creation) or ``a_index``."""
    if not 0 <= index < num_modes:
        raise ValueError("mode index out of range")
    poly = PauliPolynomial(num_modes)
    z_string = np.zeros(num_modes, dtype=bool)
    z_string[:index] = True
    x = np.zeros(num_modes, dtype=bool)
    x[index] = True
    # X_j with the Z string
    poly.add_term(0.5, x, z_string.copy())
    # -+ i/2 * Y_j with the Z string (Y has both x and z bits set)
    zy = z_string.copy()
    zy[index] = True
    poly.add_term(-0.5j if creation else 0.5j, x.copy(), zy)
    return poly


@dataclass
class FermionHamiltonian:
    """Spin-orbital electronic Hamiltonian (dense coefficient tensors).

    Attributes:
        core_energy: Scalar part (nuclear repulsion + frozen core).
        one_body: ``h[P, Q]`` coefficients of ``a†_P a_Q``.
        two_body: ``<PQ|RS>`` coefficients of ``1/2 a†_P a†_Q a_S a_R``
            (physicist notation, spin-orbital indices).
    """

    core_energy: float
    one_body: np.ndarray
    two_body: np.ndarray

    @property
    def num_modes(self) -> int:
        return self.one_body.shape[0]

    def to_qubits_jordan_wigner(self, threshold: float = 1e-10) -> PauliSum:
        """Map to a qubit Hamiltonian with Jordan-Wigner."""
        n = self.num_modes
        total = PauliPolynomial.scalar(n, complex(self.core_energy))
        create = [jordan_wigner_ladder(j, n, creation=True) for j in range(n)]
        annihilate = [jordan_wigner_ladder(j, n, creation=False)
                      for j in range(n)]
        for p in range(n):
            for q in range(n):
                coeff = self.one_body[p, q]
                if abs(coeff) < threshold:
                    continue
                total.add(create[p].product(annihilate[q]).scaled(coeff))
        right_cache: dict[tuple[int, int], PauliPolynomial] = {}
        for p in range(n):
            for q in range(n):
                if p == q:
                    continue
                left = None
                for s in range(n):
                    for r in range(n):
                        if s == r:
                            continue
                        coeff = 0.5 * self.two_body[p, q, r, s]
                        if abs(coeff) < threshold:
                            continue
                        if left is None:
                            left = create[p].product(create[q])
                        right = right_cache.get((s, r))
                        if right is None:
                            right = annihilate[s].product(annihilate[r])
                            right_cache[(s, r)] = right
                        total.add(left.product(right).scaled(coeff))
        return total.to_pauli_sum()
