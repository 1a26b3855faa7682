"""Serial boolean-layout reference for the packed, batched Clifford path.

The program stores Pauli terms in word-packed tables only and conjugates
them population-stacked.  This module recomputes the same quantities the
slow, obvious way -- one genome at a time, gate by gate, on its own
:class:`BoolTable` of ``(M, n)`` bit matrices -- through lookup tables it
derives itself from the dense gate matrices (``U P U†`` matched against the
Pauli basis).  No function here calls the conjugation kernel under test
(``repro.stabilizer.tableau``, ``PauliTable`` arithmetic), so the
equivalence tests can demand ``np.array_equal`` against an oracle that
shares no LUT, batching, masking, leveling or word-packing code with it.
"""

from __future__ import annotations

import functools

import numpy as np

from repro.circuits.ansatz import (
    cafqa_angles,
    clapton_transformation_circuit,
    drop_identity_rotations,
    hardware_efficient_ansatz,
)
from repro.circuits.gates import get_gate
from repro.core import ClaptonLoss
from repro.noise.twirling import (
    pauli_channel_attenuation,
    twirled_relaxation_probabilities,
)
from repro.paulis import PauliString


class BoolTable:
    """M Pauli strings as ``(M, n)`` bool X/Z matrices plus phase exponents.

    The same ``(-i)**q Z^z X^x`` convention as the program's tables.
    """

    def __init__(self, x, z, phase_exp=None):
        self.x = np.array(x, dtype=bool)
        self.z = np.array(z, dtype=bool)
        if phase_exp is None:
            phase_exp = np.count_nonzero(self.x & self.z, axis=1)
        self.phase_exp = np.asarray(phase_exp, dtype=np.int64) % 4

    @classmethod
    def of(cls, table) -> "BoolTable":
        """An independent boolean copy of a program ``PauliTable``."""
        return cls(table.unpack_x(), table.unpack_z(),
                   table.phase_exp.copy())

    @property
    def num_rows(self) -> int:
        return self.x.shape[0]

    @property
    def num_qubits(self) -> int:
        return self.x.shape[1]

    def copy(self) -> "BoolTable":
        return BoolTable(self.x, self.z, self.phase_exp.copy())

    def extract(self, rows) -> "BoolTable":
        return BoolTable(self.x[rows], self.z[rows], self.phase_exp[rows])

    def scatter(self, rows, sub: "BoolTable") -> None:
        self.x[rows] = sub.x
        self.z[rows] = sub.z
        self.phase_exp[rows] = sub.phase_exp

    def mul_pauli_on_rows(self, mask, other: PauliString) -> None:
        """``row <- row * other`` for every masked row, one row at a time."""
        for i in np.flatnonzero(mask):
            extra = int(np.count_nonzero(self.x[i] & other.z))
            self.phase_exp[i] = (self.phase_exp[i] + other.phase_exp
                                 + 2 * extra) % 4
            self.x[i] ^= other.x
            self.z[i] ^= other.z


def assert_equal(table, expected: BoolTable) -> None:
    """A program ``PauliTable`` holds exactly ``expected``'s rows."""
    np.testing.assert_array_equal(table.unpack_x(), expected.x)
    np.testing.assert_array_equal(table.unpack_z(), expected.z)
    np.testing.assert_array_equal(table.phase_exp, expected.phase_exp)


def signs(table: BoolTable) -> np.ndarray:
    rel = (table.phase_exp - np.count_nonzero(table.x & table.z, axis=1)) % 4
    if np.any(rel % 2):
        raise ValueError("table contains rows with imaginary phase")
    return np.where(rel == 0, 1.0, -1.0)


def expectation_all_zeros(table: BoolTable) -> np.ndarray:
    """``<0|P_i|0>``: the row's sign when it is Z-type, else 0."""
    z_type = ~table.x.any(axis=1)
    out = np.zeros(table.num_rows)
    out[z_type] = signs(table.extract(z_type))
    return out


@functools.lru_cache(maxsize=None)
def gate_lut(name: str, params: tuple = ()) -> tuple:
    """``(lut_x, lut_z, lut_dq)`` of a registered gate, from its matrix.

    For every sub-Pauli code ``sum_j (x_j + 2 z_j) 4^j`` on the gate's k
    qubits, ``U P U†`` is expanded in the basis ``Z^z X^x`` (phase 0);
    its single non-zero coefficient ``(-i)**q`` gives the image's bits and
    phase increment ``q``.
    """
    unitary = get_gate(name).matrix(params)
    k = int(np.log2(unitary.shape[0]))
    size = 4 ** k
    bits = [(np.array([(c >> (2 * j)) & 1 for j in range(k)], dtype=bool),
             np.array([(c >> (2 * j + 1)) & 1 for j in range(k)], dtype=bool))
            for c in range(size)]
    basis = [PauliString(x, z, 0).to_matrix() for x, z in bits]
    phase_of = {1: 0, -1j: 1, -1: 2, 1j: 3}
    lut_x = np.zeros((size, k), dtype=bool)
    lut_z = np.zeros((size, k), dtype=bool)
    lut_dq = np.zeros(size, dtype=np.int64)
    for code, pauli in enumerate(basis):
        image = unitary @ pauli @ unitary.conj().T
        for target, candidate in enumerate(basis):
            coeff = np.trace(candidate.conj().T @ image) / unitary.shape[0]
            if abs(coeff) > 0.5:
                break
        else:
            raise ValueError(f"{name}{params} is not a Clifford gate")
        lut_x[code], lut_z[code] = bits[target]
        lut_dq[code] = phase_of[complex(np.round(coeff, 9))]
    return lut_x, lut_z, lut_dq


def clifford_gate_variants():
    """Every registered Clifford gate at every distinct Clifford parameter."""
    from repro.circuits.gates import GATES

    for name, spec in GATES.items():
        if spec.num_params == 0:
            yield name, ()
        else:
            for k in range(-4, 5):
                yield name, (k * np.pi / 2,)


def apply_gate(table: BoolTable, name: str, params, qubits) -> None:
    """In place, conjugate every row by one gate through its LUT."""
    lut_x, lut_z, lut_dq = gate_lut(name, tuple(float(p) for p in params))
    codes = sum((table.x[:, q] + 2 * table.z[:, q].astype(np.int64)) * 4 ** j
                for j, q in enumerate(qubits))
    for j, q in enumerate(qubits):
        table.x[:, q] = lut_x[codes, j]
        table.z[:, q] = lut_z[codes, j]
    table.phase_exp = (table.phase_exp + lut_dq[codes]) % 4


def apply_gate_masked(table: BoolTable, name: str, params, qubits,
                      rows) -> None:
    """Conjugate only the ``rows``-selected rows (extract, apply, scatter)."""
    sub = table.extract(rows)
    apply_gate(sub, name, params, qubits)
    table.scatter(rows, sub)


def push_forward(table: BoolTable, circuit) -> BoolTable:
    """``C P C†`` for every row: the gates of ``C`` in circuit order."""
    table = table.copy()
    for inst in circuit.instructions:
        apply_gate(table, inst.name, inst.params, inst.qubits)
    return table


def pull_back(table: BoolTable, circuit) -> BoolTable:
    """``C† P C`` for every row, through the gates of ``C``'s inverse."""
    return push_forward(table, circuit.inverse())


def tableau_rows(circuit) -> BoolTable:
    """The 2n generator images ``C X_k C†``, ``C Z_k C†`` of a circuit."""
    n = circuit.num_qubits
    eye = np.eye(n, dtype=bool)
    zero = np.zeros((n, n), dtype=bool)
    generators = BoolTable(np.vstack([eye, zero]), np.vstack([zero, eye]))
    return push_forward(generators, circuit)


def transform_table(hamiltonian, gamma, entanglement: str = "circular"
                    ) -> BoolTable:
    """One genome's anticonjugated term table, through its decoded circuit."""
    circuit = clapton_transformation_circuit(
        gamma, hamiltonian.num_qubits, entanglement)
    return pull_back(BoolTable.of(hamiltonian.table), circuit)


def embed_table(table: BoolTable, positions, num_qubits: int) -> BoolTable:
    """Scatter logical columns onto the evaluation register."""
    x = np.zeros((table.num_rows, num_qubits), dtype=bool)
    z = np.zeros_like(x)
    x[:, list(positions)] = table.x
    z[:, list(positions)] = table.z
    return BoolTable(x, z, table.phase_exp.copy())


def noisy_term_values(clifford_model, circuit, table: BoolTable
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
        apply_gate(table, inverse.name, inverse.params, inverse.qubits)
    return factors * expectation_all_zeros(table)


def clapton_components(loss, gamma) -> tuple[float, float]:
    """``(L_N, L_0)`` of one transformation genome."""
    problem = loss.problem
    coeffs = problem.hamiltonian.coefficients
    table = transform_table(problem.hamiltonian, gamma, problem.entanglement)
    noiseless = float(coeffs @ expectation_all_zeros(table))
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
    table = pull_back(BoolTable.of(problem.hamiltonian.table), logical)
    noiseless = float(problem.hamiltonian.coefficients
                      @ expectation_all_zeros(table))
    if not loss.noise_aware:
        return 0.0, noiseless
    mapped = problem.mapped_hamiltonian()
    noisy = float(mapped.coefficients @ noisy_term_values(
        loss.clifford_model, problem.bound_ansatz(theta),
        BoolTable.of(mapped.table)))
    return noisy, noiseless


def loss_value(loss, genome) -> float:
    """The scalar loss of one genome, as the loss object weighs it."""
    if isinstance(loss, ClaptonLoss):
        noisy, noiseless = clapton_components(loss, genome)
        return loss.noisy_weight * noisy + loss.noiseless_weight * noiseless
    noisy, noiseless = cafqa_components(loss, genome)
    return noisy + noiseless
