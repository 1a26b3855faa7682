"""Tests for the Clifford tableau engine and CHP simulator.

The load-bearing checks are property tests comparing every symplectic
operation against dense linear algebra on random Clifford circuits.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.circuits import Circuit, clapton_transformation_circuit, num_transformation_parameters
from repro.paulis import PauliString, PauliSum, PauliTable, random_pauli
from repro.stabilizer import (
    CliffordTableau,
    StabilizerSimulator,
    clifford_state_expectation,
    conjugate_pauli_sum,
    gate_tableau,
    tableau_from_unitary,
)

CLIFFORD_1Q = ["i", "x", "y", "z", "h", "s", "sdg", "sx", "sxdg"]
CLIFFORD_2Q = ["cx", "cz", "swap"]


def random_clifford_circuit(num_qubits: int, depth: int,
                            rng: np.random.Generator) -> Circuit:
    """Random Clifford circuit mixing named gates and Clifford rotations."""
    circ = Circuit(num_qubits)
    for _ in range(depth):
        choice = rng.integers(0, 3)
        if choice == 0 or num_qubits == 1:
            name = CLIFFORD_1Q[rng.integers(0, len(CLIFFORD_1Q))]
            circ.append(name, [rng.integers(0, num_qubits)])
        elif choice == 1:
            name = ["rx", "ry", "rz"][rng.integers(0, 3)]
            angle = rng.integers(0, 4) * math.pi / 2
            circ.append(name, [rng.integers(0, num_qubits)], [angle])
        else:
            a, b = rng.choice(num_qubits, size=2, replace=False)
            circ.append(CLIFFORD_2Q[rng.integers(0, 3)], [a, b])
    return circ


def dense_conjugate(circuit: Circuit, pauli: PauliString) -> np.ndarray:
    u = circuit.unitary()
    return u @ pauli.to_matrix() @ u.conj().T


class TestGateTableaus:
    def test_cx_conjugation_matches_eq3(self):
        t = gate_tableau("cx")
        # Eq. (3): Xc -> Xc Xt, Xt -> Xt, Zc -> Zc, Zt -> Zc Zt
        assert t.conjugate_pauli(PauliString.from_label("XI")).to_label() == "XX"
        assert t.conjugate_pauli(PauliString.from_label("IX")).to_label() == "IX"
        assert t.conjugate_pauli(PauliString.from_label("ZI")).to_label() == "ZI"
        assert t.conjugate_pauli(PauliString.from_label("IZ")).to_label() == "ZZ"

    def test_h_swaps_x_z(self):
        t = gate_tableau("h")
        assert t.conjugate_pauli(PauliString.from_label("X")).to_label() == "Z"
        assert t.conjugate_pauli(PauliString.from_label("Z")).to_label() == "X"
        assert t.conjugate_pauli(PauliString.from_label("Y")).to_label() == "-Y"

    def test_s_rotates_x_to_y(self):
        t = gate_tableau("s")
        assert t.conjugate_pauli(PauliString.from_label("X")).to_label() == "Y"
        assert t.conjugate_pauli(PauliString.from_label("Y")).to_label() == "-X"

    def test_non_clifford_rejected(self):
        with pytest.raises(ValueError):
            gate_tableau("ry", (0.3,))
        with pytest.raises(ValueError):
            tableau_from_unitary(np.array(
                [[1, 0], [0, np.exp(0.25j * math.pi)]], dtype=complex))

    @pytest.mark.parametrize("name", CLIFFORD_1Q + CLIFFORD_2Q)
    def test_all_named_gates_match_dense(self, name):
        t = gate_tableau(name)
        n = t.num_qubits
        circ = Circuit(n)
        circ.append(name, list(range(n)))
        rng = np.random.default_rng(42)
        for _ in range(8):
            p = random_pauli(n, rng)
            image = t.conjugate_pauli(p)
            np.testing.assert_allclose(image.to_matrix(),
                                       dense_conjugate(circ, p), atol=1e-10)


class TestCircuitTableaus:
    @given(st.integers(1, 4), st.integers(0, 25), st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_random_circuit_conjugation_matches_dense(self, n, depth, seed):
        rng = np.random.default_rng(seed)
        circ = random_clifford_circuit(n, depth, rng)
        tableau = CliffordTableau.from_circuit(circ)
        pauli = random_pauli(n, rng)
        image = tableau.conjugate_pauli(pauli)
        np.testing.assert_allclose(image.to_matrix(),
                                   dense_conjugate(circ, pauli), atol=1e-9)

    def test_identity_tableau(self):
        t = CliffordTableau.identity(3)
        p = PauliString.from_label("XYZ")
        assert t.conjugate_pauli(p) == p

    def test_then_composition(self):
        rng = np.random.default_rng(5)
        c1 = random_clifford_circuit(3, 10, rng)
        c2 = random_clifford_circuit(3, 10, rng)
        combined = CliffordTableau.from_circuit(c1.compose(c2))
        chained = CliffordTableau.from_circuit(c1).then(CliffordTableau.from_circuit(c2))
        assert combined == chained

    def test_inverse_circuit_gives_anticonjugation(self):
        rng = np.random.default_rng(8)
        circ = random_clifford_circuit(3, 12, rng)
        p = random_pauli(3, rng)
        forward = CliffordTableau.from_circuit(circ)
        backward = CliffordTableau.from_circuit(circ.inverse())
        assert backward.conjugate_pauli(forward.conjugate_pauli(p)) == p

    def test_batch_matches_single(self):
        rng = np.random.default_rng(11)
        circ = random_clifford_circuit(4, 15, rng)
        tableau = CliffordTableau.from_circuit(circ)
        paulis = [random_pauli(4, rng) for _ in range(20)]
        batch = tableau.conjugate_table(PauliTable.from_paulis(paulis))
        for i, p in enumerate(paulis):
            assert batch.row(i) == tableau.conjugate_pauli(p)

    def test_conjugation_preserves_commutation(self):
        rng = np.random.default_rng(13)
        circ = random_clifford_circuit(4, 20, rng)
        tableau = CliffordTableau.from_circuit(circ)
        for _ in range(10):
            a, b = random_pauli(4, rng), random_pauli(4, rng)
            assert (a.commutes_with(b)
                    == tableau.conjugate_pauli(a).commutes_with(tableau.conjugate_pauli(b)))

    def test_non_clifford_circuit_rejected(self):
        circ = Circuit(2)
        circ.ry(0.3, 0)
        with pytest.raises(ValueError):
            CliffordTableau.from_circuit(circ)


class TestConjugatePauliSum:
    def test_transformed_spectrum_unchanged(self):
        """Clifford conjugation is a similarity transform: eigenvalues equal."""
        rng = np.random.default_rng(3)
        h = PauliSum.from_terms([(1.0, "XXI"), (0.5, "ZZI"), (-0.3, "IYZ"),
                                 (0.8, "ZIZ")])
        circ = random_clifford_circuit(3, 15, rng)
        transformed = conjugate_pauli_sum(circ, h)
        ev_before = np.linalg.eigvalsh(h.to_matrix())
        ev_after = np.linalg.eigvalsh(transformed.to_matrix())
        np.testing.assert_allclose(ev_before, ev_after, atol=1e-9)

    def test_matches_dense_anticonjugation(self):
        rng = np.random.default_rng(4)
        h = PauliSum.from_terms([(0.7, "XY"), (0.2, "ZZ")])
        circ = random_clifford_circuit(2, 10, rng)
        u = circ.unitary()
        expected = u.conj().T @ h.to_matrix() @ u
        np.testing.assert_allclose(conjugate_pauli_sum(circ, h).to_matrix(),
                                   expected, atol=1e-9)


class TestStabilizerSimulator:
    @given(st.integers(1, 4), st.integers(0, 20), st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_statevector_matches_dense(self, n, depth, seed):
        rng = np.random.default_rng(seed)
        circ = random_clifford_circuit(n, depth, rng)
        sim = StabilizerSimulator(n)
        sim.apply_circuit(circ)
        zero = np.zeros(2 ** n, dtype=complex)
        zero[0] = 1.0
        expected = circ.unitary() @ zero
        got = sim.statevector()
        # compare up to global phase
        overlap = abs(np.vdot(expected, got))
        assert overlap == pytest.approx(1.0, abs=1e-8)

    @given(st.integers(1, 4), st.integers(0, 20), st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_expectation_matches_dense(self, n, depth, seed):
        rng = np.random.default_rng(seed)
        circ = random_clifford_circuit(n, depth, rng)
        sim = StabilizerSimulator(n)
        sim.apply_circuit(circ)
        zero = np.zeros(2 ** n, dtype=complex)
        zero[0] = 1.0
        state = circ.unitary() @ zero
        p = random_pauli(n, rng)
        expected = np.real(np.vdot(state, p.to_matrix() @ state))
        assert sim.expectation(p) == pytest.approx(expected, abs=1e-9)

    def test_bell_state_expectations(self):
        sim = StabilizerSimulator(2)
        sim.apply_gate("h", [0])
        sim.apply_gate("cx", [0, 1])
        assert sim.expectation(PauliString.from_label("XX")) == 1.0
        assert sim.expectation(PauliString.from_label("ZZ")) == 1.0
        assert sim.expectation(PauliString.from_label("YY")) == -1.0
        assert sim.expectation(PauliString.from_label("ZI")) == 0.0

    def test_deterministic_measurement(self):
        rng = np.random.default_rng(0)
        sim = StabilizerSimulator(2)
        sim.apply_gate("x", [1])
        assert sim.measure(0, rng) == 0
        assert sim.measure(1, rng) == 1

    def test_random_measurement_statistics(self):
        rng = np.random.default_rng(1)
        outcomes = []
        for _ in range(200):
            sim = StabilizerSimulator(1)
            sim.apply_gate("h", [0])
            outcomes.append(sim.measure(0, rng))
        mean = np.mean(outcomes)
        assert 0.35 < mean < 0.65

    def test_measurement_collapse_correlations(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            sim = StabilizerSimulator(2)
            sim.apply_gate("h", [0])
            sim.apply_gate("cx", [0, 1])
            a = sim.measure(0, rng)
            b = sim.measure(1, rng)
            assert a == b

    def test_apply_pauli_flips_expectation(self):
        sim = StabilizerSimulator(1)
        assert sim.expectation(PauliString.from_label("Z")) == 1.0
        sim.apply_pauli(PauliString.from_label("X"))
        assert sim.expectation(PauliString.from_label("Z")) == -1.0

    def test_expectation_sum(self):
        sim = StabilizerSimulator(2)
        sim.apply_gate("x", [0])
        h = PauliSum.from_terms([(1.0, "ZI"), (2.0, "IZ"), (3.0, "XX")])
        assert sim.expectation_sum(h) == pytest.approx(-1.0 + 2.0)


class TestSimulatorWordBoundaries:
    """The word-packed simulator tableau across the 64-qubit word edge."""

    @staticmethod
    def hamiltonian(circ, rng):
        """Random terms plus signed stabilizer images (non-zero values)."""
        n = circ.num_qubits
        stabilizers = CliffordTableau.from_circuit(circ).rows
        terms = [(rng.normal(), random_pauli(n, rng)) for _ in range(6)]
        terms += [(rng.normal(), stabilizers.row(n + int(k)))
                  for k in rng.choice(n, size=6, replace=False)]
        return PauliSum(PauliTable.from_paulis([p for _, p in terms]),
                        [c for c, _ in terms])

    @pytest.mark.parametrize("n", [63, 64, 65, 100])
    def test_expectation_sum_matches_conjugation(self, n):
        rng = np.random.default_rng(n)
        for _ in range(2):
            circ = random_clifford_circuit(n, 3 * n, rng)
            h = self.hamiltonian(circ, rng)
            sim = StabilizerSimulator(n)
            sim.apply_circuit(circ)
            per_term = CliffordTableau.from_circuit(
                circ.inverse()).conjugate_table(h.table).expectation_all_zeros()
            np.testing.assert_array_equal(
                [sim.expectation(p) for _, p in h.terms()], per_term)
            assert np.count_nonzero(per_term) >= 6
            assert sim.expectation_sum(h) == pytest.approx(
                clifford_state_expectation(circ, h), abs=1e-12)

    def test_measure_then_remeasure_is_idempotent(self):
        n = 65
        rng = np.random.default_rng(65)
        # H on every qubit, then diagonal gates: every Z outcome stays
        # random, so each measurement below takes the collapsing branch
        circ = Circuit(n)
        for q in range(n):
            circ.h(q)
        for _ in range(3 * n):
            a, b = rng.choice(n, size=2, replace=False)
            circ.append("cz", [int(a), int(b)])
            circ.append(["s", "z"][rng.integers(0, 2)], [int(a)])
        sim = StabilizerSimulator(n)
        sim.apply_circuit(circ)
        order = [64, 63, 0] + list(range(1, 63))
        outcomes = {}
        for q in order:
            z_q = PauliString.from_sparse({q: "Z"}, n)
            assert sim.expectation(z_q) == 0.0
            outcomes[q] = sim.measure(q, rng)
            assert sim.expectation(z_q) == (-1.0) ** outcomes[q]
        for q in order:
            assert sim.measure(q, rng) == outcomes[q]
        # a random circuit's collapse is idempotent too
        sim = StabilizerSimulator(n)
        sim.apply_circuit(random_clifford_circuit(n, 3 * n, rng))
        first = sim.measure_all(np.random.default_rng(1))
        np.testing.assert_array_equal(
            sim.measure_all(np.random.default_rng(2)), first)


class TestCliffordStateExpectation:
    @given(st.integers(2, 4), st.integers(0, 20), st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_matches_simulator(self, n, depth, seed):
        rng = np.random.default_rng(seed)
        circ = random_clifford_circuit(n, depth, rng)
        terms = [(rng.normal(), "".join(rng.choice(list("IXYZ"), size=n)))
                 for _ in range(5)]
        h = PauliSum.from_terms(terms)
        sim = StabilizerSimulator(n)
        sim.apply_circuit(circ)
        assert clifford_state_expectation(circ, h) == pytest.approx(
            sim.expectation_sum(h), abs=1e-9)

    def test_transformation_ansatz_expectation(self):
        rng = np.random.default_rng(9)
        n = 4
        gamma = rng.integers(0, 4, size=num_transformation_parameters(n))
        circ = clapton_transformation_circuit(gamma, n)
        h = PauliSum.from_terms([(1.0, "ZZII"), (0.5, "XXII"), (1.0, "IIZZ")])
        sim = StabilizerSimulator(n)
        sim.apply_circuit(circ)
        assert clifford_state_expectation(circ, h) == pytest.approx(
            sim.expectation_sum(h))


class TestMeasurementSemantics:
    def test_ghz_chain_measurements_agree(self):
        rng = np.random.default_rng(21)
        for _ in range(10):
            n = 5
            sim = StabilizerSimulator(n)
            sim.apply_gate("h", [0])
            for k in range(n - 1):
                sim.apply_gate("cx", [k, k + 1])
            outcomes = sim.measure_all(rng)
            assert len(set(outcomes.tolist())) == 1  # all zeros or all ones

    def test_measurement_is_idempotent(self):
        rng = np.random.default_rng(22)
        sim = StabilizerSimulator(3)
        sim.apply_gate("h", [0])
        sim.apply_gate("cx", [0, 1])
        first = sim.measure(0, rng)
        for _ in range(5):
            assert sim.measure(0, rng) == first

    def test_expectation_consistent_with_collapse(self):
        """After measuring qubit 0 of a Bell pair, <Z0> is deterministic."""
        rng = np.random.default_rng(23)
        sim = StabilizerSimulator(2)
        sim.apply_gate("h", [0])
        sim.apply_gate("cx", [0, 1])
        assert sim.expectation(PauliString.from_label("ZI")) == 0.0
        outcome = sim.measure(0, rng)
        expected = 1.0 if outcome == 0 else -1.0
        assert sim.expectation(PauliString.from_label("ZI")) == expected
        assert sim.expectation(PauliString.from_label("IZ")) == expected

    def test_reset_restores_zero_state(self):
        rng = np.random.default_rng(24)
        sim = StabilizerSimulator(2)
        sim.apply_gate("h", [0])
        sim.measure(0, rng)
        sim.reset()
        assert sim.expectation(PauliString.from_label("ZI")) == 1.0
        assert sim.expectation(PauliString.from_label("IZ")) == 1.0

    def test_x_basis_statistics(self):
        """Measuring |+> in Z gives ~50/50 over many fresh preparations."""
        rng = np.random.default_rng(25)
        ones = 0
        for _ in range(400):
            sim = StabilizerSimulator(1)
            sim.apply_gate("h", [0])
            ones += sim.measure(0, rng)
        assert 140 < ones < 260
