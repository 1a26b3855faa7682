"""Tests for noise models, Pauli twirling, and the Clifford L_N evaluator.

The central correctness property: for Pauli-channel-only noise, the
deterministic Clifford evaluator must agree *exactly* with full density-
matrix evolution, and statistically with stim-style Monte-Carlo sampling.
"""

import math

import numpy as np
import pytest

from repro.circuits import Circuit, ansatz_skeleton
from repro.densesim import channels, evolve_with_noise, noisy_energy
from repro.noise import (
    CliffordNoiseModel,
    NoiseModel,
    pauli_channel_attenuation,
    pauli_twirl_probabilities,
    sample_noisy_energy,
    twirled_relaxation_probabilities,
)
from repro.paulis import PauliSum


def clifford_circuit(n, depth, rng):
    circ = Circuit(n)
    names_1q = ["h", "s", "x", "sx"]
    for _ in range(depth):
        if rng.random() < 0.5 and n >= 2:
            a, b = rng.choice(n, size=2, replace=False)
            circ.append(["cx", "cz", "swap"][rng.integers(0, 3)], [a, b])
        else:
            circ.append(names_1q[rng.integers(0, 4)], [rng.integers(0, n)])
    return circ


def random_hamiltonian(n, m, rng):
    terms = []
    for _ in range(m):
        label = "".join(rng.choice(list("IXYZ"), size=n))
        terms.append((float(rng.normal()), label))
    return PauliSum.from_terms(terms)


class TestNoiseModel:
    def test_uniform_construction(self):
        nm = NoiseModel.uniform(3, depol_1q=1e-3, depol_2q=1e-2,
                                readout=0.02, t1=50e-6)
        np.testing.assert_allclose(nm.depol_1q, 1e-3)
        assert nm.two_qubit_depol(0, 2) == 1e-2
        np.testing.assert_allclose(nm.symmetric_readout_flip(), 0.02)
        np.testing.assert_allclose(nm.readout_z_attenuation(), 0.96)
        np.testing.assert_allclose(nm.t2, 50e-6)

    def test_pairwise_overrides(self):
        nm = NoiseModel(num_qubits=3, depol_1q=1e-3, depol_2q_default=1e-2,
                        depol_2q={(2, 0): 0.05})
        assert nm.two_qubit_depol(0, 2) == 0.05
        assert nm.two_qubit_depol(2, 0) == 0.05
        assert nm.two_qubit_depol(0, 1) == 1e-2

    def test_t2_clamped(self):
        nm = NoiseModel(num_qubits=1, depol_1q=0.0, depol_2q_default=0.0,
                        t1=np.array([10e-6]), t2=np.array([50e-6]))
        assert nm.t2[0] == pytest.approx(20e-6)

    def test_noiseless(self):
        nm = NoiseModel.noiseless(2)
        circ = Circuit(2)
        circ.cx(0, 1)
        assert nm.kraus_after(circ.instructions[0]) == []

    def test_kraus_after_includes_relaxation(self):
        nm = NoiseModel.uniform(2, depol_1q=1e-3, depol_2q=1e-2, t1=50e-6)
        circ = Circuit(2)
        circ.cx(0, 1)
        out = nm.kraus_after(circ.instructions[0])
        assert len(out) == 3  # 2q depol + relaxation on both qubits
        nm2 = nm.with_overrides(include_relaxation=False)
        assert len(nm2.kraus_after(circ.instructions[0])) == 1


class TestTwirling:
    def test_depolarizing_twirl_is_itself(self):
        p = 0.12
        probs = pauli_twirl_probabilities(channels.depolarizing_kraus(p))
        np.testing.assert_allclose(probs, [1 - p, p / 3, p / 3, p / 3],
                                   atol=1e-12)

    def test_amplitude_damping_twirl_closed_form(self):
        gamma = 0.3
        probs = pauli_twirl_probabilities(channels.amplitude_damping_kraus(gamma))
        root = math.sqrt(1 - gamma)
        expected = [((1 + root) / 2) ** 2, gamma / 4, gamma / 4,
                    ((1 - root) / 2) ** 2]
        np.testing.assert_allclose(probs, expected, atol=1e-12)

    def test_twirled_relaxation_probabilities_sum_to_one(self):
        probs = twirled_relaxation_probabilities(1e-7, 5e-5, 7e-5)
        assert probs.sum() == pytest.approx(1.0)
        assert (probs >= 0).all()

    def test_attenuation_factors(self):
        p = 0.3
        probs = np.array([1 - p, p / 3, p / 3, p / 3])
        att = pauli_channel_attenuation(probs)
        np.testing.assert_allclose(att, [1.0] + [1 - 4 * p / 3] * 3, atol=1e-12)

    def test_twirl_matches_dense_channel_on_diagonal_observables(self):
        """Twirled channel and original channel agree on Pauli expectation
        *attenuation* when the input state is a Pauli eigenstate mixture."""
        gamma = 0.25
        probs = pauli_twirl_probabilities(channels.amplitude_damping_kraus(gamma))
        att_z = pauli_channel_attenuation(probs)[3]
        # twirled channel scales <Z>; original channel maps <Z> -> gamma + (1-gamma)<Z>
        # the attenuation (linear part) must match: 1 - gamma ... twirl gives
        # 1 - 2*(p_x + p_y) = 1 - gamma
        assert att_z == pytest.approx(1 - gamma)


class TestCliffordNoiseModel:
    def test_noiseless_reduces_to_exact(self):
        rng = np.random.default_rng(0)
        n = 3
        circ = clifford_circuit(n, 12, rng)
        h = random_hamiltonian(n, 8, rng)
        nm = NoiseModel.noiseless(n)
        model = CliffordNoiseModel(nm)
        from repro.stabilizer import clifford_state_expectation

        assert model.noisy_zero_state_energy(circ, h) == pytest.approx(
            clifford_state_expectation(circ, h), abs=1e-9)

    @pytest.mark.parametrize("seed", [1, 2, 3, 4])
    def test_matches_density_matrix_exactly(self, seed):
        """Pauli-channel-only noise: analytic attenuation == exact evolution."""
        rng = np.random.default_rng(seed)
        n = 3
        circ = clifford_circuit(n, 10, rng)
        h = random_hamiltonian(n, 10, rng)
        nm = NoiseModel.uniform(n, depol_1q=0.02, depol_2q=0.05,
                                readout=0.03, t1=None)
        model = CliffordNoiseModel(nm)
        analytic = model.noisy_zero_state_energy(circ, h)
        dense = noisy_energy(circ, h, nm)
        assert analytic == pytest.approx(dense, abs=1e-9)

    def test_matches_density_matrix_asymmetric_readout(self):
        rng = np.random.default_rng(9)
        n = 2
        circ = clifford_circuit(n, 8, rng)
        h = random_hamiltonian(n, 6, rng)
        nm = NoiseModel(num_qubits=n, depol_1q=0.01, depol_2q_default=0.03,
                        readout_p01=np.array([0.02, 0.05]),
                        readout_p10=np.array([0.04, 0.01]), t1=None)
        analytic = CliffordNoiseModel(nm).noisy_zero_state_energy(circ, h)
        dense = noisy_energy(circ, h, nm)
        assert analytic == pytest.approx(dense, abs=1e-9)

    def test_sampling_agrees_statistically(self):
        rng = np.random.default_rng(11)
        n = 3
        circ = ansatz_skeleton(n)
        h = PauliSum.from_terms([(1.0, "ZZI"), (0.7, "IZZ"), (0.5, "XXI"),
                                 (0.3, "ZIZ")])
        nm = NoiseModel.uniform(n, depol_1q=0.05, depol_2q=0.1,
                                readout=0.02, t1=None)
        model = CliffordNoiseModel(nm)
        analytic = model.noisy_zero_state_energy(circ, h)
        sampled = sample_noisy_energy(circ, h, nm, shots=3000, rng=rng)
        assert sampled == pytest.approx(analytic, abs=0.05)

    def test_attenuation_lowers_magnitude(self):
        """Noise can only shrink each term's contribution at theta = 0."""
        n = 4
        circ = ansatz_skeleton(n)
        h = PauliSum.from_terms([(1.0, "ZZZZ")])
        noisy_values = []
        for p in [0.0, 0.01, 0.05, 0.1]:
            nm = NoiseModel.uniform(n, depol_1q=p, depol_2q=10 * p,
                                    readout=0.0, t1=None)
            noisy_values.append(
                CliffordNoiseModel(nm).noisy_zero_state_energy(circ, h))
        assert noisy_values[0] == pytest.approx(1.0)
        assert all(a > b for a, b in zip(noisy_values, noisy_values[1:]))

    def test_twirled_relaxation_prefers_ground_state(self):
        """With twirled relaxation on, <Z> of an excited qubit is damped
        toward the decayed value and the evaluator runs."""
        n = 2
        circ = Circuit(n)
        circ.x(0)
        h = PauliSum.from_terms([(1.0, "ZI")])
        nm = NoiseModel.uniform(n, depol_1q=0.0, depol_2q=0.0, readout=0.0,
                                t1=50e-6, t2=50e-6)
        model = CliffordNoiseModel(nm, include_twirled_relaxation=True)
        value = model.noisy_zero_state_energy(circ, h)
        gamma = 1 - math.exp(-nm.gate_time_1q / 50e-6)
        assert value == pytest.approx(-(1 - gamma), rel=1e-6)

    def test_basis_prep_error_toggle(self):
        n = 2
        circ = Circuit(n)
        h = PauliSum.from_terms([(1.0, "XX")])
        nm = NoiseModel.uniform(n, depol_1q=0.03, depol_2q=0.0, readout=0.0,
                                t1=None)
        with_prep = CliffordNoiseModel(nm, include_basis_prep_error=True)
        without = CliffordNoiseModel(nm, include_basis_prep_error=False)
        # empty circuit: X measurement on |0> gives 0 either way; use factors
        f_with = with_prep.measurement_attenuations(h.table)
        f_without = without.measurement_attenuations(h.table)
        assert f_with[0] == pytest.approx((1 - 0.04) ** 2)
        assert f_without[0] == pytest.approx(1.0)


class TestFullModelEvaluator:
    def test_relaxation_breaks_clifford_model(self):
        """Amplitude damping (non-Pauli) must create a model-device gap for
        excited states -- the effect Clapton exploits."""
        n = 2
        circ = Circuit(n)
        circ.x(0).x(1)
        h = PauliSum.from_terms([(1.0, "ZZ")])
        nm = NoiseModel.uniform(n, depol_1q=0.0, depol_2q=0.0, readout=0.0,
                                t1=20e-6)
        clifford = CliffordNoiseModel(nm).noisy_zero_state_energy(circ, h)
        full = noisy_energy(circ, h, nm)
        assert clifford == pytest.approx(1.0)  # Clifford model: no decay
        assert full < 1.0  # device model: both qubits decay

    def test_measurement_attenuations_shared_with_clifford_model(self):
        """One implementation, pinned byte for byte: per term, the readout
        factor of each support qubit and then the basis-prep factor of
        each X/Y qubit, each product qubit by qubit in ascending order."""
        for n in (3, 10, 70):
            rng = np.random.default_rng(4 + n)
            h = random_hamiltonian(n, 12, rng)
            nm = NoiseModel(num_qubits=n, depol_1q=rng.uniform(0, 0.01, n),
                            depol_2q_default=2e-2,
                            readout_p01=rng.uniform(0, 0.05, n),
                            readout_p10=rng.uniform(0, 0.05, n))
            readout = nm.readout_z_attenuation()
            prep = 1.0 - 4.0 * nm.depol_1q / 3.0
            with_prep, without_prep = [], []
            for pauli in h.table.to_paulis():
                factor = 1.0
                for q in range(n):
                    if pauli.x[q] or pauli.z[q]:
                        factor *= readout[q]
                without_prep.append(factor)
                basis = 1.0
                for q in range(n):
                    if pauli.x[q]:
                        basis *= prep[q]
                with_prep.append(factor * basis)
            for include_prep, expected in ((True, with_prep),
                                           (False, without_prep)):
                got = nm.measurement_attenuations(h.table, include_prep)
                assert got.tobytes() == np.array(expected).tobytes()
                clifford = CliffordNoiseModel(
                    nm, include_basis_prep_error=include_prep)
                assert clifford.measurement_attenuations(
                    h.table).tobytes() == got.tobytes()

    def test_evolve_register_check(self):
        nm = NoiseModel.uniform(2, depol_1q=0.0, depol_2q=0.0)
        with pytest.raises(ValueError):
            evolve_with_noise(Circuit(3), nm)


class TestClosedFormChannels:
    """The closed-form channel applications must match their Kraus sets."""

    @pytest.mark.parametrize("num_qubits,qubits", [(1, (0,)), (3, (1,)),
                                                   (2, (0, 1)), (3, (2, 0))])
    def test_depolarizing_closed_form(self, num_qubits, qubits):
        from repro.densesim import DensityMatrixSimulator

        rng = np.random.default_rng(0)
        circ = clifford_circuit(num_qubits, 6, rng)
        a = DensityMatrixSimulator(num_qubits)
        b = DensityMatrixSimulator(num_qubits)
        a.apply_circuit(circ)
        b.apply_circuit(circ)
        p = 0.07
        a.apply_kraus(channels.depolarizing_kraus(p, len(qubits)), qubits)
        b.apply_depolarizing(p, qubits)
        np.testing.assert_allclose(a.rho, b.rho, atol=1e-12)

    def test_relaxation_closed_form(self):
        from repro.densesim import DensityMatrixSimulator

        rng = np.random.default_rng(1)
        for qubit in range(3):
            circ = clifford_circuit(3, 8, rng)
            a = DensityMatrixSimulator(3)
            b = DensityMatrixSimulator(3)
            a.apply_circuit(circ)
            b.apply_circuit(circ)
            duration, t1, t2 = 3e-7, 5e-5, 6e-5
            a.apply_kraus(channels.thermal_relaxation_kraus(duration, t1, t2),
                          (qubit,))
            gamma = 1 - math.exp(-duration / t1)
            eta = math.exp(-duration / t2)
            b.apply_relaxation(gamma, eta, qubit)
            np.testing.assert_allclose(a.rho, b.rho, atol=1e-12)

    def test_channel_spec_kraus_roundtrip(self):
        """ChannelSpec.kraus_operators must be trace preserving."""
        from repro.noise.model import ChannelSpec

        for spec in [ChannelSpec("depol", (0, 1), (0.03,)),
                     ChannelSpec("relax", (0,), (0.02, 0.97)),
                     ChannelSpec("unitary_zz", (0, 1), (0.05,))]:
            channels.validate_kraus(spec.kraus_operators())


class TestIdleRelaxation:
    def test_idle_qubit_decays(self):
        """With idle scheduling on, a spectator excited qubit decays while
        a long gate sequence runs elsewhere."""
        from repro.densesim import evolve_with_noise
        from repro.paulis import PauliSum

        n = 3
        circ = Circuit(n)
        circ.x(2)                    # excite the spectator
        for _ in range(30):
            circ.cx(0, 1)            # busy work on the other qubits
        nm = NoiseModel.uniform(n, depol_1q=0.0, depol_2q=0.0, readout=0.0,
                                t1=20e-6)
        h = PauliSum.from_terms([(1.0, "IIZ")])
        off = evolve_with_noise(circ, nm).expectation_sum(h)
        on = evolve_with_noise(
            circ, nm.with_overrides(include_idle_relaxation=True)
        ).expectation_sum(h)
        # without idle modeling the spectator only decays during its own X
        # gate; with it, it decays for the whole CX sequence
        assert on > off  # Z expectation decays from -1 toward +1
        assert on - off > 0.05

    def test_flag_off_reproduces_previous_behaviour(self):
        from repro.densesim import evolve_with_noise

        rng = np.random.default_rng(0)
        circ = clifford_circuit(3, 10, rng)
        nm = NoiseModel.uniform(3, depol_1q=1e-3, depol_2q=1e-2,
                                readout=0.01, t1=60e-6)
        a = evolve_with_noise(circ, nm).rho
        b = evolve_with_noise(
            circ, nm.with_overrides(include_idle_relaxation=False)).rho
        np.testing.assert_allclose(a, b, atol=1e-15)

    def test_relaxation_spec_none_cases(self):
        nm = NoiseModel.uniform(2, depol_1q=0.0, depol_2q=0.0, t1=50e-6)
        assert nm.relaxation_spec(0, 0.0) is None
        assert nm.relaxation_spec(0, -1.0) is None
        spec = nm.relaxation_spec(0, 1e-7)
        assert spec.kind == "relax"
        nm2 = NoiseModel.noiseless(2)
        assert nm2.relaxation_spec(0, 1e-7) is None


class TestLogicalEraModel:
    def test_logical_constructor(self):
        nm = NoiseModel.logical(3, flip_x=1e-3, flip_z=2e-3)
        assert nm.logical_flip_probs == (1e-3, 0.0, 2e-3)
        assert nm.t1 is None
        assert nm.depol_1q.max() == 0.0

    def test_clifford_matches_density_matrix(self):
        """Pauli-flip noise is a Pauli channel: the Clifford evaluator must
        agree exactly with dense evolution."""
        rng = np.random.default_rng(31)
        n = 3
        circ = clifford_circuit(n, 10, rng)
        h = random_hamiltonian(n, 8, rng)
        nm = NoiseModel.logical(n, flip_x=5e-3, flip_z=8e-3, readout=2e-3)
        analytic = CliffordNoiseModel(nm).noisy_zero_state_energy(circ, h)
        dense = noisy_energy(circ, h, nm)
        assert analytic == pytest.approx(dense, abs=1e-9)

    def test_x_flip_only_preserves_x_observables(self):
        """A pure X-flip channel leaves X observables unattenuated but
        damps Z observables."""
        n = 1
        circ = Circuit(n)
        circ.h(0)
        nm = NoiseModel.logical(n, flip_x=0.1, flip_z=0.0, readout=0.0)
        hx = PauliSum.from_terms([(1.0, "X")])
        hz = PauliSum.from_terms([(1.0, "Z")])
        model = CliffordNoiseModel(nm, include_basis_prep_error=False)
        assert model.noisy_zero_state_energy(circ, hx) == pytest.approx(1.0)
        circ_z = Circuit(n)
        circ_z.x(0)
        value = model.noisy_zero_state_energy(circ_z, hz)
        assert value == pytest.approx(-(1 - 2 * 0.1))
