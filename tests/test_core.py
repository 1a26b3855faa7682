"""Tests for the Clapton core: transformation, losses, drivers, evaluation."""

import numpy as np
import pytest

from repro.backends import FakeLine, FakeNairobi
from repro.circuits import clapton_transformation_circuit, num_transformation_parameters
from repro.core import (
    CafqaLoss,
    ClaptonLoss,
    NcafqaLoss,
    VQEProblem,
    cafqa,
    clapton,
    evaluate_initial_point,
    ncafqa,
    transform_hamiltonian,
    untransform_state_circuit,
)
from repro.densesim import noisy_energy, simulate_statevector, pauli_sum_expectation
from repro.hamiltonians import ground_state_energy, ising_model, xxz_model
from repro.noise import CliffordNoiseModel, NoiseModel
from repro.optim import EngineConfig
from repro.stabilizer import clifford_state_expectation

SMALL_ENGINE = EngineConfig(num_instances=2, generations_per_round=12,
                            top_k=5, population_size=24, retry_rounds=1,
                            seed=0)


def small_problem(n=4, noisy=True):
    h = ising_model(n, 0.5)
    nm = (NoiseModel.uniform(n, depol_1q=2e-3, depol_2q=2e-2, readout=0.03,
                             t1=60e-6)
          if noisy else NoiseModel.noiseless(n))
    return VQEProblem.logical(h, noise_model=nm)


class TestTransformation:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_spectrum_preserved(self, seed):
        rng = np.random.default_rng(seed)
        n = 4
        h = xxz_model(n, 1.0)
        gamma = rng.integers(0, 4, size=num_transformation_parameters(n))
        transformed = transform_hamiltonian(h, gamma)
        ev_a = np.linalg.eigvalsh(h.to_matrix())
        ev_b = np.linalg.eigvalsh(transformed.to_matrix())
        np.testing.assert_allclose(ev_a, ev_b, atol=1e-9)

    def test_identity_genome_is_identity(self):
        n = 3
        h = ising_model(n, 0.25)
        gamma = np.zeros(num_transformation_parameters(n), dtype=int)
        transformed = transform_hamiltonian(h, gamma)
        assert {p.to_label(): c for c, p in transformed.terms()} \
            == {p.to_label(): c for c, p in h.terms()}

    def test_untransform_recovers_original_energy(self):
        """<psi_hat| H_hat |psi_hat> == <C psi_hat| H |C psi_hat> (Sec. 3.2)."""
        rng = np.random.default_rng(5)
        n = 3
        h = xxz_model(n, 0.5)
        gamma = rng.integers(0, 4, size=num_transformation_parameters(n))
        transformed = transform_hamiltonian(h, gamma)
        from repro.circuits import Circuit

        vqe_circuit = Circuit(n)
        vqe_circuit.ry(0.7, 0).cx(0, 1).ry(-0.3, 2).cx(1, 2)
        state_hat = simulate_statevector(vqe_circuit)
        energy_hat = pauli_sum_expectation(transformed, state_hat)
        full = untransform_state_circuit(gamma, n, vqe_circuit)
        state = simulate_statevector(full)
        energy = pauli_sum_expectation(h, state)
        assert energy == pytest.approx(energy_hat, abs=1e-9)


class TestClaptonLoss:
    def test_identity_genome_components(self):
        problem = small_problem()
        loss = ClaptonLoss(problem)
        gamma = np.zeros(problem.num_transformation_parameters, dtype=int)
        noisy, noiseless = loss.components(gamma)
        assert noiseless == pytest.approx(
            problem.hamiltonian.expectation_all_zeros())
        expected_noisy = CliffordNoiseModel(problem.noise_model) \
            .noisy_zero_state_energy(problem.skeleton(),
                                     problem.mapped_hamiltonian())
        assert noisy == pytest.approx(expected_noisy, abs=1e-9)

    def test_call_is_weighted_sum(self):
        problem = small_problem()
        loss = ClaptonLoss(problem, noisy_weight=2.0, noiseless_weight=0.5)
        rng = np.random.default_rng(1)
        gamma = rng.integers(0, 4, size=problem.num_transformation_parameters)
        noisy, noiseless = loss.components(gamma)
        assert loss(gamma) == pytest.approx(2.0 * noisy + 0.5 * noiseless)

    def test_noiseless_problem_reduces_to_l0_twice(self):
        problem = small_problem(noisy=False)
        loss = ClaptonLoss(problem)
        rng = np.random.default_rng(2)
        gamma = rng.integers(0, 4, size=problem.num_transformation_parameters)
        noisy, noiseless = loss.components(gamma)
        assert noisy == pytest.approx(noiseless, abs=1e-9)


class TestCafqaLoss:
    def test_zero_genome_is_all_zeros_energy(self):
        problem = small_problem()
        loss = CafqaLoss(problem)
        genome = np.zeros(problem.num_vqe_parameters, dtype=int)
        assert loss(genome) == pytest.approx(
            problem.hamiltonian.expectation_all_zeros())

    def test_noiseless_term_matches_statevector(self):
        problem = small_problem()
        loss = CafqaLoss(problem)
        rng = np.random.default_rng(3)
        genome = rng.integers(0, 4, size=problem.num_vqe_parameters)
        from repro.circuits import cafqa_angles, hardware_efficient_ansatz

        ansatz = hardware_efficient_ansatz(problem.num_logical_qubits)
        state = simulate_statevector(ansatz.bind(cafqa_angles(genome)))
        expected = pauli_sum_expectation(problem.hamiltonian, state)
        assert loss(genome) == pytest.approx(expected, abs=1e-9)

    def test_ncafqa_adds_noisy_term(self):
        problem = small_problem()
        plain = CafqaLoss(problem)
        aware = NcafqaLoss(problem)
        # zero genome: |0...0> has non-zero Ising energy, so the attenuated
        # noisy term must differ from the noiseless one
        genome = np.zeros(problem.num_vqe_parameters, dtype=int)
        _, l0 = aware.components(genome)
        assert plain(genome) == pytest.approx(l0)
        assert l0 != 0.0
        assert aware(genome) != pytest.approx(plain(genome))


class TestDrivers:
    def test_clapton_end_to_end(self):
        problem = small_problem()
        result = clapton(problem, config=SMALL_ENGINE)
        assert result.method == "clapton"
        # loss at the returned genome reproduces the engine's best loss
        loss = ClaptonLoss(problem)
        assert loss(result.genome) == pytest.approx(result.loss, abs=1e-9)
        # transformed problem keeps the spectrum
        assert ground_state_energy(result.vqe_hamiltonian) == pytest.approx(
            ground_state_energy(problem.hamiltonian), abs=1e-8)
        np.testing.assert_array_equal(result.initial_theta,
                                      np.zeros(problem.num_vqe_parameters))

    def test_cafqa_end_to_end(self):
        problem = small_problem()
        result = cafqa(problem, config=SMALL_ENGINE)
        assert result.method == "cafqa"
        assert result.vqe_hamiltonian is problem.hamiltonian
        # CAFQA finds the optimal Clifford point of the 4-qubit Ising chain:
        # its loss must reach the best stabilizer energy within reach of the
        # ansatz, which is at least as good as the trivial |0...0> energy.
        assert result.loss <= problem.hamiltonian.expectation_all_zeros() + 1e-9

    def test_clapton_beats_cafqa_on_noisy_evaluation(self):
        """The headline claim, in miniature: under device-model evaluation
        the Clapton initial point is at least as good as CAFQA's."""
        problem = small_problem()
        clap = clapton(problem, config=SMALL_ENGINE)
        base = cafqa(problem, config=SMALL_ENGINE)
        e_clap = noisy_energy(clap.initial_circuit(), clap.initial_observable(),
                              problem.noise_model)
        e_base = noisy_energy(base.initial_circuit(), base.initial_observable(),
                              problem.noise_model)
        assert e_clap <= e_base + 1e-6

    def test_ncafqa_noisier_aware_loss(self):
        problem = small_problem()
        result = ncafqa(problem, config=SMALL_ENGINE)
        assert result.method == "ncafqa"
        aware = NcafqaLoss(problem)
        assert aware(result.genome) == pytest.approx(result.loss, abs=1e-9)

    def test_from_backend_problem(self):
        h = ising_model(4, 1.0)
        problem = VQEProblem.from_backend(h, FakeNairobi())
        result = clapton(problem, config=SMALL_ENGINE)
        evaluation = evaluate_initial_point(result)
        assert evaluation.hardware is None
        # noiseless evaluation can only be degraded by noise... for Clapton
        # the skeleton fixes |0>, so noiseless == L0 of the genome
        loss = ClaptonLoss(problem)
        _, l0 = loss.components(result.genome)
        assert evaluation.noiseless == pytest.approx(l0, abs=1e-9)

    def test_hardware_twin_evaluation(self):
        h = ising_model(3, 0.5)
        backend = FakeNairobi()
        problem = VQEProblem.from_backend(h, backend,
                                          hardware=backend.hardware_twin(seed=3))
        result = clapton(problem, config=SMALL_ENGINE)
        evaluation = evaluate_initial_point(result)
        assert evaluation.hardware is not None
        # the twin's recalibrated rates differ from the optimization model
        assert evaluation.hardware != pytest.approx(evaluation.device_model,
                                                    rel=1e-6)


class TestEvaluation:
    def test_tier_ordering_for_ground_heavy_state(self):
        """For the benchmarks (E0 < 0 side) noise pushes energies up."""
        problem = small_problem()
        result = clapton(problem, config=SMALL_ENGINE)
        ev = evaluate_initial_point(result)
        e0 = ground_state_energy(problem.hamiltonian)
        assert e0 <= ev.noiseless + 1e-9
        assert ev.noiseless <= ev.device_model + 1e-6
        assert ev.model_gap() >= 0
