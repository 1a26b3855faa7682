"""Tests for the VQE estimator and SPSA runner."""

import numpy as np
import pytest

from repro.core import VQEProblem, cafqa, clapton
from repro.hamiltonians import ground_state_energy, ising_model, xxz_model
from repro.noise import NoiseModel
from repro.optim import EngineConfig, SPSAConfig
from repro.execution import ExactEstimator
from repro.vqe import run_vqe

ENGINE = EngineConfig(num_instances=2, generations_per_round=10, top_k=5,
                      population_size=20, retry_rounds=1, seed=0)


def make_problem(n=3, noisy=True):
    h = ising_model(n, 1.0)
    nm = (NoiseModel.uniform(n, depol_1q=1e-3, depol_2q=8e-3, readout=0.02,
                             t1=80e-6)
          if noisy else NoiseModel.noiseless(n))
    return VQEProblem.logical(h, noise_model=nm)


class TestEnergyEstimator:
    def test_exact_matches_noiseless_at_zero(self):
        problem = make_problem(noisy=False)
        est = ExactEstimator(problem, problem.mapped_hamiltonian())
        value = est.energy(np.zeros(problem.num_vqe_parameters))
        assert value == pytest.approx(
            problem.hamiltonian.expectation_all_zeros())

    def test_variational_bound(self):
        problem = make_problem(noisy=False)
        est = ExactEstimator(problem, problem.mapped_hamiltonian())
        rng = np.random.default_rng(0)
        e0 = ground_state_energy(problem.hamiltonian)
        for _ in range(5):
            theta = rng.uniform(0, 2 * np.pi, problem.num_vqe_parameters)
            assert est.energy(theta) >= e0 - 1e-9

    def test_shot_noise_statistics(self):
        problem = make_problem()
        exact = ExactEstimator(problem, problem.mapped_hamiltonian())
        sampled = ExactEstimator(problem, problem.mapped_hamiltonian(),
                                 shots=256, seed=1)
        theta = np.zeros(problem.num_vqe_parameters)
        reference = exact.energy(theta)
        draws = np.array([sampled.energy(theta) for _ in range(60)])
        assert draws.std() > 0
        assert abs(draws.mean() - reference) < 5 * draws.std() / np.sqrt(60)

    def test_width_mismatch_rejected(self):
        problem = make_problem()
        with pytest.raises(ValueError):
            ExactEstimator(problem, problem.mapped_hamiltonian(),
                           noise_model=NoiseModel.noiseless(7))

    def test_counts_evaluations(self):
        problem = make_problem()
        est = ExactEstimator(problem, problem.mapped_hamiltonian())
        theta = np.zeros(problem.num_vqe_parameters)
        est.energy(theta)
        est.energy(theta)
        assert est.num_evaluations == 2


class TestRunVQE:
    def test_noiseless_vqe_approaches_ground_state(self):
        problem = make_problem(n=3, noisy=False)
        init = cafqa(problem, config=ENGINE)
        trace = run_vqe(init, maxiter=150, seed=2)
        e0 = ground_state_energy(problem.hamiltonian)
        gap0 = init.loss - e0
        # CAFQA already lands near the best stabilizer point; VQE should not
        # end far above it and often improves toward E0
        assert trace.final_energy <= trace.initial_energy + 0.15 * abs(e0)
        assert trace.final_energy >= e0 - 1e-9
        assert len(trace.history) == 150

    def test_clapton_vqe_runs_on_transformed_problem(self):
        problem = make_problem(n=3, noisy=True)
        init = clapton(problem, config=ENGINE)
        trace = run_vqe(init, maxiter=60, seed=3)
        np.testing.assert_array_equal(trace.initial_theta,
                                      np.zeros(problem.num_vqe_parameters))
        # energies refer to the transformed observable, whose spectrum
        # matches the original problem's
        e0 = ground_state_energy(problem.hamiltonian)
        assert trace.final_energy >= e0 - 1e-9
        assert trace.num_evaluations >= 2 * 60

    def test_hardware_fields_populated_only_with_twin(self):
        problem = make_problem()
        init = cafqa(problem, config=ENGINE)
        trace = run_vqe(init, maxiter=10, seed=4)
        assert trace.hardware_initial is None and trace.hardware_final is None

        from repro.backends import FakeNairobi

        backend = FakeNairobi()
        problem_hw = VQEProblem.from_backend(
            ising_model(3, 1.0), backend,
            hardware=backend.hardware_twin(seed=5))
        init_hw = cafqa(problem_hw, config=ENGINE)
        trace_hw = run_vqe(init_hw, maxiter=10, seed=5)
        assert trace_hw.hardware_initial is not None
        assert trace_hw.hardware_final is not None

    def test_spsa_config_override(self):
        problem = make_problem()
        init = cafqa(problem, config=ENGINE)
        trace = run_vqe(init, spsa_config=SPSAConfig(maxiter=5, a=0.05, seed=0))
        assert len(trace.history) == 5
