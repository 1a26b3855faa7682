"""Tests for measurement grouping and the counts-based energy estimator."""

import numpy as np
import pytest

from repro.core import VQEProblem, cafqa
from repro.hamiltonians import ising_model, xxz_model
from repro.noise import NoiseModel
from repro.optim import EngineConfig
from repro.paulis import PauliSum
from repro.execution import ExactEstimator, ShotSamplingEstimator
from repro.vqe import group_qubit_wise_commuting, num_measurement_bases

ENGINE = EngineConfig(num_instances=1, generations_per_round=8, top_k=3,
                      population_size=12, retry_rounds=0, seed=0)


class TestGrouping:
    def test_groups_cover_all_nonidentity_terms(self):
        h = xxz_model(5, 0.5)
        groups = group_qubit_wise_commuting(h)
        covered = sorted(i for g in groups for i in g.term_indices)
        identity_count = sum(
            1 for _, p in h.terms() if p.is_identity)
        assert len(covered) == h.num_terms - identity_count
        assert covered == sorted(set(covered))  # no duplicates

    def test_group_internal_compatibility(self):
        h = xxz_model(6, 1.0)
        codes = (h.table.unpack_x().astype(int)
                 + 2 * h.table.unpack_z().astype(int))
        for group in group_qubit_wise_commuting(h):
            basis = np.array([{"I": 0, "X": 1, "Z": 2, "Y": 3}[c]
                              for c in group.basis])
            for idx in group.term_indices:
                term = codes[idx]
                assert np.all((term == 0) | (term == basis))

    def test_ising_groups_efficiently(self):
        """Ising terms split into an all-X-pairs group and an all-Z group."""
        h = ising_model(6, 1.0)
        assert num_measurement_bases(h) <= 3

    def test_identity_term_skipped(self):
        h = PauliSum.from_terms([(2.0, "II"), (1.0, "ZZ")])
        groups = group_qubit_wise_commuting(h)
        assert len(groups) == 1

    def test_basis_rotation_measures_correctly(self):
        """Rotations map each group's basis Paulis onto Z strings."""
        from repro.stabilizer import CliffordTableau
        from repro.paulis import PauliString

        h = PauliSum.from_terms([(1.0, "XY"), (0.5, "XI")])
        (group,) = group_qubit_wise_commuting(h)
        rotation = group.basis_rotation(2)
        tableau = CliffordTableau.from_circuit(rotation)
        for _, pauli in h.terms():
            image = tableau.conjugate_pauli(pauli)
            assert image.is_z_type


class TestCountsEstimator:
    def make_problem(self):
        h = ising_model(3, 1.0)
        nm = NoiseModel(num_qubits=3, depol_1q=1e-3, depol_2q_default=8e-3,
                        readout_p01=np.full(3, 0.015),
                        readout_p10=np.full(3, 0.03), t1=np.full(3, 80e-6))
        return VQEProblem.logical(h, noise_model=nm)

    def test_matches_exact_estimator_within_shot_noise(self):
        problem = self.make_problem()
        exact = ExactEstimator(problem, problem.mapped_hamiltonian())
        counts = ShotSamplingEstimator(problem, problem.mapped_hamiltonian(),
                                       shots=20000, seed=0)
        theta = np.zeros(problem.num_vqe_parameters)
        e_exact = exact.energy(theta)
        e_counts = counts.energy(theta)
        # note: the exact estimator uses the symmetrized-linear readout
        # attenuation; the counts path samples the true asymmetric
        # confusion, so agreement is to shot noise + asymmetry cross terms
        assert e_counts == pytest.approx(e_exact, abs=0.15)

    def test_readout_mitigation_reduces_bias(self):
        problem = self.make_problem()
        noiseless_problem = VQEProblem.logical(
            ising_model(3, 1.0), noise_model=NoiseModel.noiseless(3))
        ideal = ExactEstimator(noiseless_problem,
                               noiseless_problem.mapped_hamiltonian())
        theta = np.zeros(problem.num_vqe_parameters)
        reference = ideal.energy(theta)

        raw = ShotSamplingEstimator(problem, problem.mapped_hamiltonian(),
                                    shots=40000, seed=1)
        mitigated = ShotSamplingEstimator(problem,
                                          problem.mapped_hamiltonian(),
                                          shots=40000, seed=1,
                                          readout_mitigation=True)
        e_raw = raw.energy(theta)
        e_mit = mitigated.energy(theta)
        # readout mitigation removes the readout part of the bias; gate and
        # relaxation noise remain, so compare gap magnitudes
        assert abs(e_mit - reference) < abs(e_raw - reference)

    def test_number_of_bases_reported(self):
        problem = self.make_problem()
        estimator = ShotSamplingEstimator(problem,
                                          problem.mapped_hamiltonian(),
                                          shots=128)
        assert estimator.num_bases == num_measurement_bases(
            problem.mapped_hamiltonian())

    def test_seeded_determinism(self):
        problem = self.make_problem()
        theta = np.zeros(problem.num_vqe_parameters)
        a = ShotSamplingEstimator(problem, problem.mapped_hamiltonian(),
                                  shots=1024, seed=5).energy(theta)
        b = ShotSamplingEstimator(problem, problem.mapped_hamiltonian(),
                                  shots=1024, seed=5).energy(theta)
        assert a == b

    def test_works_after_initialization_method(self):
        """Counts estimation of a CAFQA initial point end to end."""
        problem = self.make_problem()
        result = cafqa(problem, config=ENGINE)
        estimator = ShotSamplingEstimator(problem,
                                          result.initial_observable(),
                                          shots=8000, seed=2)
        value = estimator.energy(result.initial_theta)
        exact = ExactEstimator(problem, result.initial_observable())
        assert value == pytest.approx(exact.energy(result.initial_theta),
                                      abs=0.2)
