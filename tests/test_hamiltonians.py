"""Tests for spin models, exact diagonalization, and the benchmark registry."""

import numpy as np
import pytest

from repro.hamiltonians import (
    PAPER_COUPLINGS,
    ground_state,
    ground_state_energy,
    ising_model,
    pauli_sum_to_sparse,
    pauli_to_sparse,
    paper_benchmarks,
    physics_benchmarks,
    xxz_model,
)
from repro.hamiltonians.registry import get_benchmark
from repro.paulis import PauliString, PauliSum


class TestSpinModels:
    def test_ising_term_count(self):
        h = ising_model(5, 0.5)
        # 4 XX couplings + 5 Z fields
        assert h.num_terms == 9

    def test_ising_structure(self):
        h = ising_model(3, 0.25)
        labels = {p.to_label(): c for c, p in h.terms()}
        assert labels == {"XXI": 0.25, "IXX": 0.25,
                          "ZII": 1.0, "IZI": 1.0, "IIZ": 1.0}

    def test_xxz_term_count(self):
        h = xxz_model(4, 1.0)
        assert h.num_terms == 3 * 3

    def test_xxz_couplings(self):
        h = xxz_model(3, 0.5)
        labels = {p.to_label(): c for c, p in h.terms()}
        assert labels["XXI"] == 0.5 and labels["YYI"] == 0.5
        assert labels["ZZI"] == 1.0

    def test_chain_too_short(self):
        with pytest.raises(ValueError):
            ising_model(1, 0.5)
        with pytest.raises(ValueError):
            xxz_model(1, 0.5)

    def test_ising_known_2site_energy(self):
        # H = J XX + Z1 + Z2; for J=1: eigenvalues of
        # [[2,0,0,1],[0,0,1,0],[0,1,0,0],[1,0,0,-2]] -> min = -sqrt(5)
        h = ising_model(2, 1.0)
        assert ground_state_energy(h) == pytest.approx(-np.sqrt(5))

    def test_xxz_heisenberg_point_2site(self):
        # J=1 gives the isotropic Heisenberg dimer: E0 = -3 (singlet)
        h = xxz_model(2, 1.0)
        assert ground_state_energy(h) == pytest.approx(-3.0)


class TestExact:
    def test_pauli_to_sparse_matches_dense(self):
        rng = np.random.default_rng(0)
        from repro.paulis import random_pauli

        for _ in range(10):
            p = random_pauli(4, rng)
            np.testing.assert_allclose(pauli_to_sparse(p).toarray(),
                                       p.to_matrix(), atol=1e-12)

    def test_sum_to_sparse_matches_dense(self):
        h = PauliSum.from_terms([(0.5, "XY"), (1.5, "ZZ"), (-0.7, "IX")])
        np.testing.assert_allclose(pauli_sum_to_sparse(h).toarray(),
                                   h.to_matrix(), atol=1e-12)

    def test_ground_state_vector(self):
        h = ising_model(6, 0.5)
        energy, vector = ground_state(h)
        matrix = pauli_sum_to_sparse(h)
        np.testing.assert_allclose(matrix @ vector, energy * vector, atol=1e-8)

    def test_large_chain_uses_sparse_path(self):
        h = ising_model(12, 0.25)
        e_sparse = ground_state_energy(h)
        # weak coupling: ground state near all-|1> (Z eigenvalue -1 per site)
        assert e_sparse < -11.0

    def test_sparse_e0_is_reproducible(self):
        """Above 64 rows E0 comes from ARPACK; a fixed start vector makes
        every call return the same bits."""
        h = ising_model(8, 1.0)
        values = {float.hex(ground_state_energy(h)) for _ in range(5)}
        assert len(values) == 1
        matrix = pauli_sum_to_sparse(h)
        dense = float(np.linalg.eigvalsh(matrix.toarray()).min())
        assert abs(float.fromhex(values.pop()) - dense) < 1e-9
        energy, vector = ground_state(h)
        assert abs(energy - dense) < 1e-9
        assert np.linalg.norm(matrix @ vector - energy * vector) < 1e-8

    @pytest.mark.parametrize("hamiltonian", [
        ising_model(4, 1.0),  # 16 rows: dense
        ising_model(8, 1.0),  # 256 rows: ARPACK on the real part
        # a Y term makes the matrix complex (128 rows: ARPACK)
        PauliSum.from_terms([(1.0, "ZZIIIII"), (0.5, "IXIIIII"),
                             (0.7, "YZIIIII"), (-0.3, "IIYXIII"),
                             (0.4, "IIIZZII"), (0.2, "IIIIIXY")]),
        PauliSum.from_terms([(1.0, "ZZ"), (0.7, "YI"), (0.3, "XY")]),
    ], ids=["ising4-dense", "ising8-sparse", "complex7-sparse",
            "complex2-dense"])
    def test_both_functions_return_the_same_e0_bits(self, hamiltonian):
        energy = ground_state_energy(hamiltonian)
        state_energy, vector = ground_state(hamiltonian)
        assert float.hex(state_energy) == float.hex(energy)
        assert vector.dtype == complex
        matrix = pauli_sum_to_sparse(hamiltonian)
        assert np.linalg.norm(matrix @ vector - energy * vector) < 1e-8

    def test_variational_bound(self):
        """E0 lower-bounds every state's energy, in particular <0|H|0>."""
        for coupling in PAPER_COUPLINGS:
            h = xxz_model(6, coupling)
            assert ground_state_energy(h) <= h.expectation_all_zeros() + 1e-12


class TestRegistry:
    def test_physics_suite(self):
        suite = physics_benchmarks(7)
        assert len(suite) == 6
        assert all(b.num_qubits == 7 for b in suite)
        names = [b.name for b in suite]
        assert "ising_J0.25" in names and "xxz_J1.00" in names

    def test_full_suite_size(self):
        suite = paper_benchmarks(10)
        assert len(suite) == 12

    def test_build_and_cache(self):
        bench = get_benchmark("ising_J0.50", 6)
        h1 = bench.hamiltonian()
        h2 = bench.hamiltonian()
        assert h1 is h2  # cached
        assert h1.num_qubits == 6

    def test_unknown_benchmark(self):
        with pytest.raises(KeyError):
            get_benchmark("h2o_wrong")

    def test_cache_distinguishes_widths(self):
        h6 = get_benchmark("ising_J0.50", 6).hamiltonian()
        h8 = get_benchmark("ising_J0.50", 8).hamiltonian()
        assert h6.num_qubits == 6 and h8.num_qubits == 8


class TestMaxCut:
    def test_triangle_ground_energy(self):
        import networkx as nx
        from repro.hamiltonians import maxcut_hamiltonian

        graph = nx.cycle_graph(3)
        h = maxcut_hamiltonian(graph)
        # best cut of a triangle is 2 -> ground energy -2
        assert ground_state_energy(h) == pytest.approx(-2.0)

    def test_ground_energy_equals_negative_best_cut(self):
        from repro.hamiltonians import (best_cut_bruteforce,
                                        maxcut_hamiltonian,
                                        random_maxcut_instance)

        rng = np.random.default_rng(0)
        for _ in range(5):
            graph = random_maxcut_instance(5, 0.6, rng, weighted=True)
            h = maxcut_hamiltonian(graph)
            assert ground_state_energy(h) == pytest.approx(
                -best_cut_bruteforce(graph), abs=1e-9)

    def test_diagonal_structure(self):
        import networkx as nx
        from repro.hamiltonians import maxcut_hamiltonian

        h = maxcut_hamiltonian(nx.path_graph(4))
        assert h.table.z_type_mask().all()

    def test_validation(self):
        import networkx as nx
        from repro.hamiltonians import maxcut_hamiltonian

        with pytest.raises(ValueError):
            maxcut_hamiltonian(nx.empty_graph(3))

    def test_cut_value(self):
        import networkx as nx
        from repro.hamiltonians import cut_value

        graph = nx.path_graph(3)
        assert cut_value(graph, {0: 0, 1: 1, 2: 0}) == 2.0
        assert cut_value(graph, {0: 0, 1: 0, 2: 0}) == 0.0

    def test_clapton_runs_on_maxcut(self):
        """Clapton treats MaxCut like any other VQE problem."""
        from repro.core import VQEProblem, clapton
        from repro.hamiltonians import maxcut_hamiltonian, random_maxcut_instance
        from repro.noise import NoiseModel
        from repro.optim import EngineConfig

        rng = np.random.default_rng(3)
        graph = random_maxcut_instance(4, 0.7, rng)
        h = maxcut_hamiltonian(graph)
        nm = NoiseModel.uniform(4, depol_1q=1e-3, depol_2q=1e-2,
                                readout=0.03, t1=60e-6)
        problem = VQEProblem.logical(h, noise_model=nm)
        config = EngineConfig(num_instances=2, generations_per_round=10,
                              top_k=4, population_size=16, retry_rounds=0,
                              seed=0)
        result = clapton(problem, config=config)
        # MaxCut ground states are stabilizer states: the noiseless part of
        # the loss can reach E0 exactly
        e0 = ground_state_energy(h)
        from repro.core import ClaptonLoss

        _, l0 = ClaptonLoss(problem).components(result.genome)
        assert l0 == pytest.approx(e0, abs=1e-9)
