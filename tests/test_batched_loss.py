"""Batched-vs-serial equivalence: the contract of population batching.

Everything here asserts **bit-identical** floats, not allclose: every step
of the packed, population-batched path is row-wise, so its values must
equal the serial boolean oracle's (``pauli_oracle``: one genome at a time,
gate by gate) exactly, and a genome's value must not depend on the batch
it rides in.  That is what lets the GA, the engine, and the estimators run
on batches without moving a single golden.
"""

import dataclasses
import itertools

import numpy as np
import pauli_oracle as oracle
import pytest

from repro.backends import FakeNairobi
from repro.circuits import Circuit, cafqa_angles
from repro.core import (
    CafqaLoss,
    ClaptonLoss,
    NcafqaLoss,
    VQEProblem,
    transform_table_many,
)
from repro.execution import ThreadExecutor, make_estimator, memoize_loss
from repro.hamiltonians import ising_model
from repro.noise import CliffordNoiseModel, NoiseModel
from repro.optim import EngineConfig, GAConfig, GeneticAlgorithm, multi_ga_minimize
from repro.paulis import PauliString


def logical_problem(n=4):
    h = ising_model(n, 1.0)
    nm = NoiseModel.uniform(n, depol_1q=1e-3, depol_2q=1e-2,
                            readout=0.02, t1=80e-6)
    return VQEProblem.logical(h, noise_model=nm)


def transpiled_problem(n=4):
    return VQEProblem.from_backend(ising_model(n, 1.0), FakeNairobi())


def flip_problem(n=4):
    """Logical flips and relaxation on: the walk's per-slot code masks."""
    nm = NoiseModel.uniform(n, depol_1q=1e-3, depol_2q=1e-2, readout=0.02,
                            t1=80e-6, logical_flip_probs=(2e-3, 1e-3, 3e-3))
    return VQEProblem.logical(ising_model(n, 0.8), noise_model=nm)


def relaxing_model(problem):
    return CliffordNoiseModel(problem.noise_model,
                              include_twirled_relaxation=True)


def genome_batch(rng, count, length):
    return rng.integers(0, 4, size=(count, length))


# ----------------------------------------------------------------------
# Core losses
# ----------------------------------------------------------------------
class TestBatchedLosses:
    @pytest.mark.parametrize("make_problem", [logical_problem,
                                              transpiled_problem])
    def test_clapton_loss_bit_identical(self, make_problem):
        problem = make_problem()
        loss = ClaptonLoss(problem)
        gammas = genome_batch(np.random.default_rng(0), 31,
                              problem.num_transformation_parameters)
        serial = [oracle.loss_value(loss, g) for g in gammas]
        np.testing.assert_array_equal(loss.evaluate_many(gammas), serial)

    @pytest.mark.parametrize("make_problem", [logical_problem,
                                              transpiled_problem])
    @pytest.mark.parametrize("loss_type", [CafqaLoss, NcafqaLoss])
    def test_cafqa_losses_bit_identical(self, make_problem, loss_type):
        problem = make_problem()
        loss = loss_type(problem)
        genomes = genome_batch(np.random.default_rng(1), 23,
                               problem.num_vqe_parameters)
        serial = [oracle.loss_value(loss, g) for g in genomes]
        np.testing.assert_array_equal(loss.evaluate_many(genomes), serial)

    @pytest.mark.parametrize("loss_type", [ClaptonLoss, NcafqaLoss])
    def test_flip_and_relaxation_walk_matches_oracle(self, loss_type):
        problem = flip_problem()
        loss = loss_type(problem, clifford_model=relaxing_model(problem))
        length = (problem.num_transformation_parameters
                  if loss_type is ClaptonLoss else problem.num_vqe_parameters)
        genomes = genome_batch(np.random.default_rng(16), 17, length)
        serial = [oracle.loss_value(loss, g) for g in genomes]
        np.testing.assert_array_equal(loss.evaluate_many(genomes), serial)

    def test_ncafqa_noise_term_matches_dense_density_matrix(self):
        """nCAFQA's batched L_N against a hand-built 3-qubit density matrix.

        Depolarizing channels after every gate, then per term: rotation
        into its measurement basis, depolarizing on the rotated qubits
        (basis-prep error), a bit-flip channel per qubit (readout).
        """
        n, p1, p2, readout = 3, 0.02, 0.05, 0.03
        nm = NoiseModel.uniform(n, depol_1q=p1, depol_2q=p2,
                                readout=readout)
        problem = VQEProblem.logical(ising_model(n, 0.9), noise_model=nm)
        genomes = genome_batch(np.random.default_rng(18), 6,
                               problem.num_vqe_parameters)
        noisy, _ = NcafqaLoss(problem).components_many(genomes)

        def pauli(factors):
            return PauliString.from_sparse(factors, n).to_matrix()

        def depolarize(rho, qubits, p):
            labels = [dict(zip(qubits, combo)) for combo in
                      itertools.product("IXYZ", repeat=len(qubits))][1:]
            out = (1 - p) * rho
            for factors in labels:
                op = pauli({q: c for q, c in factors.items() if c != "I"})
                out = out + p / len(labels) * (op @ rho @ op.conj().T)
            return out

        def dense_noise_term(theta):
            rho = np.zeros((2 ** n, 2 ** n), dtype=complex)
            rho[0, 0] = 1.0
            for inst in problem.bound_ansatz(theta).instructions:
                gate = Circuit(n)
                gate.instructions.append(inst)
                u = gate.unitary()
                rho = u @ rho @ u.conj().T
                rho = depolarize(rho, list(inst.qubits),
                                 p1 if len(inst.qubits) == 1 else p2)
            energy = 0.0
            for coeff, term in problem.mapped_hamiltonian().terms():
                rotation = Circuit(n)
                rotated = []
                for q in range(n):
                    if term.x[q]:
                        if term.z[q]:
                            rotation.sdg(q)
                        rotation.h(q)
                        rotated.append(q)
                u = rotation.unitary()
                measured = u @ rho @ u.conj().T
                for q in rotated:
                    measured = depolarize(measured, [q], p1)
                for q in range(n):
                    flip = pauli({q: "X"})
                    measured = ((1 - readout) * measured
                                + readout * flip @ measured @ flip)
                observable = u @ term.to_matrix() @ u.conj().T
                energy += coeff * np.trace(observable @ measured).real
            return energy

        dense = [dense_noise_term(cafqa_angles(g)) for g in genomes]
        np.testing.assert_allclose(noisy, dense, rtol=0, atol=1e-12)

    def test_components_many_matches_components(self):
        """A batch of P against P batches of one: no leakage between rows."""
        problem = logical_problem()
        loss = ClaptonLoss(problem, noisy_weight=0.7, noiseless_weight=1.3)
        gammas = genome_batch(np.random.default_rng(2), 9,
                              problem.num_transformation_parameters)
        noisy, noiseless = loss.components_many(gammas)
        for p, gamma in enumerate(gammas):
            n_serial, l_serial = loss.components(gamma)
            assert noisy[p] == n_serial
            assert noiseless[p] == l_serial

    def test_ncafqa_loss_is_noise_aware_cafqa(self):
        problem = logical_problem()
        named = NcafqaLoss(problem)
        flagged = CafqaLoss(problem, noise_aware=True)
        genome = genome_batch(np.random.default_rng(3), 1,
                              problem.num_vqe_parameters)[0]
        assert named(genome) == flagged(genome)

    def test_transform_table_many_stacks_serial_tables(self):
        h = ising_model(5, 0.75)
        gammas = genome_batch(np.random.default_rng(4), 7,
                              4 * 5 + 5)  # circular: 5N genes
        stacked = oracle.BoolTable.of(transform_table_many(h, gammas))
        m = h.table.num_rows
        for p, gamma in enumerate(gammas):
            single = oracle.transform_table(h, gamma)
            np.testing.assert_array_equal(stacked.x[p * m:(p + 1) * m],
                                          single.x)
            np.testing.assert_array_equal(stacked.z[p * m:(p + 1) * m],
                                          single.z)
            np.testing.assert_array_equal(
                stacked.phase_exp[p * m:(p + 1) * m], single.phase_exp)

    def test_batch_validation(self):
        problem = logical_problem()
        loss = ClaptonLoss(problem)
        with pytest.raises(ValueError, match="length"):
            loss.evaluate_many(np.zeros((3, 2), dtype=int))
        with pytest.raises(ValueError, match=r"\{0, 1, 2, 3\}"):
            loss.evaluate_many(
                np.full((2, problem.num_transformation_parameters), 7))


# ----------------------------------------------------------------------
# The noisy layer walk: nCAFQA's L_N and CliffordEstimator
# ----------------------------------------------------------------------
class TestLayerWalk:
    """Each run of rotations is one layer step of the noisy walk; its
    values must equal gate-by-gate walks exactly."""

    @pytest.mark.parametrize("n", [63, 64, 65])
    def test_ncafqa_word_boundary_matches_oracle(self, n):
        problem = logical_problem(n)
        loss = NcafqaLoss(problem)
        genomes = genome_batch(np.random.default_rng(n), 3,
                               problem.num_vqe_parameters)
        genomes[:, 2 * n - 1] = 0  # a rotation every genome drops
        serial = [oracle.loss_value(loss, g) for g in genomes]
        np.testing.assert_array_equal(loss.evaluate_many(genomes), serial)

    @pytest.mark.parametrize("make_problem", [logical_problem,
                                              transpiled_problem])
    def test_zne_folded_estimator_matches_serial_walk(self, make_problem):
        """A scale-3 fold has RY RZ RZ RY runs at negative angles: one
        composed layer per run must equal the serial gate walk."""
        from repro.mitigation.folding import fold_template_global

        problem = make_problem()
        folded = dataclasses.replace(
            problem, eval_ansatz=fold_template_global(problem.eval_ansatz,
                                                      3))
        hamiltonian = problem.mapped_hamiltonian()
        estimator = make_estimator(folded, hamiltonian, mode="clifford")
        rng = np.random.default_rng(21)
        thetas = rng.integers(-5, 9, size=(9, problem.num_vqe_parameters)) \
            * (np.pi / 2)
        thetas[:, 0] = 0
        extended = np.concatenate([thetas, -thetas, thetas], axis=1)
        batch = estimator.estimate_many(extended)
        model = estimator.clifford_model
        serial = [model.noisy_zero_state_energy(
            estimator._plan.bind(theta), hamiltonian) for theta in extended]
        np.testing.assert_array_equal(batch.values, serial)
        table = oracle.BoolTable.of(hamiltonian.table)
        np.testing.assert_array_equal(
            batch.term_expectations,
            np.stack([oracle.noisy_term_values(
                model, estimator._plan.bind(theta), table)
                for theta in extended]))

    def test_flips_and_relaxation_on_transpiled_problem(self):
        problem = transpiled_problem()
        problem = dataclasses.replace(
            problem, noise_model=problem.noise_model.with_overrides(
                logical_flip_probs=(2e-3, 1e-3, 3e-3)))
        model = relaxing_model(problem)
        assert problem.noise_model.t1 is not None
        loss = NcafqaLoss(problem, clifford_model=model)
        genomes = genome_batch(np.random.default_rng(22), 11,
                               problem.num_vqe_parameters)
        genomes[:, 3] = 0
        serial = [oracle.loss_value(loss, g) for g in genomes]
        np.testing.assert_array_equal(loss.evaluate_many(genomes), serial)
        estimator = make_estimator(problem, mode="clifford",
                                   clifford_model=model)
        thetas = cafqa_angles(genomes)
        table = oracle.BoolTable.of(estimator.observable.table)
        np.testing.assert_array_equal(
            estimator.estimate_many(thetas).term_expectations,
            np.stack([oracle.noisy_term_values(
                model, problem.bound_ansatz(theta), table)
                for theta in thetas]))

    def test_empty_batch_on_transpiled_problem(self):
        problem = transpiled_problem()
        noisy, noiseless = NcafqaLoss(problem).components_many(
            np.empty((0, problem.num_vqe_parameters), dtype=np.int64))
        assert noisy.shape == noiseless.shape == (0,)
        batch = make_estimator(problem, mode="clifford").estimate_many(
            np.empty((0, problem.num_vqe_parameters)))
        assert len(batch) == 0 and batch.values.shape == (0,)


# ----------------------------------------------------------------------
# Memoised batch dispatch
# ----------------------------------------------------------------------
class TestMemoizedBatch:
    def test_dedupes_within_batch_and_against_cache(self):
        calls = []

        def loss(genome):
            calls.append(genome.copy())
            return float(np.count_nonzero(genome))

        memo = memoize_loss(loss)
        a, b = np.array([1, 0, 2]), np.array([0, 0, 3])
        assert memo(a) == 2.0  # pre-populate the cache
        values = memo.evaluate_many(np.array([a, b, a, b]))
        np.testing.assert_array_equal(values, [2.0, 1.0, 2.0, 1.0])
        # only the one unseen genome reached the loss
        assert len(calls) == 2
        assert memo.misses == 2 and memo.hits == 3

    def test_counters_match_serial_order(self):
        def loss(genome):
            return float(np.count_nonzero(genome))

        batch = np.random.default_rng(5).integers(0, 2, size=(40, 4))
        batched = memoize_loss(loss)
        batched.evaluate_many(batch)
        serial = memoize_loss(loss)
        serial_values = [serial(g) for g in batch]
        np.testing.assert_array_equal(batched.evaluate_many(batch),
                                      serial_values)
        assert (batched.hits, batched.misses) != (0, 0)
        assert batched.misses == serial.misses

    @pytest.mark.parametrize("batched_loss", [False, True])
    def test_batches_account_like_per_genome_calls(self, batched_loss):
        """Batches with cache hits and within-batch duplicates give the
        values, ``stats()``, Prometheus totals and miss order of calling
        the wrapper genome by genome (a duplicate is a hit there)."""
        from repro.execution.cache import (
            _CACHE_DEDUP,
            _CACHE_HITS,
            _CACHE_MISSES,
        )

        class Loss:
            def __init__(self):
                self.seen = []

            def __call__(self, genome):
                self.seen.append(tuple(genome))
                return float(genome @ np.arange(1, len(genome) + 1))

            def evaluate_many(self, genomes):
                return np.array([self(g) for g in genomes])

        if not batched_loss:
            Loss.evaluate_many = None
        rng = np.random.default_rng(11)
        batches = [rng.integers(0, 3, size=(size, 3)) for size in
                   (1, 12, 30, 30, 5, 40)]
        batch_loss, serial_loss = Loss(), Loss()
        batched, serial = memoize_loss(batch_loss), memoize_loss(serial_loss)
        totals = (_CACHE_HITS.total(), _CACHE_DEDUP.total(),
                  _CACHE_MISSES.total())
        expected_dedups = 0
        for batch in batches:
            cached = set(serial.cache)
            keys = [g.tobytes() for g in batch.astype(np.int64)]
            fresh = [k for k in keys if k not in cached]
            expected_dedups += len(fresh) - len(set(fresh))
            serial_values = [serial(g) for g in batch]
            np.testing.assert_array_equal(batched.evaluate_many(batch),
                                          serial_values)
        stats, serial_stats = batched.stats(), serial.stats()
        assert stats.pop("dedups") == expected_dedups > 0
        assert serial_stats.pop("dedups") == 0
        assert stats == serial_stats
        assert batched.hits - expected_dedups > 0  # cache hits exercised
        assert batch_loss.seen == serial_loss.seen  # first-occurrence order
        assert list(batched.cache) == list(serial.cache)
        hits, dedups, misses = (_CACHE_HITS.total() - totals[0],
                                _CACHE_DEDUP.total() - totals[1],
                                _CACHE_MISSES.total() - totals[2])
        # the serial wrapper bumped the same counters: subtract its share
        assert dedups == expected_dedups
        assert hits == serial.hits + batched.hits - expected_dedups
        assert misses == serial.misses + batched.misses

    def test_dispatches_loss_evaluate_many_once(self):
        batch_calls = []

        class BatchLoss:
            def __call__(self, genome):
                raise AssertionError("scalar path must not be used")

            def evaluate_many(self, genomes):
                batch_calls.append(len(genomes))
                return np.count_nonzero(genomes, axis=1).astype(float)

        memo = memoize_loss(BatchLoss())
        genomes = np.array([[1, 1], [0, 1], [1, 1]])
        values = memo.evaluate_many(genomes)
        np.testing.assert_array_equal(values, [2.0, 1.0, 2.0])
        assert batch_calls == [2]  # one call, duplicates already removed

    def test_empty_batch(self):
        memo = memoize_loss(lambda g: 0.0)
        assert len(memo.evaluate_many(np.zeros((0, 3), dtype=int))) == 0

    def test_empty_batch_through_losses_and_estimator(self):
        """A (0, d) batch returns empty results everywhere, not a crash."""
        problem = logical_problem(3)
        for loss, length in ((ClaptonLoss(problem),
                              problem.num_transformation_parameters),
                             (NcafqaLoss(problem),
                              problem.num_vqe_parameters)):
            out = loss.evaluate_many(np.empty((0, length), dtype=np.int64))
            assert out.shape == (0,)
        estimator = make_estimator(problem, mode="clifford")
        batch = estimator.estimate_many(
            np.empty((0, problem.num_vqe_parameters)))
        assert len(batch) == 0 and batch.values.shape == (0,)


# ----------------------------------------------------------------------
# GA + engine on the batched path
# ----------------------------------------------------------------------
class TestBatchedSearch:
    def test_ga_batched_loss_matches_scalar_loss(self):
        """Hiding evaluate_many must not change a single GA number."""
        problem = logical_problem(3)
        loss = ClaptonLoss(problem)
        config = GAConfig(population_size=12, num_generations=6)

        def run(loss_fn):
            ga = GeneticAlgorithm(loss_fn,
                                  problem.num_transformation_parameters,
                                  config=config,
                                  rng=np.random.default_rng(6))
            return ga.run()

        batched = run(loss)           # dispatches via evaluate_many
        scalar = run(lambda g: loss(g))  # scalar-only fallback
        assert batched.best_loss == scalar.best_loss
        np.testing.assert_array_equal(batched.best_genome,
                                      scalar.best_genome)
        np.testing.assert_array_equal(batched.losses, scalar.losses)
        assert batched.num_evaluations == scalar.num_evaluations

    def test_ga_shares_one_cache_discipline(self):
        """GA accounting now lives in the shared MemoizedLoss wrapper."""
        memo = memoize_loss(lambda g: float(np.count_nonzero(g)))
        ga = GeneticAlgorithm(memo, genome_length=4,
                              config=GAConfig(population_size=10,
                                              num_generations=5),
                              rng=np.random.default_rng(7))
        assert ga.cache is memo.cache
        result = ga.run()
        assert result.num_evaluations == memo.misses == len(memo.cache)
        assert memo.hits > 0

    def test_engine_population_axis_bit_identical_to_serial(self):
        problem = logical_problem(3)
        loss = ClaptonLoss(problem)
        config = EngineConfig(num_instances=2, generations_per_round=5,
                              top_k=3, population_size=10, retry_rounds=0,
                              seed=0)
        serial = multi_ga_minimize(loss,
                                   problem.num_transformation_parameters,
                                   config=config)
        sharded_config = dataclasses.replace(config,
                                             parallel_axis="population")
        with ThreadExecutor(3) as executor:
            sharded = multi_ga_minimize(
                loss, problem.num_transformation_parameters,
                config=sharded_config, executor=executor)
        assert sharded.best_loss == serial.best_loss
        np.testing.assert_array_equal(sharded.best_genome,
                                      serial.best_genome)
        assert sharded.num_evaluations == serial.num_evaluations
        assert [t.best_loss for t in sharded.trace] \
            == [t.best_loss for t in serial.trace]


# ----------------------------------------------------------------------
# Estimators: every mode's estimate_many against its serial loop
# ----------------------------------------------------------------------
class TestEstimatorBatches:
    def clifford_thetas(self, problem, count, seed):
        rng = np.random.default_rng(seed)
        return rng.integers(0, 4, size=(count,
                                        problem.num_vqe_parameters)) \
            * (np.pi / 2)

    def oracle_terms(self, estimator, thetas):
        problem = estimator.problem
        table = oracle.BoolTable.of(estimator.observable.table)
        return np.stack([oracle.noisy_term_values(
            estimator.clifford_model, problem.bound_ansatz(theta), table)
            for theta in thetas])

    def test_clifford_estimate_many_bit_identical(self):
        problem = logical_problem()
        estimator = make_estimator(problem, mode="clifford")
        thetas = self.clifford_thetas(problem, 19, seed=8)
        terms = self.oracle_terms(estimator, thetas)
        batch = estimator.estimate_many(thetas)
        np.testing.assert_array_equal(batch.term_expectations, terms)
        np.testing.assert_array_equal(
            batch.values, [float(estimator.observable.coefficients @ row)
                           for row in terms])
        assert estimator.estimate(thetas[3]).value == batch.values[3]
        assert estimator.num_evaluations == len(thetas) + 1

    def test_clifford_estimate_many_transpiled(self):
        problem = transpiled_problem()
        estimator = make_estimator(problem, mode="clifford")
        thetas = self.clifford_thetas(problem, 11, seed=9)
        np.testing.assert_array_equal(
            estimator.estimate_many(thetas).term_expectations,
            self.oracle_terms(estimator, thetas))

    def test_clifford_estimate_many_flips_and_relaxation(self):
        problem = flip_problem()
        estimator = make_estimator(problem, mode="clifford",
                                   clifford_model=relaxing_model(problem))
        thetas = self.clifford_thetas(problem, 13, seed=17)
        np.testing.assert_array_equal(
            estimator.estimate_many(thetas).term_expectations,
            self.oracle_terms(estimator, thetas))

    def test_clifford_estimate_many_rejects_non_clifford(self):
        problem = logical_problem()
        estimator = make_estimator(problem, mode="clifford")
        thetas = self.clifford_thetas(problem, 4, seed=10)
        thetas[2, 1] += 0.4
        with pytest.raises(ValueError, match="Clifford parameter point"):
            estimator.estimate_many(thetas)

    def test_exact_shot_noise_draw_order_matches_serial(self):
        """estimate_many must consume the rng exactly like the serial loop.

        The exact engine's chunked tensor evolution reorders float
        summation (allclose-level, unlike the Clifford paths), but its
        Gaussian shot-noise draws must land on points in sequential order:
        a permuted draw order would shift values by O(sigma) ~ 0.1, eleven
        orders of magnitude above the tolerance here.
        """
        problem = logical_problem()
        thetas = np.random.default_rng(11).uniform(
            0, 2 * np.pi, (10, problem.num_vqe_parameters))
        serial_est = make_estimator(problem, mode="exact", shots=128,
                                    seed=12)
        serial = np.array([serial_est.estimate(t).value for t in thetas])
        batch_est = make_estimator(problem, mode="exact", shots=128,
                                   seed=12)
        np.testing.assert_allclose(batch_est.estimate_many(thetas).values,
                                   serial, rtol=0, atol=1e-12)

    def test_shots_mode_estimate_many_matches_serial(self):
        problem = logical_problem(3)
        thetas = np.random.default_rng(13).uniform(
            0, 2 * np.pi, (4, problem.num_vqe_parameters))
        serial_est = make_estimator(problem, mode="shots", shots=256,
                                    seed=14)
        serial = np.array([serial_est.estimate(t).value for t in thetas])
        batch_est = make_estimator(problem, mode="shots", shots=256,
                                   seed=14)
        np.testing.assert_array_equal(batch_est.estimate_many(thetas).values,
                                      serial)


# ----------------------------------------------------------------------
# Estimator seed semantics (the make_estimator fix)
# ----------------------------------------------------------------------
class TestSeedSemantics:
    def test_seed_none_is_fresh_entropy_in_both_sampled_modes(self):
        problem = logical_problem(3)
        theta = np.full(problem.num_vqe_parameters, 0.3)
        for kwargs in ({"mode": "exact", "shots": 64},
                       {"mode": "shots", "shots": 64}):
            a = make_estimator(problem, **kwargs)
            b = make_estimator(problem, **kwargs)
            assert a.energy(theta) != b.energy(theta), kwargs

    def test_explicit_seed_is_reproducible_in_both_sampled_modes(self):
        problem = logical_problem(3)
        theta = np.full(problem.num_vqe_parameters, 0.3)
        for kwargs in ({"mode": "exact", "shots": 64},
                       {"mode": "shots", "shots": 64}):
            a = make_estimator(problem, seed=15, **kwargs)
            b = make_estimator(problem, seed=15, **kwargs)
            assert a.energy(theta) == b.energy(theta), kwargs
