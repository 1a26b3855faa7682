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
from repro.circuits import Circuit, Parameter, cafqa_angles
from repro.core import (
    CafqaLoss,
    ClaptonLoss,
    NcafqaLoss,
    VQEProblem,
    transform_table_many,
)
from repro.core import loss as loss_module
from repro.execution import make_estimator, memoize_loss
from repro.hamiltonians import get_benchmark, ising_model, xxz_model
from repro.noise import CliffordNoiseModel, NoiseModel
from repro.obs import REGISTRY
from repro.optim import GAConfig, GeneticAlgorithm
from repro.paulis import PauliString
from repro.paulis.pauli_sum import _coefficient_dots


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


def transpiled_flip_problem(n=4):
    problem = transpiled_problem(n)
    return dataclasses.replace(
        problem, noise_model=problem.noise_model.with_overrides(
            logical_flip_probs=(2e-3, 1e-3, 3e-3)))


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
        """Short genomes and entries outside 0..3 raise in every loss,
        nCAFQA included, whose walk alone would map any angle."""
        problem = logical_problem()
        for loss, length, short in (
                (ClaptonLoss(problem), problem.num_transformation_parameters,
                 "length"),
                (CafqaLoss(problem), problem.num_vqe_parameters,
                 "parameter values"),
                (NcafqaLoss(problem), problem.num_vqe_parameters,
                 "parameter values")):
            with pytest.raises(ValueError, match=short):
                loss.evaluate_many(np.zeros((3, 2), dtype=int))
            for bad in (7, -1):
                with pytest.raises(ValueError, match=r"\{0, 1, 2, 3\}"):
                    loss.evaluate_many(np.full((2, length), bad))

    @pytest.mark.parametrize("make_problem, relaxing, count", [
        (lambda: logical_problem(6), False, 19),
        (lambda: transpiled_flip_problem(6), True, 13),
        (lambda: VQEProblem.logical(xxz_model(5, 0.5)), False, 19),
        (lambda: logical_problem(6), False, 0),
    ], ids=["ising6", "nairobi-flips", "xxz5", "empty"])
    def test_ncafqa_components_match_oracle(self, make_problem, relaxing,
                                            count):
        """L_N and L_0 each equal the serial oracle's, sign bit included.

        The oracle's L_0 pulls the Hamiltonian back through the logical
        ansatz on a boolean table; the loss reads it off the end of its
        noisy walk through the (transpiled) evaluation circuit.
        """
        problem = make_problem()
        loss = NcafqaLoss(problem, clifford_model=(
            relaxing_model(problem) if relaxing else None))
        genomes = genome_batch(np.random.default_rng(23), count,
                               problem.num_vqe_parameters)
        if count:
            genomes[0] = 0
        noisy, noiseless = loss.components_many(genomes)
        expected = np.array([oracle.cafqa_components(loss, g)
                             for g in genomes]).reshape(count, 2)
        assert noisy.shape == noiseless.shape == (count,)
        np.testing.assert_array_equal(noisy.view(np.int64),
                                      expected[:, 0].view(np.int64))
        np.testing.assert_array_equal(noiseless.view(np.int64),
                                      expected[:, 1].view(np.int64))

    @pytest.mark.parametrize("hamiltonian", [
        lambda: ising_model(12, 1.0),
        lambda: xxz_model(8, 0.5),
        lambda: get_benchmark("molecule:name=LiH,l=1.5").build(),
    ], ids=["ising12", "xxz8", "lih"])
    @pytest.mark.parametrize("num_points", [0, 1, 100])
    def test_stacked_coefficient_dots_match_per_row_dot(self, hamiltonian,
                                                        num_points):
        """The losses' one stacked matmul equals the per-row dot bit for
        bit, sign bit included; a plain matrix-vector product would not
        (numpy sums it in another order)."""
        coeffs = hamiltonian().coefficients
        rng = np.random.default_rng(num_points)
        shape = (num_points, len(coeffs))
        values = (rng.choice([-1.0, 0.0, 1.0], size=shape)
                  * rng.uniform(0.5, 1.0, size=shape))
        values[1::7] = 0.0  # points whose terms all vanish: a signed zero
        per_row = np.array([float(coeffs @ row) for row in values])
        for stacked in (_coefficient_dots(values, coeffs, num_points),
                        _coefficient_dots(values.ravel(), coeffs,
                                          num_points)):
            assert stacked.shape == (num_points,)
            np.testing.assert_array_equal(stacked.view(np.int64),
                                          per_row.view(np.int64))


# ----------------------------------------------------------------------
# The noisy layer walk: nCAFQA's L_N and CliffordEstimator
# ----------------------------------------------------------------------
class TestSharedRowWalk:
    """Clapton walks block 0 and the rows that differ from it once half
    of a batch's rows repeat block 0's (``_walked_rows``), and copies
    block 0's values into the rest.  Every batch must give, byte for
    byte, the values of walking each genome on its own (P = 1)."""

    SHARED = REGISTRY.get("repro_walk_shared_rows_total")

    @staticmethod
    def crafted_blocks(problem, num_blocks, differing, seed):
        """``num_blocks`` copies of one transformed block, with the rows
        ``differing`` (indices into the stack, past block 0) replaced:
        even ones by their sign flip, odd ones by another genome's row
        where it differs (by the sign flip where it does not)."""
        rng = np.random.default_rng(seed)
        length = problem.num_transformation_parameters
        base, other = (transform_table_many(
            problem.hamiltonian, rng.integers(0, 4, size=(1, length)),
            problem.entanglement) for _ in range(2))
        table = base.tile(num_blocks)
        num_terms = base.num_rows
        for k, row in enumerate(sorted(differing)):
            assert row >= num_terms
            term = row % num_terms
            if k % 2 and (other.x[term] != base.x[term]).any():
                table.x[row] = other.x[term]
                table.z[row] = other.z[term]
                table.phase_exp[row] = other.phase_exp[term]
            else:
                table.phase_exp[row] = (base.phase_exp[term] + 2) % 4
        return table

    @staticmethod
    def fake_transform(monkeypatch, table, num_blocks):
        """Make genome ``[p]`` stand for block ``p`` of ``table``."""
        num_terms = table.num_rows // num_blocks

        def transform(hamiltonian, gammas, entanglement):
            rows = (gammas[:, :1] * num_terms + np.arange(num_terms)).ravel()
            return table.take(rows)

        monkeypatch.setattr(loss_module, "transform_table_many", transform)

    def assert_matches_single_walks(self, loss, genomes):
        noisy, noiseless = loss.components_many(genomes)
        for p, genome in enumerate(genomes):
            single = loss.components_many(genome[None, :])
            assert noisy[p:p + 1].tobytes() == single[0].tobytes()
            assert noiseless[p:p + 1].tobytes() == single[1].tobytes()

    @pytest.mark.parametrize("make_problem", [logical_problem,
                                              transpiled_problem])
    @pytest.mark.parametrize("case", ["none_equal", "all_equal", "p1",
                                      "p2_equal", "p2_one_differs",
                                      "just_under", "just_over"])
    def test_crafted_batches_match_single_walks(self, monkeypatch,
                                                make_problem, case):
        problem = make_problem()
        num_terms = problem.hamiltonian.num_terms
        num_blocks = {"p1": 1, "p2_equal": 2, "p2_one_differs": 2}.get(
            case, 4)
        num_rows = num_blocks * num_terms
        past_block0 = list(range(num_terms, num_rows))
        # shared iff walked rows (block 0 plus the differing ones) are at
        # most half of the rows: at 4 blocks, iff at most M rows differ
        differing, shared = {
            "none_equal": (past_block0, False),
            "all_equal": ([], True),
            "p1": ([], False),
            "p2_equal": ([], True),
            "p2_one_differs": (past_block0[-1:], False),
            "just_under": (past_block0[::2][:num_terms + 1], False),
            "just_over": (past_block0[::2][:num_terms], True),
        }[case]
        table = self.crafted_blocks(problem, num_blocks, differing, seed=3)
        walked = loss_module._walked_rows(table, num_blocks)
        if shared:
            np.testing.assert_array_equal(
                walked, [*range(num_terms), *sorted(differing)])
        else:
            assert walked is None
        self.fake_transform(monkeypatch, table, num_blocks)
        loss = ClaptonLoss(problem)
        genomes = np.arange(num_blocks)[:, None]
        before = self.SHARED.total()
        loss.evaluate_many(genomes)
        assert self.SHARED.total() - before == (
            num_rows - len(walked) if shared else 0)
        self.assert_matches_single_walks(loss, genomes)

    @pytest.mark.parametrize("make_problem", [logical_problem,
                                              transpiled_problem])
    def test_neighbourhood_batch_takes_the_shared_path(self, make_problem):
        """A tabu-style batch (one gene changed per genome) shares most
        rows; values match P = 1 walks and the boolean oracle."""
        problem = make_problem()
        length = problem.num_transformation_parameters
        rng = np.random.default_rng(12)
        current = rng.integers(0, 4, size=length)
        genomes = np.tile(current, (length, 1))
        genomes[np.arange(length), np.arange(length)] += 1
        genomes %= 4
        stacked = transform_table_many(problem.hamiltonian, genomes,
                                       problem.entanglement)
        assert loss_module._walked_rows(stacked, length) is not None
        loss = ClaptonLoss(problem)
        self.assert_matches_single_walks(loss, genomes)
        np.testing.assert_array_equal(
            loss.evaluate_many(genomes),
            [oracle.loss_value(loss, g) for g in genomes])

    def test_ncafqa_skips_the_cx_ring_but_can_still_build_it(self):
        """nCAFQA's batches never read CAFQA's CX-ring block, so its
        constructor does not compile it; ``logical_tables_many`` still
        builds it on first use and pulls back like CAFQA's."""
        problem = logical_problem()
        ncafqa = NcafqaLoss(problem)
        genomes = genome_batch(np.random.default_rng(5), 9,
                               problem.num_vqe_parameters)
        assert "_ring" not in vars(ncafqa)
        values = ncafqa.evaluate_many(genomes)
        assert "_ring" not in vars(ncafqa)
        np.testing.assert_array_equal(
            values, [oracle.loss_value(ncafqa, g) for g in genomes])
        tables = ncafqa.logical_tables_many(genomes)
        expected = CafqaLoss(problem).logical_tables_many(genomes)
        for plane in ("x", "z", "phase_exp"):
            np.testing.assert_array_equal(getattr(tables, plane),
                                          getattr(expected, plane))
        assert ncafqa.evaluate_many(genomes).tobytes() == values.tobytes()


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
        problem = transpiled_flip_problem()
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

    def test_clifford_estimator_checks_clifford_ness_once(self):
        """The plan checks its static gates when it compiles and
        ``reverse_schedule`` the angles, once per batch; the estimator
        raises its own message for either, and the "need N" message for
        a short point."""
        problem = logical_problem()
        estimator = make_estimator(problem, mode="clifford")
        d = problem.num_vqe_parameters
        thetas = self.clifford_thetas(problem, 3, seed=21)
        for bad_angle in (0.3, np.nan):
            bad = thetas.copy()
            bad[1, 2] = bad_angle
            with pytest.raises(ValueError, match="Clifford parameter point"):
                estimator.estimate_many(bad)
            with pytest.raises(ValueError, match="Clifford parameter point"):
                estimator.estimate(bad[1])
        with pytest.raises(ValueError, match=f"need {d} parameter values"):
            estimator.estimate_many(thetas[:, :-1])
        with pytest.raises(ValueError, match=f"need {d} parameter values"):
            estimator.estimate(thetas[0, :-1])
        assert estimator.num_evaluations == 0

        static = Circuit(problem.num_eval_qubits)
        static.rz(0.3, 0)
        non_clifford = dataclasses.replace(
            problem, eval_ansatz=problem.eval_ansatz.compose(static))
        estimator = make_estimator(non_clifford, mode="clifford")
        with pytest.raises(ValueError, match="Clifford parameter point"):
            estimator.estimate_many(thetas)
        # the same template still binds, for an engine that needs no
        # Clifford walk
        exact = make_estimator(non_clifford, mode="exact")
        assert np.isfinite(exact.estimate(thetas[0]).value)

    def test_clifford_estimator_edge_angles_bit_identical(self):
        """Angles within ``tol`` of 0 (mod 2 pi) drop as identities, and a
        parameter no rotation reads is not checked: the values are the
        oracle's on the bound, identity-dropped circuits, byte for byte."""
        template = Circuit(3)
        template.ry(Parameter(0), 0).ry(Parameter(1), 1).cx(0, 1)
        template.rz(Parameter(3), 2).cx(1, 2).rx(Parameter(4), 0)
        problem = dataclasses.replace(logical_problem(3),
                                      eval_ansatz=template)
        estimator = make_estimator(problem, mode="clifford",
                                   clifford_model=relaxing_model(problem))
        half = np.pi / 2
        thetas = np.array([
            [half, 1e-13, 0.3, np.pi, -1e-13],
            [2 * np.pi - 1e-13, -half, 0.3, 1e-13, 3 * half],
            [0.0, np.pi, 0.0, half, np.pi],
        ])
        terms = self.oracle_terms(estimator, thetas)
        batch = estimator.estimate_many(thetas)
        assert batch.term_expectations.tobytes() == terms.tobytes()
        coefficients = estimator.observable.coefficients
        assert batch.values.tobytes() == np.array(
            [float(coefficients @ row) for row in terms]).tobytes()
        for theta, value in zip(thetas, batch.values):
            assert estimator.estimate(theta).value == value

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
        """Two unseeded estimators draw different sequences.  One 64-shot
        draw each ties in about 4% of trials, so eight are compared."""
        problem = logical_problem(3)
        theta = np.full(problem.num_vqe_parameters, 0.3)
        for kwargs in ({"mode": "exact", "shots": 64},
                       {"mode": "shots", "shots": 64}):
            a = make_estimator(problem, **kwargs)
            b = make_estimator(problem, **kwargs)
            draws_a = [a.energy(theta) for _ in range(8)]
            draws_b = [b.energy(theta) for _ in range(8)]
            assert draws_a != draws_b, kwargs

    def test_explicit_seed_is_reproducible_in_both_sampled_modes(self):
        problem = logical_problem(3)
        theta = np.full(problem.num_vqe_parameters, 0.3)
        for kwargs in ({"mode": "exact", "shots": 64},
                       {"mode": "shots", "shots": 64}):
            a = make_estimator(problem, seed=15, **kwargs)
            b = make_estimator(problem, seed=15, **kwargs)
            assert a.energy(theta) == b.energy(theta), kwargs
