"""Equivalence suite for the unified estimation/execution API.

Pins the redesign's contracts: batched ``estimate_many`` matches sequential
``estimate`` bit-for-bit, every executor drives the Figure-4 engine
through the same schedule (serial, thread and process runs agree), the
shared memoiser works under all of them, and the ``Experiment`` façade
reproduces the legacy runner numbers exactly.
"""

import json

import numpy as np
import pytest

from repro.core import ClaptonLoss, VQEProblem, cafqa
from repro.execution import (
    BatchResult,
    EstimateResult,
    Estimator,
    ProcessExecutor,
    SerialExecutor,
    ThreadExecutor,
    make_estimator,
    memoize_loss,
)
from repro.experiments import Experiment, ExperimentResult, compare_initializations
from repro.hamiltonians import ising_model
from repro.noise import NoiseModel
from repro.optim import EngineConfig, multi_ga_minimize

ENGINE = EngineConfig(num_instances=2, generations_per_round=8, top_k=4,
                      population_size=14, retry_rounds=0, seed=0)


def make_problem(n=3, noisy=True):
    h = ising_model(n, 1.0)
    nm = (NoiseModel.uniform(n, depol_1q=1e-3, depol_2q=8e-3, readout=0.02,
                             t1=80e-6)
          if noisy else NoiseModel.noiseless(n))
    return VQEProblem.logical(h, noise_model=nm)


def count_nonzero_loss(genome):
    """Toy objective (top-level so process executors can pickle it)."""
    return float(np.count_nonzero(genome))


# ----------------------------------------------------------------------
# Estimators
# ----------------------------------------------------------------------
class TestEstimators:
    def test_batched_matches_sequential_exact(self):
        problem = make_problem()
        est = make_estimator(problem, mode="exact")
        rng = np.random.default_rng(0)
        thetas = rng.uniform(0, 2 * np.pi, (12, problem.num_vqe_parameters))
        sequential = np.array([est.estimate(t).value for t in thetas])
        batch = est.estimate_many(thetas)
        assert isinstance(batch, BatchResult)
        np.testing.assert_allclose(batch.values, sequential, atol=1e-12)
        assert est.num_evaluations == 24
        assert batch.term_expectations.shape == (12, problem.hamiltonian.num_terms)

    def test_batched_matches_sequential_with_shot_emulation(self):
        problem = make_problem()
        thetas = np.random.default_rng(1).uniform(
            0, 2 * np.pi, (5, problem.num_vqe_parameters))
        a = make_estimator(problem, mode="exact", shots=256, seed=3)
        b = make_estimator(problem, mode="exact", shots=256, seed=3)
        sequential = np.array([a.estimate(t).value for t in thetas])
        np.testing.assert_allclose(b.estimate_many(thetas).values,
                                   sequential, atol=1e-12)

    def test_batched_matches_sequential_counts(self):
        problem = make_problem()
        thetas = np.random.default_rng(2).uniform(
            0, 2 * np.pi, (3, problem.num_vqe_parameters))
        a = make_estimator(problem, mode="shots", shots=512, seed=4)
        b = make_estimator(problem, mode="shots", shots=512, seed=4)
        sequential = np.array([a.estimate(t).value for t in thetas])
        np.testing.assert_allclose(b.estimate_many(thetas).values,
                                   sequential, atol=1e-12)

    def test_clifford_fast_path_matches_exact_when_noiseless(self):
        problem = make_problem(noisy=False)
        exact = make_estimator(problem, mode="exact")
        clifford = make_estimator(problem, mode="clifford")
        rng = np.random.default_rng(5)
        thetas = (np.pi / 2) * rng.integers(
            0, 4, (6, problem.num_vqe_parameters))
        np.testing.assert_allclose(clifford.estimate_many(thetas).values,
                                   exact.estimate_many(thetas).values,
                                   atol=1e-10)

    def test_clifford_rejects_non_clifford_points(self):
        problem = make_problem()
        est = make_estimator(problem, mode="clifford")
        with pytest.raises(ValueError):
            est.estimate(np.full(problem.num_vqe_parameters, 0.3))

    def test_estimate_result_provenance(self):
        problem = make_problem()
        est = make_estimator(problem, mode="exact", shots=128, seed=0)
        result = est.estimate(np.zeros(problem.num_vqe_parameters))
        assert isinstance(result, EstimateResult)
        assert result.mode == "exact" and result.shots == 128
        assert result.variance > 0 and result.seconds > 0
        assert result.value != result.exact_value  # shot noise applied

    def test_factory_validation_and_protocol(self):
        problem = make_problem()
        est = make_estimator(problem)
        assert isinstance(est, Estimator)
        with pytest.raises(ValueError):
            make_estimator(problem, mode="bogus")
        with pytest.raises(ValueError):
            make_estimator(problem, noise_model=NoiseModel.noiseless(7))
        # mode-irrelevant arguments are rejected, not silently ignored
        with pytest.raises(ValueError, match="do not apply"):
            make_estimator(problem, mode="exact", readout_mitigation=True)
        with pytest.raises(ValueError, match="do not apply"):
            make_estimator(problem, mode="clifford", shots=128)

    def test_counts_estimate_has_no_exact_value(self):
        problem = make_problem()
        est = make_estimator(problem, mode="shots", shots=64, seed=0)
        result = est.estimate(np.zeros(problem.num_vqe_parameters))
        assert result.exact_value is None and result.variance is None


# ----------------------------------------------------------------------
# Executors + engine
# ----------------------------------------------------------------------
class TestExecutors:
    def test_map_preserves_order(self):
        items = list(range(7))
        for executor in (SerialExecutor(), ThreadExecutor(3),
                         ProcessExecutor(2)):
            with executor:
                assert executor.map(str, items) == [str(i) for i in items]

    def test_engine_serial_default_unchanged(self):
        a = multi_ga_minimize(count_nonzero_loss, 8, config=ENGINE)
        b = multi_ga_minimize(count_nonzero_loss, 8, config=ENGINE,
                              executor=SerialExecutor())
        assert a.best_loss == b.best_loss
        np.testing.assert_array_equal(a.best_genome, b.best_genome)
        assert a.num_evaluations == b.num_evaluations

    def test_engine_thread_and_process_agree(self):
        """Every executor runs the one engine schedule and only shards
        each generation's batch, so serial, threaded (any worker count)
        and multi-process runs are identical round by round."""
        problem = make_problem()
        loss = ClaptonLoss(problem)
        config = EngineConfig(num_instances=2, generations_per_round=5,
                              top_k=3, population_size=10, retry_rounds=1,
                              seed=0)

        def run(executor):
            with executor:
                result = multi_ga_minimize(
                    loss, problem.num_transformation_parameters,
                    config=config, executor=executor)
            trace = [(t.best_loss, t.num_evaluations) for t in result.trace]
            return (result.best_genome.tolist(), result.best_loss,
                    result.num_evaluations, trace)

        serial = run(SerialExecutor())
        assert len(serial[3]) >= 2
        for executor in (ThreadExecutor(2), ThreadExecutor(4),
                         ProcessExecutor(2)):
            assert run(executor) == serial, executor

    def test_engine_parallel_deterministic_across_worker_counts(self):
        with ThreadExecutor(1) as one, ThreadExecutor(4) as four:
            a = multi_ga_minimize(count_nonzero_loss, 8, config=ENGINE,
                                  executor=one)
            b = multi_ga_minimize(count_nonzero_loss, 8, config=ENGINE,
                                  executor=four)
        assert a.best_loss == b.best_loss
        np.testing.assert_array_equal(a.best_genome, b.best_genome)
        assert a.num_evaluations == b.num_evaluations

    def test_process_shards_fold_kernel_counters(self):
        """Packed-kernel work done in worker processes reaches the
        parent's KERNEL counters whether or not tracing is on."""
        from repro.obs.kernel import KERNEL

        problem = make_problem()
        loss = ClaptonLoss(problem)
        rows = []
        for executor in (ThreadExecutor(2), ProcessExecutor(2)):
            with executor:
                before = KERNEL.snapshot()
                multi_ga_minimize(loss, problem.num_transformation_parameters,
                                  config=ENGINE, executor=executor)
                rows.append(KERNEL.delta(before)["rows"])
        assert rows[0] == rows[1] > 0

    def test_parallel_cache_persists_across_rounds(self):
        """The old parallel path re-evaluated repeated genomes every round."""
        config = EngineConfig(num_instances=2, generations_per_round=6,
                              top_k=3, population_size=10, retry_rounds=2,
                              max_rounds=6, seed=2)
        with ThreadExecutor(2) as threads:
            result = multi_ga_minimize(count_nonzero_loss, 2, config=config,
                                       executor=threads)
        # only 4^2 = 16 distinct genomes exist; with a cross-round cache the
        # later rounds cannot spend full population * generations evaluations
        assert result.num_rounds >= 3
        for record in result.trace[1:]:
            assert record.num_evaluations <= 2 * 16


class TestMemoizeLoss:
    def test_caches_and_merges(self):
        calls = []

        def loss(genome):
            calls.append(1)
            return float(np.sum(genome))

        memo = memoize_loss(loss)
        g = np.array([1, 2, 3])
        assert memo(g) == 6.0 and memo(g) == 6.0
        assert len(calls) == 1 and memo.hits == 1 and memo.misses == 1
        assert len(memo) == 1


# ----------------------------------------------------------------------
# Experiment façade
# ----------------------------------------------------------------------
class TestExperiment:
    def test_reproduces_legacy_runner_exactly(self):
        h = ising_model(3, 1.0)
        nm = NoiseModel.uniform(3, depol_1q=1e-3, depol_2q=1e-2,
                                readout=0.02, t1=80e-6)
        row = compare_initializations(
            "ising3", h, VQEProblem.logical(h, noise_model=nm),
            config=ENGINE, vqe_iterations=4)
        result = Experiment(h, noise_model=nm, name="ising3").run(
            config=ENGINE, vqe_iterations=4)
        assert result.benchmark == "ising3"
        for method, evaluation in row.evaluations.items():
            assert result.runs[method].evaluation == evaluation
            assert (result.runs[method].vqe.final_energy
                    == row.vqe[method].final_energy)
        assert result.eta_initial("cafqa") == row.eta_initial("cafqa")

    def test_json_round_trip(self):
        h = ising_model(3, 1.0)
        result = Experiment(h).run(methods=("cafqa",), config=ENGINE,
                                   vqe_iterations=3)
        data = json.loads(json.dumps(result.to_dict()))
        restored = ExperimentResult.from_dict(data)
        assert restored.to_dict() == result.to_dict()
        assert restored.runs["cafqa"].vqe.num_evaluations > 0

    def test_rejects_unknown_method(self):
        with pytest.raises(ValueError):
            Experiment(ising_model(3, 1.0)).run(methods=("bogus",),
                                                config=ENGINE)

    def test_executor_threads_through_facade(self):
        h = ising_model(3, 1.0)
        with ThreadExecutor(2) as threads:
            a = Experiment(h).run(methods=("cafqa",), config=ENGINE,
                                  executor=threads)
            b = Experiment(h).run(methods=("cafqa",), config=ENGINE,
                                  executor=threads)
        assert (a.runs["cafqa"].evaluation.device_model
                == b.runs["cafqa"].evaluation.device_model)


# ----------------------------------------------------------------------
# VQE evaluation breakdown (bugfix)
# ----------------------------------------------------------------------
class TestEvaluationBreakdown:
    def test_trace_counts_every_tier(self):
        problem = make_problem()
        init = cafqa(problem, config=ENGINE)
        from repro.vqe import run_vqe

        trace = run_vqe(init, maxiter=5, seed=1)
        tiers = trace.evaluations_by_tier
        assert tiers["exact"] == 2          # the two endpoint energies
        assert tiers["noisy"] >= 2 * 5      # SPSA pays 2/iteration
        assert "hardware" not in tiers      # no twin attached
        assert trace.num_evaluations == sum(tiers.values())
