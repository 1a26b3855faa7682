"""Tests for the GA, the Figure-4 engine, and SPSA on toy objectives."""

import numpy as np
import pytest

from repro.execution import ProcessExecutor, memoize_loss
from repro.optim import (
    EngineConfig,
    GAConfig,
    GeneticAlgorithm,
    SPSAConfig,
    minimize_spsa,
    multi_ga_minimize,
)


def count_nonzero_loss(genome):
    """Global minimum 0 at the all-zeros genome."""
    return float(np.count_nonzero(genome))


def target_match_loss(target):
    def loss(genome):
        return float(np.sum(genome != target))
    return loss


class TestGeneticAlgorithm:
    def test_finds_trivial_optimum(self):
        rng = np.random.default_rng(0)
        ga = GeneticAlgorithm(count_nonzero_loss, genome_length=12,
                              config=GAConfig(population_size=40,
                                              num_generations=60), rng=rng)
        result = ga.run()
        assert result.best_loss == 0.0
        assert np.all(result.best_genome == 0)

    def test_finds_arbitrary_target(self):
        rng = np.random.default_rng(1)
        target = rng.integers(0, 4, size=10)
        ga = GeneticAlgorithm(target_match_loss(target), genome_length=10,
                              config=GAConfig(population_size=50,
                                              num_generations=80), rng=rng)
        result = ga.run()
        assert result.best_loss == 0.0

    def test_history_monotone(self):
        rng = np.random.default_rng(2)
        ga = GeneticAlgorithm(count_nonzero_loss, genome_length=20,
                              config=GAConfig(population_size=30,
                                              num_generations=30), rng=rng)
        result = ga.run()
        assert all(a >= b for a, b in zip(result.history, result.history[1:]))

    def test_cache_prevents_reevaluation(self):
        calls = []

        def counting_loss(genome):
            calls.append(1)
            return count_nonzero_loss(genome)

        rng = np.random.default_rng(3)
        memo = memoize_loss(counting_loss)
        ga = GeneticAlgorithm(memo, genome_length=4,
                              config=GAConfig(population_size=20,
                                              num_generations=30),
                              rng=rng)
        ga.run()
        # only 4^4 = 256 distinct genomes exist; far fewer calls than the
        # 20 * 31 evaluations a cache-less run would make
        assert len(calls) == len(memo.cache)
        assert len(calls) <= 256

    def test_initial_population_respected_and_topped_up(self):
        rng = np.random.default_rng(4)
        seed_pop = np.zeros((5, 8), dtype=int)
        ga = GeneticAlgorithm(count_nonzero_loss, genome_length=8,
                              config=GAConfig(population_size=20,
                                              num_generations=1), rng=rng)
        result = ga.run(initial_population=seed_pop)
        assert result.best_loss == 0.0  # the seeded optimum survives elitism

    def test_validation(self):
        with pytest.raises(ValueError):
            GeneticAlgorithm(count_nonzero_loss, genome_length=0)
        rng = np.random.default_rng(0)
        ga = GeneticAlgorithm(count_nonzero_loss, genome_length=3, rng=rng)
        with pytest.raises(ValueError):
            ga.run(initial_population=np.zeros((2, 5), dtype=int))

    def test_genes_stay_in_range(self):
        rng = np.random.default_rng(5)
        ga = GeneticAlgorithm(count_nonzero_loss, genome_length=6,
                              num_values=3,
                              config=GAConfig(population_size=15,
                                              num_generations=20), rng=rng)
        result = ga.run()
        assert result.population.min() >= 0
        assert result.population.max() <= 2


class CountingRng:
    """Generator proxy that counts the draws made through it."""

    def __init__(self, seed):
        self._rng = np.random.default_rng(seed)
        self.calls = 0

    def __getattr__(self, name):
        method = getattr(self._rng, name)

        def counted(*args, **kwargs):
            self.calls += 1
            return method(*args, **kwargs)
        return counted


def first_argmin_winners(contenders, losses):
    """Reference tournament: the first contender with the least loss."""
    winners = np.empty(contenders.shape[:-1], dtype=np.int64)
    for index in np.ndindex(winners.shape):
        row = list(contenders[index])
        values = [losses[c] for c in row]
        winners[index] = row[values.index(min(values))]
    return winners


class TestBreeding:
    P, D, T = 40, 6, 3

    def breed(self, seed, num_children, population, losses, **config):
        ga = GeneticAlgorithm(count_nonzero_loss, genome_length=self.D,
                              config=GAConfig(tournament_size=self.T,
                                              **config),
                              rng=np.random.default_rng(seed))
        return ga._breed(population, losses, num_children)

    def tied_generation(self):
        # distinct rows (row i encodes i in base 4) and many tied losses
        population = (np.arange(self.P)[:, None]
                      // 4 ** np.arange(self.D)) % 4
        losses = np.random.default_rng(9).integers(0, 3, self.P).astype(float)
        return population, losses

    def expected_winners(self, seed, num_children):
        contenders = np.random.default_rng(seed).integers(
            0, self.P, size=(num_children, 2, self.T))
        return first_argmin_winners(contenders, self.tied_generation()[1])

    def test_elites_survive_unchanged(self):
        ga = GeneticAlgorithm(count_nonzero_loss, genome_length=8,
                              config=GAConfig(population_size=12,
                                              num_generations=1,
                                              elite_count=3),
                              rng=np.random.default_rng(0))
        batches = []
        evaluate_many = ga._memo.evaluate_many

        def recording(population):
            batches.append(population.copy())
            return evaluate_many(population)

        ga._memo.evaluate_many = recording
        initial = np.random.default_rng(1).integers(1, 4, size=(12, 8))
        initial[[4, 7, 9]] = [[0] * 8, [1] + [0] * 7, [0, 2] + [0] * 6]
        ga.run(initial_population=initial)
        np.testing.assert_array_equal(batches[-1][:3], initial[[4, 7, 9]])

    def test_winner_is_first_argmin_and_children_copy_it(self):
        population, losses = self.tied_generation()
        children = self.breed(0, 25, population, losses,
                              crossover_rate=0.0, mutation_rate=0.0)
        winners = self.expected_winners(0, 25)
        np.testing.assert_array_equal(children, population[winners[:, 0]])

    def test_full_crossover_takes_every_gene_from_a_parent(self):
        population, losses = self.tied_generation()
        children = self.breed(1, 200, population, losses,
                              crossover_rate=1.0, mutation_rate=0.0)
        winners = self.expected_winners(1, 200)
        pa, pb = population[winners[:, 0]], population[winners[:, 1]]
        assert np.all((children == pa) | (children == pb))
        assert np.any((children != pa) & (children == pb))

    def test_mutation_frequency_and_reset_values(self):
        rate, num_values, children = 0.2, 4, 500
        sentinel = np.full((self.P, self.D), num_values)  # no real gene
        out = self.breed(2, children, sentinel, np.zeros(self.P),
                         crossover_rate=0.0, mutation_rate=rate)
        mutated = out != num_values
        n = mutated.size
        assert abs(mutated.mean() - rate) <= 5 * np.sqrt(rate * (1 - rate) / n)
        assert set(np.unique(out[mutated])) == set(range(num_values))

    def test_initial_population_larger_than_population_size(self):
        ga = GeneticAlgorithm(count_nonzero_loss, genome_length=5,
                              config=GAConfig(population_size=10,
                                              num_generations=3),
                              rng=np.random.default_rng(3))
        big = np.random.default_rng(4).integers(0, 4, size=(30, 5))
        big[17] = 0
        result = ga.run(initial_population=big)
        assert result.population.shape == (10, 5)
        assert result.best_loss == 0.0

    @pytest.mark.parametrize("population_size", [2, 3])
    def test_population_not_larger_than_elite(self, population_size):
        ga = GeneticAlgorithm(count_nonzero_loss, genome_length=5,
                              config=GAConfig(population_size=population_size,
                                              num_generations=4,
                                              elite_count=3),
                              rng=np.random.default_rng(5))
        result = ga.run()
        assert result.population.shape == (population_size, 5)
        assert result.history[-1] == result.history[0]  # nothing is bred

    def test_draws_per_generation_do_not_grow_with_population(self):
        def draws(population_size, generations):
            rng = CountingRng(6)
            GeneticAlgorithm(count_nonzero_loss, genome_length=7,
                             config=GAConfig(population_size=population_size,
                                             num_generations=generations),
                             rng=rng).run()
            return rng.calls

        per_generation = {size: (draws(size, 4) - draws(size, 1)) / 3
                          for size in (10, 200)}
        assert per_generation[10] == per_generation[200] == 5


class TestEngine:
    def test_converges_on_toy_problem(self):
        config = EngineConfig(num_instances=3, generations_per_round=15,
                              top_k=5, population_size=25, seed=0)
        result = multi_ga_minimize(count_nonzero_loss, genome_length=10,
                                   config=config)
        assert result.best_loss == 0.0
        assert result.num_rounds >= 1
        assert result.num_evaluations > 0
        assert result.total_seconds > 0

    def test_round_bookkeeping(self):
        config = EngineConfig(num_instances=2, generations_per_round=5,
                              top_k=3, population_size=10, seed=1)
        result = multi_ga_minimize(count_nonzero_loss, genome_length=6,
                                   config=config)
        losses = [t.best_loss for t in result.trace]
        assert all(a >= b for a, b in zip(losses, losses[1:]))
        # convergence: last retry_rounds+1 rounds show no improvement
        assert losses[-1] == result.best_loss

    def test_retry_rounds_bound_total_rounds(self):
        """A constant loss must terminate after exactly 1 + retries rounds."""
        config = EngineConfig(num_instances=1, generations_per_round=2,
                              top_k=2, population_size=5, retry_rounds=2,
                              seed=2)
        result = multi_ga_minimize(lambda g: 1.0, genome_length=3,
                                   config=config)
        assert result.num_rounds == 1 + 2 + 1  # first + 2 retries + final

    def test_reports_a_search_result(self):
        """The engine is the ``multi_ga`` strategy: it returns the search
        axis's result type, one trace record per round, and names the
        rule that ended the run."""
        from repro.search import SearchResult

        config = EngineConfig(num_instances=1, generations_per_round=2,
                              top_k=2, population_size=5, retry_rounds=2,
                              seed=2)
        converged = multi_ga_minimize(lambda g: 1.0, genome_length=3,
                                      config=config)
        assert isinstance(converged, SearchResult)
        assert converged.strategy == "multi_ga"
        assert converged.stopped_by == "converged"
        assert [t.round_index for t in converged.trace] == [0, 1, 2, 3]
        assert sum(t.num_evaluations for t in converged.trace) \
            == converged.num_evaluations == converged.cache_stats["misses"]
        config.max_rounds = 2
        capped = multi_ga_minimize(lambda g: 1.0, genome_length=3,
                                   config=config)
        assert capped.stopped_by == "rounds" and capped.num_rounds == 2


class TestEngineEdgeCases:
    def test_top_k_zero_completes_with_fresh_reseeds(self):
        """Regression: an empty elite pool used to crash rng.choice after
        the round had already burned all its evaluations."""
        config = EngineConfig(num_instances=2, generations_per_round=2,
                              top_k=0, population_size=6, retry_rounds=1,
                              max_rounds=4, seed=0)
        result = multi_ga_minimize(count_nonzero_loss, genome_length=5,
                                   config=config)
        assert np.isfinite(result.best_loss)
        assert result.num_rounds >= 2  # it survived at least one mix step

    def test_config_validated_before_any_evaluation(self):
        calls = []

        def counting_loss(genome):
            calls.append(1)
            return 0.0

        bad = [EngineConfig(num_instances=0),
               EngineConfig(population_size=0),
               EngineConfig(max_rounds=0),
               EngineConfig(top_k=-1),
               EngineConfig(retry_rounds=-1),
               EngineConfig(generations_per_round=-1),
               EngineConfig(pool_fraction=1.5),
               EngineConfig(parallel_axis="bogus")]
        for config in bad:
            with pytest.raises(ValueError, match="EngineConfig"):
                multi_ga_minimize(counting_loss, genome_length=3,
                                  config=config)
        assert calls == []

    @pytest.mark.parametrize("ga", [
        {"tournament_size": 0}, {"crossover_rate": 1.5},
        {"crossover_rate": -0.1}, {"mutation_rate": 2.0},
        {"mutation_rate": -0.5}, {"elite_count": -3}, {"elite_count": 11},
    ])
    def test_ga_block_validated_before_any_evaluation(self, ga):
        """Campaign spec JSON reaches the GA block through
        ``engine_from_dict``; a bad value must fail before the first
        batch, not mid-run."""
        from repro.campaigns.spec import engine_from_dict

        calls = []

        def counting_loss(genome):
            calls.append(1)
            return 0.0

        config = engine_from_dict({"population_size": 10, "ga": ga})
        (field,) = ga
        with pytest.raises(ValueError, match=f"EngineConfig.ga.{field}"):
            multi_ga_minimize(counting_loss, genome_length=3, config=config)
        assert calls == []

    def test_ga_block_accepts_its_boundaries(self):
        for ga in (GAConfig(tournament_size=1, crossover_rate=0.0,
                            mutation_rate=0.0, elite_count=0),
                   GAConfig(crossover_rate=1.0, mutation_rate=1.0,
                            elite_count=10),
                   GAConfig(mutation_rate=None)):
            EngineConfig(population_size=10, ga=ga).validate()

    def test_ga_accounting_lives_in_shared_wrapper(self):
        from repro.execution import memoize_loss

        memo = memoize_loss(count_nonzero_loss)
        ga = GeneticAlgorithm(memo, genome_length=4,
                              config=GAConfig(population_size=15,
                                              num_generations=10),
                              rng=np.random.default_rng(8))
        ga.run()
        assert ga.num_evaluations == memo.misses == len(memo.cache)


class TestSPSA:
    def test_quadratic_convergence(self):
        target = np.array([1.0, -2.0, 0.5])

        def loss(x):
            return float(np.sum((x - target) ** 2))

        result = minimize_spsa(loss, np.zeros(3),
                               SPSAConfig(maxiter=400, seed=0))
        np.testing.assert_allclose(result.x, target, atol=0.15)
        assert result.loss < 0.05

    def test_noisy_quadratic(self):
        rng = np.random.default_rng(7)
        target = np.full(4, 0.7)

        def loss(x):
            return float(np.sum((x - target) ** 2) + 0.01 * rng.normal())

        result = minimize_spsa(loss, np.zeros(4),
                               SPSAConfig(maxiter=600, seed=1))
        np.testing.assert_allclose(result.x, target, atol=0.25)

    def test_history_and_callback(self):
        seen = []
        result = minimize_spsa(lambda x: float(x @ x), np.ones(2),
                               SPSAConfig(maxiter=50, seed=2),
                               callback=lambda k, x, f: seen.append(k))
        assert len(result.history) == 50
        assert seen == list(range(50))

    def test_bounds_respected(self):
        result = minimize_spsa(lambda x: float(np.sum(-x)), np.zeros(3),
                               SPSAConfig(maxiter=100, seed=3,
                                          bounds=(0.0, 1.0)))
        assert (result.x >= 0).all() and (result.x <= 1).all()

    def test_explicit_a_skips_calibration(self):
        calls = []

        def loss(x):
            calls.append(1)
            return float(x @ x)

        minimize_spsa(loss, np.ones(2), SPSAConfig(maxiter=10, a=0.1, seed=4))
        assert len(calls) == 2 * 10 + 1  # no calibration probes


class TestParallelEngine:
    def test_parallel_matches_quality(self):
        """Parallel engine finds the same optimum on a toy problem."""
        config = EngineConfig(num_instances=2, generations_per_round=10,
                              top_k=4, population_size=16, retry_rounds=0,
                              seed=3)
        with ProcessExecutor(2) as executor:
            result = multi_ga_minimize(count_nonzero_loss, genome_length=8,
                                       config=config, executor=executor)
        assert result.best_loss == 0.0
        assert result.num_evaluations > 0

    def test_parallel_reproducible(self):
        config = EngineConfig(num_instances=2, generations_per_round=8,
                              top_k=3, population_size=12, retry_rounds=0,
                              seed=5)
        with ProcessExecutor(2) as executor:
            a = multi_ga_minimize(count_nonzero_loss, genome_length=6,
                                  config=config, executor=executor)
            b = multi_ga_minimize(count_nonzero_loss, genome_length=6,
                                  config=config, executor=executor)
        assert a.best_loss == b.best_loss
        np.testing.assert_array_equal(a.best_genome, b.best_genome)
