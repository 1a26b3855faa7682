"""Integer-genome genetic algorithm (the package's PyGAD substitute).

Clapton and the CAFQA baselines search discrete spaces ``{0,1,2,3}^d``
(Sec. 4.1): genomes are integer vectors, fitness is the negated loss.  The
operator set matches what the paper's PyGAD configuration provides:
tournament selection, uniform crossover, per-gene random-reset mutation, and
elitism.

Each generation is bred as arrays, not child by child: one draw of
``(2 (P - elite), tournament_size)`` tournament contenders (winner = first
minimum), one crossover coin per child, one ``(P - elite, d)`` uniform
crossover mask, one ``(P - elite, d)`` mutation mask and one draw of the
reset genes -- five RNG calls per generation whatever ``P`` is.  A fixed
seed reproduces a run exactly within one version of this module; the order
of the draws (and so the trajectory) is not kept across versions.

Loss evaluations are memoised through the shared
:class:`~repro.execution.cache.MemoizedLoss` wrapper (converging populations
re-propose identical genomes constantly), and each generation is evaluated
as **one batch**: the wrapper dedupes the population within the batch and
against the cache, then dispatches only the distinct misses -- through the
loss's population-batched ``evaluate_many`` when it provides one (all the
Clifford losses do), else one call per miss.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ..execution.cache import MemoizedLoss, memoize_loss


@dataclass
class GAConfig:
    """Hyperparameters of one GA instance.

    Defaults follow the paper's working point (population |S| = 100); the
    generation count is supplied by the engine (its ``m``).
    """

    population_size: int = 100
    num_generations: int = 100
    tournament_size: int = 3
    crossover_rate: float = 0.9
    mutation_rate: float | None = None  # default: 1.5 / genome_length
    elite_count: int = 2


@dataclass
class GAResult:
    """Final state of a GA run, sorted best-first."""

    population: np.ndarray
    losses: np.ndarray
    best_genome: np.ndarray
    best_loss: float
    history: list[float] = field(default_factory=list)
    num_evaluations: int = 0


class GeneticAlgorithm:
    """Minimize ``loss_fn`` over integer genomes.

    Args:
        loss_fn: Maps a genome (1-D int array) to a float loss.  A loss
            exposing a population-batched ``evaluate_many(genomes)`` is
            dispatched one deduped batch per generation instead of one
            call per genome.
        genome_length: Number of genes.
        num_values: Genes take values ``0..num_values-1`` (4 throughout the
            paper: Clifford rotation levels / two-qubit slot choices).
        config: Hyperparameters.
        rng: Random generator (owned by the caller for reproducibility).

    Memoisation always goes through one
    :class:`~repro.execution.cache.MemoizedLoss`: a ``loss_fn`` that
    already is one is adopted, so GA instances run on the same wrapper
    (the engine's) share its table and never re-evaluate a genome; any
    other loss gets a fresh table.
    """

    def __init__(self, loss_fn: Callable[[np.ndarray], float],
                 genome_length: int, num_values: int = 4,
                 config: GAConfig | None = None,
                 rng: np.random.Generator | None = None):
        if genome_length < 1:
            raise ValueError("genome_length must be positive")
        self.loss_fn = loss_fn
        self._memo = (loss_fn if isinstance(loss_fn, MemoizedLoss)
                      else memoize_loss(loss_fn))
        self.cache = self._memo.cache
        self._misses_at_start = self._memo.misses
        self.genome_length = genome_length
        self.num_values = num_values
        self.config = config or GAConfig()
        self.rng = rng or np.random.default_rng()
        rate = self.config.mutation_rate
        self._mutation_rate = (min(1.0, 1.5 / genome_length)
                               if rate is None else rate)

    @property
    def num_evaluations(self) -> int:
        """Distinct loss evaluations this instance paid (cache misses)."""
        return self._memo.misses - self._misses_at_start

    # ------------------------------------------------------------------
    # Population utilities
    # ------------------------------------------------------------------
    def random_population(self, size: int) -> np.ndarray:
        return self.rng.integers(0, self.num_values,
                                 size=(size, self.genome_length))

    # ------------------------------------------------------------------
    # Breeding
    # ------------------------------------------------------------------
    def _breed(self, population: np.ndarray, losses: np.ndarray,
               num_children: int) -> np.ndarray:
        """``num_children`` children: winner ``pa``, crossed with winner
        ``pb`` at ``crossover_rate`` (else a copy of ``pa``), mutated."""
        rng, cfg, d = self.rng, self.config, self.genome_length
        contenders = rng.integers(0, len(losses), size=(
            2 * num_children, cfg.tournament_size))
        winners = contenders[np.arange(2 * num_children),
                             np.argmin(losses[contenders], axis=1)]
        parents = population[winners.reshape(num_children, 2)]
        crossed = rng.random(num_children) < cfg.crossover_rate
        take_b = crossed[:, None] & (rng.random((num_children, d)) >= 0.5)
        children = np.where(take_b, parents[:, 1], parents[:, 0])
        mutate = rng.random((num_children, d)) < self._mutation_rate
        children[mutate] = rng.integers(0, self.num_values,
                                        size=np.count_nonzero(mutate))
        return children

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------
    def run(self, initial_population: np.ndarray | None = None) -> GAResult:
        cfg = self.config
        if initial_population is None:
            population = self.random_population(cfg.population_size)
        else:
            population = np.asarray(initial_population, dtype=np.int64)
            if population.ndim != 2 or population.shape[1] != self.genome_length:
                raise ValueError("initial population has wrong shape")
            if len(population) < cfg.population_size:
                filler = self.random_population(
                    cfg.population_size - len(population))
                population = np.vstack([population, filler])
        losses = self._memo.evaluate_many(population)
        history = [float(losses.min())]
        elite = min(cfg.elite_count, cfg.population_size)

        for _ in range(cfg.num_generations):
            order = np.argsort(losses)
            population = population[order]
            losses = losses[order]
            children = self._breed(population, losses,
                                   cfg.population_size - elite)
            population = np.concatenate([population[:elite], children])
            losses = self._memo.evaluate_many(population)
            history.append(min(history[-1], float(losses.min())))

        order = np.argsort(losses)
        population = population[order]
        losses = losses[order]
        return GAResult(population=population, losses=losses,
                        best_genome=population[0].copy(),
                        best_loss=float(losses[0]), history=history,
                        num_evaluations=self.num_evaluations)
