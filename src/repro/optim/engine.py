"""The multi-GA optimization engine of Figure 4.

Clapton spawns ``s`` GA instances from random populations, runs each for
``m`` generations, pools the top ``k`` solutions of every instance, shuffles
the pool into ``s`` fresh starting populations topped up with new random
guesses, and repeats rounds until the global loss stops decreasing (with a
configurable number of retry rounds -- the paper allows two).

The same engine drives Clapton, CAFQA, and nCAFQA (Sec. 5.2 builds the
baselines on "an optimization engine similar to the one shown in Figure 4"),
so method comparisons isolate the *cost function*, not the optimizer.
It is the ``multi_ga`` point of the search axis: the round loop lives in
:class:`~repro.search.strategies.MultiGAStrategy` and runs through the
same driver as every other strategy, and :func:`multi_ga_minimize` is
that strategy under its default budget.  This module keeps the engine's
working point (:class:`EngineConfig`).

There is one schedule: within a round the instances run one after
another on one memo table, and one rng threads through every instance
and the mixing step, so a seed reproduces a run within one version of
the GA's draws (see :mod:`repro.optim.genetic`).  Each generation's
batch is evaluated inline; parallelism lives at the campaign-task level
(:class:`~repro.campaigns.CampaignRunner`, ``repro sweep --jobs``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

import numpy as np

from .genetic import GAConfig

if TYPE_CHECKING:  # annotation only; repro.search imports this module
    from ..search.base import SearchResult


@dataclass
class EngineConfig:
    """Hyperparameters of the Figure-4 engine.

    The defaults are the paper's working point: ``s = 10`` instances,
    ``m = 100`` iterations, top ``k = 20`` pooled per instance, population
    ``|S| = 100``, and two retry rounds before declaring convergence.
    Benchmarks shrink these (documented per-bench) to keep runtimes civil.
    """

    num_instances: int = 10          # s
    generations_per_round: int = 100  # m
    top_k: int = 20                   # k
    population_size: int = 100        # |S|
    retry_rounds: int = 2
    max_rounds: int = 50
    pool_fraction: float = 0.5
    ga: GAConfig = field(default_factory=GAConfig)
    seed: int | None = None

    def validate(self) -> None:
        """Reject configurations the round loop cannot run to completion.

        Called by :meth:`~repro.search.SearchStrategy.minimize` before
        any evaluation is spent, so a bad working point fails fast instead
        of burning a full round and then crashing in the breeding or mix
        step.
        """
        for name in ("num_instances", "population_size", "max_rounds"):
            if getattr(self, name) < 1:
                raise ValueError(f"EngineConfig.{name} must be >= 1")
        for name in ("generations_per_round", "top_k", "retry_rounds"):
            if getattr(self, name) < 0:
                raise ValueError(f"EngineConfig.{name} must be >= 0")
        if not 0.0 <= self.pool_fraction <= 1.0:
            raise ValueError("EngineConfig.pool_fraction must be in [0, 1]")
        ga = self.ga
        if ga.tournament_size < 1:
            raise ValueError("EngineConfig.ga.tournament_size must be >= 1")
        if not 0.0 <= ga.crossover_rate <= 1.0:
            raise ValueError("EngineConfig.ga.crossover_rate must be in "
                             "[0, 1]")
        if ga.mutation_rate is not None and not 0.0 <= ga.mutation_rate <= 1.0:
            raise ValueError("EngineConfig.ga.mutation_rate must be None or "
                             "in [0, 1]")
        if not 0 <= ga.elite_count <= self.population_size:
            raise ValueError("EngineConfig.ga.elite_count must be in "
                             "[0, population_size]")


def multi_ga_minimize(loss_fn: Callable[[np.ndarray], float],
                      genome_length: int, num_values: int = 4,
                      config: EngineConfig | None = None) -> SearchResult:
    """Run the Figure-4 engine to convergence and return the best genome.

    This is the ``multi_ga`` strategy
    (:class:`~repro.search.strategies.MultiGAStrategy`) under its default
    budget, which never binds before ``config.max_rounds`` rounds: one
    :class:`~repro.search.SearchTrace` per round, ``stopped_by``
    ``"rounds"`` when ``config.max_rounds`` rounds ran and
    ``"converged"`` otherwise, and the memo table's own ``cache_stats``.

    Args:
        loss_fn: Maps a genome (1-D int array) to a float loss.
        genome_length: Number of genes.
        num_values: Genes take values ``0..num_values-1``.
        config: Engine hyperparameters.
    """
    # call-time import: repro.search imports this module
    from ..search.strategies import MultiGAStrategy

    return MultiGAStrategy().minimize(loss_fn, genome_length, num_values,
                                      config=config)
