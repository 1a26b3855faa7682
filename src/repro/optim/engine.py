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
working point (:class:`EngineConfig`) and its executor seam.

There is one schedule: within a round the instances run one after
another on one memo table, and one rng threads through every instance
and the mixing step, so a seed reproduces a run within one version of
the GA's draws (see :mod:`repro.optim.genetic`).

Parallelism (Sec. 6.3) is a one-argument switch: pass any
:mod:`repro.execution` executor as ``executor=``.  Every executor runs
that same schedule; a thread or process executor shards each
generation's deduped miss batch across its workers
(:func:`shard_loss`), and every per-genome value comes from the same
batched arithmetic, so serial, threaded and multi-process runs give
bit-identical results.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

import numpy as np

from ..execution.cache import evaluate_batch
from ..execution.executor import Executor
from ..obs import get_tracer
from ..obs.kernel import KERNEL
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
    #: Not read: every executor runs the one engine schedule and shards
    #: each generation's loss batch.  Kept, and still validated, because
    #: campaign task ids hash the config's fields (stored campaigns keep
    #: their ids).
    parallel_axis: str = "instances"

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
        if self.parallel_axis not in ("instances", "population"):
            raise ValueError("EngineConfig.parallel_axis must be "
                             "'instances' or 'population'")
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


def _evaluate_shard(job) -> np.ndarray:
    """Worker: losses of one population shard (top-level for pickling)."""
    loss_fn, genomes = job
    return evaluate_batch(loss_fn, genomes)


def _evaluate_shard_timed(job) -> tuple[np.ndarray, float, dict]:
    """Worker: one shard plus its in-worker wall time and kernel delta.

    Process-pool children fall back to the null tracer, so per-shard
    durations and packed-kernel counter advances are measured here and
    *returned*; the parent re-emits them as ``loss.shard`` events under
    its ``executor.map_shards`` span and folds the kernel delta into
    its own ``KERNEL`` singleton.
    """
    kernel_before = KERNEL.snapshot()
    start = time.perf_counter()
    values = _evaluate_shard(job)
    return (values, time.perf_counter() - start,
            KERNEL.delta(kernel_before))


class _ShardedBatchLoss:
    """Loss adapter fanning each generation's miss batch over an executor.

    The deduped batch a generation produces is split into one contiguous
    shard per worker and shipped through ``executor.map``.  Shard results
    concatenate in genome order and every per-genome value is computed by
    the same batched arithmetic, so results are bit-identical to
    evaluating the batch inline.  Only the loss travels: the memo table
    and any budget tracker wrap this adapter and stay in the driving
    process.
    """

    def __init__(self, loss_fn, executor: Executor):
        self.loss_fn = loss_fn
        self.executor = executor
        # Executors outside this package may not expose max_workers;
        # shard by core count then, so batches still go through map.
        self.num_shards = max(1, int(getattr(executor, "max_workers", None)
                                     or os.cpu_count() or 1))

    def __call__(self, genome) -> float:
        return float(self.loss_fn(genome))

    def evaluate_many(self, genomes) -> np.ndarray:
        genomes = np.asarray(genomes)
        num_shards = min(self.num_shards, len(genomes))
        if num_shards <= 1:
            return _evaluate_shard((self.loss_fn, genomes))
        shards = np.array_split(genomes, num_shards)
        jobs = [(self.loss_fn, shard) for shard in shards]
        if getattr(self.executor, "in_process", True):
            # threads share the tracer and the KERNEL counters
            return np.concatenate(self.executor.map(_evaluate_shard, jobs))
        tracer = get_tracer()
        with tracer.span("executor.map_shards", shards=num_shards,
                         batch=len(genomes)):
            timed = self.executor.map(_evaluate_shard_timed, jobs)
            for (_, seconds, kernel_delta), shard in zip(timed, shards):
                KERNEL.add(kernel_delta)
                tracer.event("loss.shard", seconds, batch=len(shard),
                             kernel_words=kernel_delta.get("words", 0))
        return np.concatenate([values for values, _, _ in timed])


def shard_loss(loss_fn, executor: Executor | None):
    """``loss_fn``, its batches sharded over ``executor`` when that runs
    items in parallel (unchanged under a serial executor or none)."""
    if executor is None or executor.in_process_sequential:
        return loss_fn
    return _ShardedBatchLoss(loss_fn, executor)


def multi_ga_minimize(loss_fn: Callable[[np.ndarray], float],
                      genome_length: int, num_values: int = 4,
                      config: EngineConfig | None = None,
                      executor: Executor | None = None) -> SearchResult:
    """Run the Figure-4 engine to convergence and return the best genome.

    This is the ``multi_ga`` strategy
    (:class:`~repro.search.strategies.MultiGAStrategy`) under its default
    budget, which never binds before ``config.max_rounds`` rounds: one
    :class:`~repro.search.SearchTrace` per round, ``stopped_by``
    ``"rounds"`` when ``config.max_rounds`` rounds ran and
    ``"converged"`` otherwise, and the memo table's own ``cache_stats``.

    Args:
        loss_fn: Maps a genome (1-D int array) to a float loss.  Must be
            picklable when a process executor shards the batches.
        genome_length: Number of genes.
        num_values: Genes take values ``0..num_values-1``.
        config: Engine hyperparameters.
        executor: Execution backend the loss batches are sharded over;
            defaults to evaluating them inline.
    """
    # call-time import: repro.search imports this module
    from ..search.strategies import MultiGAStrategy

    return MultiGAStrategy().minimize(loss_fn, genome_length, num_values,
                                      config=config, executor=executor)
