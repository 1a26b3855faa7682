"""The multi-GA optimization engine of Figure 4.

Clapton spawns ``s`` GA instances from random populations, runs each for
``m`` generations, pools the top ``k`` solutions of every instance, shuffles
the pool into ``s`` fresh starting populations topped up with new random
guesses, and repeats rounds until the global loss stops decreasing (with a
configurable number of retry rounds -- the paper allows two).

The same engine drives Clapton, CAFQA, and nCAFQA (Sec. 5.2 builds the
baselines on "an optimization engine similar to the one shown in Figure 4"),
so method comparisons isolate the *cost function*, not the optimizer.
It is the ``multi_ga`` point of the search axis and reports through that
axis's :class:`~repro.search.SearchResult` (one
:class:`~repro.search.SearchTrace` per round), so engine runs and every
other strategy share one result type.

Round-level parallelism (the axis the paper parallelizes, Sec. 6.3) is a
one-argument switch: pass any :mod:`repro.execution` executor as
``executor=``.  Under :class:`~repro.execution.SerialExecutor` (the
default) the engine keeps its serial schedule -- one rng threaded through
every GA instance and the mixing step -- so a serial run is reproducible
within one version (the GA's whole-generation breeding draws changed
that trajectory once; see :mod:`repro.optim.genetic`).  Thread/process
executors give every instance its own deterministic seed stream instead,
so parallel runs reproduce other parallel runs with the same seed (but
not the serial schedule), and the shared loss cache travels with the
jobs: each worker starts from the current table snapshot and the parent
merges the discoveries back, so repeated genomes never re-pay a full
evaluation in any mode.

``EngineConfig.parallel_axis = "population"`` selects a second parallel
unit: GA instances stay on the serial schedule and each generation's
deduped loss batch is sharded across the executor's workers instead
(:class:`_ShardedBatchLoss`), combining parallel loss evaluation with
results bit-identical to the serial engine.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

import numpy as np

from ..execution.cache import evaluate_batch, memoize_loss
from ..execution.executor import (
    Executor,
    SerialExecutor,
    resolve_executor,
    spawn_seeds,
)
from ..obs import get_tracer
from ..obs.kernel import KERNEL
from .genetic import GAConfig, GeneticAlgorithm

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
    #: Which axis a parallel executor fans out: ``"instances"`` ships whole
    #: GA instances to workers (each with its own seed stream -- fast, but
    #: a different schedule than serial); ``"population"`` keeps the exact
    #: serial schedule and instead shards each generation's deduped loss
    #: batch across the workers, so results stay bit-identical to the
    #: serial engine while the loss evaluations -- the dominant cost --
    #: run in parallel.  Ignored under a serial executor.
    parallel_axis: str = "instances"

    def validate(self) -> None:
        """Reject configurations the round loop cannot run to completion.

        Called by :func:`multi_ga_minimize` before any evaluation is spent,
        so a bad working point fails fast instead of burning a full round
        and then crashing in the mix step.
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


def _run_one_instance(job) -> tuple[list[tuple[float, np.ndarray]],
                                    float, np.ndarray, int,
                                    dict[bytes, float], int, int, dict]:
    """Worker: one GA instance of one round (top-level for pickling).

    ``job`` is ``(loss_fn, genome_length, num_values, ga_config,
    rng_or_seed, population, top_k, cache, collect_new)``.  ``rng_or_seed``
    is the engine's shared generator under the serial schedule and a
    per-instance ``SeedSequence`` under parallel executors.  ``cache`` is
    the live memo table (serial) or a round-start snapshot (parallel);
    with ``collect_new`` set, entries discovered by this instance are
    returned for the parent to merge.  The trailing ``(cache_hits,
    cache_dedups, kernel_delta)`` carry the instance's memo accounting
    and packed-kernel counter advance back explicitly -- counters
    mutated inside a child process would otherwise be lost (the parent
    folds ``kernel_delta`` into its own ``KERNEL`` singleton only for
    out-of-process executors; in-process instances already bumped it).
    """
    (loss_fn, genome_length, num_values, ga_config, rng_or_seed,
     population, top_k, cache, collect_new) = job
    rng = (rng_or_seed if isinstance(rng_or_seed, np.random.Generator)
           else np.random.default_rng(rng_or_seed))
    known = set(cache) if collect_new else ()
    kernel_before = KERNEL.snapshot()
    ga = GeneticAlgorithm(loss_fn, genome_length, num_values,
                          config=ga_config, rng=rng, cache=cache)
    result = ga.run(initial_population=population)
    top = [(float(result.losses[j]), result.population[j].copy())
           for j in range(min(top_k, len(result.population)))]
    new_entries = ({k: cache[k] for k in cache.keys() - known}
                   if collect_new else {})
    return (top, result.best_loss, result.best_genome.copy(),
            result.num_evaluations, new_entries,
            result.cache_hits, result.cache_dedups,
            KERNEL.delta(kernel_before))


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

    The ``parallel_axis = "population"`` engine mode keeps the legacy
    serial schedule (one rng, live cache, instances run inline) and makes
    the *loss evaluations* the parallel unit instead: the deduped batch a
    GA generation produces is split into one shard per worker and shipped
    through ``executor.map``.  Shard results concatenate in genome order
    and every per-genome value is computed by the same batched arithmetic,
    so results are bit-identical to the serial engine.
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
        tracer = get_tracer()
        # In-process workers (threads) record their own loss spans; only
        # out-of-process workers need in-worker timings shipped back.
        if not tracer.enabled or getattr(self.executor, "in_process", True):
            parts = self.executor.map(_evaluate_shard, jobs)
            return np.concatenate(parts)
        with tracer.span("executor.map_shards", shards=num_shards,
                         batch=len(genomes)):
            timed = self.executor.map(_evaluate_shard_timed, jobs)
            for (_, seconds, kernel_delta), shard in zip(timed, shards):
                KERNEL.add(kernel_delta)
                tracer.event("loss.shard", seconds, batch=len(shard),
                             kernel_words=kernel_delta.get("words", 0))
        return np.concatenate([values for values, _, _ in timed])


def multi_ga_minimize(loss_fn: Callable[[np.ndarray], float],
                      genome_length: int, num_values: int = 4,
                      config: EngineConfig | None = None,
                      executor: Executor | None = None) -> SearchResult:
    """Run the Figure-4 engine to convergence and return the best genome.

    The result is the search axis's :class:`~repro.search.SearchResult`
    with ``strategy="multi_ga"``: one :class:`~repro.search.SearchTrace`
    per round, ``stopped_by`` ``"rounds"`` when ``config.max_rounds``
    rounds ran and ``"converged"`` otherwise, and the memo table's
    ``cache_stats`` aggregated across every GA instance of every round --
    including instances that ran in child processes, whose counters
    would otherwise be dropped on the wire (each worker reports its own
    deltas and the parent sums them).

    Args:
        loss_fn: Maps a genome (1-D int array) to a float loss.  Must be
            picklable when a process executor fans the instances out.
        genome_length: Number of genes.
        num_values: Genes take values ``0..num_values-1``.
        config: Engine hyperparameters.
        executor: Execution backend for the GA instances of each round;
            defaults to :class:`~repro.execution.SerialExecutor`.
    """
    cfg = config or EngineConfig()
    cfg.validate()
    executor, owned = resolve_executor(executor)
    try:
        return _minimize_rounds(loss_fn, genome_length, num_values, cfg,
                                executor)
    finally:
        if owned:
            executor.close()


def _minimize_rounds(loss_fn, genome_length: int, num_values: int,
                     cfg: EngineConfig, executor: Executor) -> SearchResult:
    """The single round loop shared by every execution backend."""
    # call-time import: repro.search imports this module
    from ..search.base import SearchResult, SearchTrace

    population_axis = (cfg.parallel_axis == "population"
                       and not executor.in_process_sequential)
    if population_axis:
        # Population sharding: instances run inline on the serial
        # schedule; the executor parallelizes each generation's deduped
        # loss batch instead (bit-identical to the serial engine).
        loss_fn = _ShardedBatchLoss(loss_fn, executor)
        instance_executor: Executor = SerialExecutor()
        sequential = True
    else:
        instance_executor = executor
        sequential = executor.in_process_sequential
    memo = memoize_loss(loss_fn)
    if sequential:
        # Legacy serial schedule: one rng threads through the GA instances
        # and the mixing step, and every instance shares the live cache.
        rng = np.random.default_rng(cfg.seed)
        seed_seq = None
    else:
        seed_seq = np.random.SeedSequence(cfg.seed)
        rng = np.random.default_rng(spawn_seeds(seed_seq, 1)[0])
    ga_config = GAConfig(
        population_size=cfg.population_size,
        num_generations=cfg.generations_per_round,
        tournament_size=cfg.ga.tournament_size,
        crossover_rate=cfg.ga.crossover_rate,
        mutation_rate=cfg.ga.mutation_rate,
        elite_count=cfg.ga.elite_count,
    )

    populations: list[np.ndarray | None] = [None] * cfg.num_instances
    best_genome: np.ndarray | None = None
    best_loss = float("inf")
    retries_left = cfg.retry_rounds
    trace: list[SearchTrace] = []
    total_evals = 0
    cache_hits = 0
    cache_dedups = 0
    tracer = get_tracer()
    start_time = time.perf_counter()

    for _ in range(cfg.max_rounds):
        # One real span per round (the SearchTrace keeps its own
        # perf_counter bookkeeping -- spans are additive, never a source
        # of record fields).  Loss spans from the instances nest inside.
        with tracer.span("engine.round", round=len(trace),
                         instances=cfg.num_instances) as round_span:
            round_start = time.perf_counter()
            if sequential:
                jobs = [(loss_fn, genome_length, num_values, ga_config, rng,
                         populations[i], cfg.top_k, memo.cache, False)
                        for i in range(cfg.num_instances)]
            else:
                seeds = spawn_seeds(seed_seq, cfg.num_instances)
                jobs = [(loss_fn, genome_length, num_values, ga_config,
                         seeds[i], populations[i], cfg.top_k,
                         memo.snapshot(), True)
                        for i in range(cfg.num_instances)]
            outcomes = instance_executor.map(_run_one_instance, jobs)

            round_evals = 0
            pool: list[tuple[float, np.ndarray]] = []
            # in-process instances bumped the parent's KERNEL directly;
            # only out-of-process deltas need folding in
            fold_kernel = not getattr(instance_executor, "in_process",
                                      True)
            for (top, instance_best, instance_genome, evals, entries,
                 instance_hits, instance_dedups,
                 instance_kernel) in outcomes:
                memo.merge(entries)
                round_evals += evals
                cache_hits += instance_hits
                cache_dedups += instance_dedups
                if fold_kernel:
                    KERNEL.add(instance_kernel)
                pool.extend(top)
                if instance_best < best_loss - 1e-12:
                    best_loss = instance_best
                    best_genome = instance_genome
            total_evals += round_evals
            trace.append(SearchTrace(
                round_index=len(trace), best_loss=best_loss,
                num_evaluations=round_evals,
                duration_seconds=time.perf_counter() - round_start))
            round_span.tag(evaluations=round_evals, best_loss=best_loss)

            improved = (len(trace) < 2
                        or trace[-1].best_loss
                        < trace[-2].best_loss - 1e-12)
            if improved:
                retries_left = cfg.retry_rounds
            else:
                retries_left -= 1
                if retries_left < 0:
                    break

            # Mix: shuffle the pooled elites into fresh seed populations,
            # topping up with brand-new random guesses (Figure 4, right).
            if not pool:
                # top_k = 0 leaves nothing to pool; reseed every instance
                # from fresh random guesses instead of crashing in
                # rng.choice.
                populations = [None] * cfg.num_instances
                continue
            pool_genomes = np.array([g for _, g in pool])
            draw = max(1, int(cfg.pool_fraction * cfg.population_size))
            for i in range(cfg.num_instances):
                take = min(draw, len(pool_genomes))
                picks = rng.choice(len(pool_genomes), size=take,
                                   replace=False)
                populations[i] = pool_genomes[picks].copy()

    return SearchResult(
        strategy="multi_ga", best_genome=best_genome, best_loss=best_loss,
        trace=trace, num_evaluations=total_evals,
        total_seconds=time.perf_counter() - start_time,
        stopped_by=("rounds" if len(trace) >= cfg.max_rounds
                    else "converged"),
        cache_stats={"hits": cache_hits, "misses": total_evals,
                     "dedups": cache_dedups, "entries": len(memo)})
