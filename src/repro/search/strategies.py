"""Built-in search strategies: the GA adapter plus three metaheuristics.

Four points on the search axis ship in-tree:

* ``multi_ga`` -- a thin adapter over the paper's Figure-4
  :func:`~repro.optim.engine.multi_ga_minimize`.  With no budget caps it
  *is* that call (bit-identical results), so the default search path is
  unchanged by the strategy axis existing.
* ``annealing`` -- population simulated annealing: every member proposes
  one single-gene move per temperature step and the whole proposal batch
  goes through **one** ``evaluate_many`` call.
* ``tabu`` -- batched tabu search: each round evaluates a whole
  neighborhood of single-gene moves at once and forbids undoing a recent
  move via a recency-keyed tabu list (with the standard best-so-far
  aspiration override).
* ``restart_climb`` -- best-of-K random-restart hill climbing with
  batched neighborhoods, generalizing the in-tree ``random_clifford``
  method's best-of-K sampling by actually climbing from each sample.

All strategies draw hyperparameters from the shared
:class:`~repro.optim.engine.EngineConfig` working point (population size,
seed, round caps), route every evaluation through
:class:`~repro.execution.cache.MemoizedLoss` (repeated genomes are free,
exactly like the engine), and shard batches over any
:mod:`repro.execution` executor with values bit-identical to serial runs.
"""

from __future__ import annotations

import time
from dataclasses import replace

import numpy as np

from ..execution.cache import memoize_loss
from ..obs import get_tracer
# shard_loss is the engine's executor seam for population batches; the
# strategies reuse it so parallel values stay bit-identical to serial.  A
# budgeted multi_ga runs the engine's round loop (_minimize_rounds) on the
# memo _prepare builds, so its budget tracker sits between memo and shards.
from ..optim.engine import (
    EngineConfig,
    _minimize_rounds,
    multi_ga_minimize,
    shard_loss,
)
from .base import (
    BudgetedLoss,
    BudgetExhausted,
    SearchBudget,
    SearchResult,
    SearchStrategy,
    SearchTrace,
    TargetReached,
)
from .registry import register_strategy


def _prepare(loss_fn, budget, config, rng, executor):
    """Shared setup: config/budget validation, rng, sharding, memoisation.

    Returns ``(cfg, budget, rng, tracker, memo)`` where ``memo`` is the
    strategy's evaluation entry point (dedupe -> budget -> shard -> loss)
    and ``tracker`` holds the incumbent and the exact evaluation count.
    """
    cfg = config or EngineConfig()
    cfg.validate()
    budget = budget if budget is not None else SearchBudget.from_engine(cfg)
    budget.validate()
    rng = rng if rng is not None else np.random.default_rng(cfg.seed)
    tracker = BudgetedLoss(shard_loss(loss_fn, executor), budget)
    return cfg, budget, rng, tracker, memoize_loss(tracker)


def _rounds_cap(budget: SearchBudget, cfg: EngineConfig) -> int:
    return budget.max_rounds if budget.max_rounds is not None \
        else cfg.max_rounds


def _result(name: str, tracker: BudgetedLoss, trace: list[SearchTrace],
            start: float, stopped_by: str, memo=None) -> SearchResult:
    if tracker.best_genome is None:
        raise ValueError(
            f"strategy {name!r} performed no evaluations; the budget "
            f"must allow at least one")
    return SearchResult(
        strategy=name, best_genome=tracker.best_genome.copy(),
        best_loss=tracker.best_loss, trace=trace,
        num_evaluations=tracker.evaluations,
        total_seconds=time.perf_counter() - start, stopped_by=stopped_by,
        cache_stats=memo.stats() if memo is not None else None)


class _TraceClock:
    """Per-round trace bookkeeping (evaluation deltas + lap times)."""

    def __init__(self, tracker: BudgetedLoss):
        self.tracker = tracker
        self.trace: list[SearchTrace] = []
        self._seen = tracker.evaluations
        self._last = time.perf_counter()

    def lap(self) -> None:
        now = time.perf_counter()
        self.trace.append(SearchTrace(
            round_index=len(self.trace),
            best_loss=self.tracker.best_loss,
            num_evaluations=self.tracker.evaluations - self._seen,
            duration_seconds=now - self._last))
        self._seen = self.tracker.evaluations
        self._last = now

    def lap_if_pending(self) -> None:
        """Record the partial round a budget stop interrupted."""
        if self.tracker.evaluations > self._seen:
            self.lap()


# ----------------------------------------------------------------------
# multi_ga: the Figure-4 engine as a strategy
# ----------------------------------------------------------------------
@register_strategy
class MultiGAStrategy(SearchStrategy):
    """Adapter over the paper's Figure-4 multi-GA engine.

    With no budget (the default) this is a plain ``multi_ga_minimize``
    call and returns the engine's own result.  A budget puts
    :class:`~repro.search.base.BudgetedLoss` between the engine's memo
    table and the (executor-sharded) loss, as every strategy does: the
    engine's schedule is unchanged until a cap binds, at which point the
    search stops with the incumbent.  The tracker sees every miss batch
    in the driving process, so ``max_evaluations`` is honored exactly,
    with the same result, under every executor.
    """

    name = "multi_ga"
    description = ("the paper's Figure-4 multi-GA engine "
                   "(default; bit-identical to multi_ga_minimize)")

    def minimize(self, loss_fn, num_parameters, num_values=4, *,
                 budget=None, config=None, rng=None, executor=None
                 ) -> SearchResult:
        if rng is not None:
            raise ValueError(
                "multi_ga owns its rng schedule through EngineConfig.seed; "
                "pass config=EngineConfig(seed=...) instead of rng=")
        start = time.perf_counter()
        with get_tracer().span("search.minimize", strategy=self.name):
            if budget is None:
                return multi_ga_minimize(loss_fn, num_parameters,
                                         num_values=num_values,
                                         config=config, executor=executor)
            cfg, budget, _, tracker, memo = _prepare(
                loss_fn, budget, config, None, executor)
            if (budget.max_rounds is not None
                    and budget.max_rounds < cfg.max_rounds):
                cfg = replace(cfg, max_rounds=budget.max_rounds)
            try:
                return _minimize_rounds(memo, num_parameters, num_values,
                                        cfg)
            except (BudgetExhausted, TargetReached) as stop:
                stopped_by = ("evaluations"
                              if isinstance(stop, BudgetExhausted)
                              else "target")
                elapsed = time.perf_counter() - start
                trace = [SearchTrace(0, tracker.best_loss,
                                     tracker.evaluations, elapsed)]
                return _result(self.name, tracker, trace, start, stopped_by)


# ----------------------------------------------------------------------
# annealing: population simulated annealing
# ----------------------------------------------------------------------
@register_strategy
class AnnealingStrategy(SearchStrategy):
    """Population simulated annealing with one batch per temperature step.

    A population of ``config.population_size`` walkers each proposes one
    single-gene move per round; the whole proposal batch is evaluated in
    one ``evaluate_many`` call and accepted per-walker by the Metropolis
    rule at the round's temperature.  The schedule is geometric, from an
    initial temperature set by the initial population's loss spread down
    to ``final_fraction`` of it over the round budget.

    Args:
        final_fraction: End temperature as a fraction of the start.
        initial_temperature: Explicit start temperature (overrides the
            spread heuristic).
    """

    name = "annealing"
    description = ("population simulated annealing; one batched "
                   "evaluate_many per temperature step")

    def __init__(self, final_fraction: float = 1e-3,
                 initial_temperature: float | None = None):
        if not 0.0 < final_fraction <= 1.0:
            raise ValueError("final_fraction must be in (0, 1]")
        self.final_fraction = final_fraction
        self.initial_temperature = initial_temperature

    def minimize(self, loss_fn, num_parameters, num_values=4, *,
                 budget=None, config=None, rng=None, executor=None
                 ) -> SearchResult:
        cfg, budget, rng, tracker, memo = _prepare(
            loss_fn, budget, config, rng, executor)
        num_rounds = _rounds_cap(budget, cfg)
        size = cfg.population_size
        tracer = get_tracer()
        start = time.perf_counter()
        clock = _TraceClock(tracker)
        stopped_by = "rounds"
        with tracer.span("search.minimize", strategy=self.name):
            try:
                population = rng.integers(0, num_values,
                                          size=(size, num_parameters))
                losses = memo.evaluate_many(population)
                t0 = self.initial_temperature
                if t0 is None:
                    spread = float(losses.max() - losses.min())
                    t0 = spread if spread > 0 else 1.0
                alpha = (self.final_fraction
                         ** (1.0 / max(1, num_rounds - 1))
                         if num_rounds > 1 else 1.0)
                rows = np.arange(size)
                for step in range(num_rounds):
                    with tracer.span("search.round", round=step,
                                     batch=size):
                        temperature = t0 * alpha ** step
                        positions = rng.integers(0, num_parameters,
                                                 size=size)
                        offsets = rng.integers(1, num_values, size=size)
                        proposals = population.copy()
                        proposals[rows, positions] = (
                            population[rows, positions]
                            + offsets) % num_values
                        proposal_losses = memo.evaluate_many(proposals)
                        delta = proposal_losses - losses
                        accept = (delta <= 0) | (
                            rng.random(size)
                            < np.exp(-delta / temperature))
                        population[accept] = proposals[accept]
                        losses[accept] = proposal_losses[accept]
                        clock.lap()
            except BudgetExhausted:
                stopped_by = "evaluations"
                clock.lap_if_pending()
            except TargetReached:
                stopped_by = "target"
                clock.lap_if_pending()
        return _result(self.name, tracker, clock.trace, start, stopped_by,
                       memo)


# ----------------------------------------------------------------------
# tabu: batched neighborhood moves with a recency-keyed tabu list
# ----------------------------------------------------------------------
@register_strategy
class TabuStrategy(SearchStrategy):
    """Tabu search over single-gene moves, one batch per round.

    Each round builds a neighborhood of single-gene reassignments
    (exhaustive when it fits in ``config.population_size`` candidates,
    uniformly sampled otherwise), evaluates it in one ``evaluate_many``
    call, and steps to the best *admissible* candidate: a move is tabu
    while its ``(position, value)`` pair sits in the recency list --
    reassigning a recently overwritten value is forbidden for ``tenure``
    rounds -- unless it beats the best loss seen so far (aspiration).

    Args:
        tenure: Tabu tenure in rounds; defaults to
            ``ceil(sqrt(neighborhood size))``.
    """

    name = "tabu"
    description = ("batched tabu search over single-gene moves with a "
                   "recency-keyed tabu list")

    def __init__(self, tenure: int | None = None):
        if tenure is not None and tenure < 1:
            raise ValueError("tenure must be >= 1")
        self.tenure = tenure

    def minimize(self, loss_fn, num_parameters, num_values=4, *,
                 budget=None, config=None, rng=None, executor=None
                 ) -> SearchResult:
        cfg, budget, rng, tracker, memo = _prepare(
            loss_fn, budget, config, rng, executor)
        num_rounds = _rounds_cap(budget, cfg)
        full_size = num_parameters * (num_values - 1)
        batch = min(full_size, cfg.population_size)
        tenure = (self.tenure if self.tenure is not None
                  else max(2, int(np.ceil(np.sqrt(full_size)))))
        tracer = get_tracer()
        start = time.perf_counter()
        clock = _TraceClock(tracker)
        stopped_by = "rounds"
        tabu_until: dict[tuple[int, int], int] = {}
        with tracer.span("search.minimize", strategy=self.name):
            try:
                current = rng.integers(0, num_values, size=num_parameters)
                memo.evaluate_many(current[None, :])
                clock.lap()
                for round_index in range(num_rounds):
                    with tracer.span("search.round", round=round_index,
                                     batch=batch):
                        if full_size <= cfg.population_size:
                            positions = np.repeat(
                                np.arange(num_parameters), num_values - 1)
                            offsets = np.tile(np.arange(1, num_values),
                                              num_parameters)
                        else:
                            positions = rng.integers(0, num_parameters,
                                                     size=batch)
                            offsets = rng.integers(1, num_values,
                                                   size=batch)
                        values = (current[positions] + offsets) % num_values
                        candidates = np.tile(current, (len(positions), 1))
                        candidates[np.arange(len(positions)),
                                   positions] = values
                        aspiration = tracker.best_loss
                        candidate_losses = memo.evaluate_many(candidates)
                        admissible = np.array([
                            tabu_until.get((int(p), int(v)), -1)
                            <= round_index
                            or candidate_losses[i] < aspiration
                            for i, (p, v)
                            in enumerate(zip(positions, values))])
                        pool = (np.flatnonzero(admissible)
                                if admissible.any()
                                else np.arange(len(positions)))
                        pick = pool[int(np.argmin(candidate_losses[pool]))]
                        position = int(positions[pick])
                        # forbid restoring the value this move overwrites
                        tabu_until[(position, int(current[position]))] = \
                            round_index + 1 + tenure
                        current = candidates[pick]
                        clock.lap()
            except BudgetExhausted:
                stopped_by = "evaluations"
                clock.lap_if_pending()
            except TargetReached:
                stopped_by = "target"
                clock.lap_if_pending()
        return _result(self.name, tracker, clock.trace, start, stopped_by,
                       memo)


# ----------------------------------------------------------------------
# restart_climb: best-of-K random-restart hill climbing
# ----------------------------------------------------------------------
@register_strategy
class RestartClimbStrategy(SearchStrategy):
    """Best-of-K random-restart hill climbing with batched neighborhoods.

    Each restart climbs from a fresh random genome by steepest descent:
    a batch of single-gene neighbors (exhaustive when it fits in
    ``config.population_size`` candidates, sampled otherwise) is
    evaluated per step, and the climb moves while the best neighbor
    improves -- or, on the plateau-heavy Clifford landscapes, sideways
    along equal-loss neighbors for up to ``plateau_limit`` consecutive
    steps (a bounded plateau walk; strict-improvement-only climbing dies
    on the first plateau).  ``config.num_instances`` restarts (the
    engine's ``s``) each run at most ``config.generations_per_round``
    steps (its ``m``); one :class:`SearchTrace` record per restart.
    This is the in-tree ``random_clifford`` method's best-of-K sampling,
    generalized to climb from each sample.

    Args:
        num_restarts: Explicit K (overrides ``config.num_instances``).
        plateau_limit: Consecutive sideways steps tolerated before the
            restart is declared converged; defaults to the genome length.
    """

    name = "restart_climb"
    description = ("best-of-K random-restart hill climbing with batched "
                   "neighborhood steps and bounded plateau walks")

    def __init__(self, num_restarts: int | None = None,
                 plateau_limit: int | None = None):
        if num_restarts is not None and num_restarts < 1:
            raise ValueError("num_restarts must be >= 1")
        if plateau_limit is not None and plateau_limit < 0:
            raise ValueError("plateau_limit must be >= 0")
        self.num_restarts = num_restarts
        self.plateau_limit = plateau_limit

    def minimize(self, loss_fn, num_parameters, num_values=4, *,
                 budget=None, config=None, rng=None, executor=None
                 ) -> SearchResult:
        cfg, budget, rng, tracker, memo = _prepare(
            loss_fn, budget, config, rng, executor)
        restarts = self.num_restarts or cfg.num_instances
        restarts = min(restarts, _rounds_cap(budget, cfg))
        full_size = num_parameters * (num_values - 1)
        batch = min(full_size, cfg.population_size)
        plateau_limit = (self.plateau_limit
                         if self.plateau_limit is not None
                         else num_parameters)
        tracer = get_tracer()
        start = time.perf_counter()
        clock = _TraceClock(tracker)
        stopped_by = "converged"
        with tracer.span("search.minimize", strategy=self.name):
            try:
                for restart in range(restarts):
                    with tracer.span("search.round", round=restart,
                                     batch=batch):
                        current = rng.integers(0, num_values,
                                               size=num_parameters)
                        current_loss = float(
                            memo.evaluate_many(current[None, :])[0])
                        plateau_steps = 0
                        for _ in range(cfg.generations_per_round):
                            if full_size <= cfg.population_size:
                                positions = np.repeat(
                                    np.arange(num_parameters),
                                    num_values - 1)
                                offsets = np.tile(
                                    np.arange(1, num_values),
                                    num_parameters)
                            else:
                                positions = rng.integers(
                                    0, num_parameters, size=batch)
                                offsets = rng.integers(1, num_values,
                                                       size=batch)
                            neighbors = np.tile(current,
                                                (len(positions), 1))
                            neighbors[np.arange(len(positions)),
                                      positions] = (
                                current[positions] + offsets) % num_values
                            losses = memo.evaluate_many(neighbors)
                            step = int(np.argmin(losses))
                            if losses[step] < current_loss:
                                plateau_steps = 0
                            elif (losses[step] == current_loss
                                  and plateau_steps < plateau_limit):
                                # sideways: walk the plateau, bounded so a
                                # flat basin cannot absorb the whole step
                                # budget
                                plateau_steps += 1
                            else:
                                # local optimum w.r.t. this neighborhood
                                break
                            current = neighbors[step]
                            current_loss = float(losses[step])
                        clock.lap()
            except BudgetExhausted:
                stopped_by = "evaluations"
                clock.lap_if_pending()
            except TargetReached:
                stopped_by = "target"
                clock.lap_if_pending()
        return _result(self.name, tracker, clock.trace, start, stopped_by,
                       memo)
