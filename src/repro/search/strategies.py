"""Built-in search strategies: the Figure-4 engine plus three metaheuristics.

Four points on the search axis ship in-tree, each a :meth:`rounds` hook
on the one driver, :meth:`~repro.search.base.SearchStrategy.minimize`:

* ``multi_ga`` -- the paper's Figure-4 multi-GA engine; its round loop
  lives here, and :func:`~repro.optim.engine.multi_ga_minimize` is this
  strategy with the default budget.
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
seed, round caps), evaluate through the run's
:class:`~repro.execution.cache.MemoizedLoss` (repeated genomes are free),
and shard batches over any :mod:`repro.execution` executor with values
bit-identical to serial runs.
"""

from __future__ import annotations

import numpy as np

from ..obs import get_tracer
from ..optim.genetic import GAConfig, GeneticAlgorithm
from .base import SearchRun, SearchStrategy
from .registry import register_strategy


def _single_gene_moves(current: np.ndarray, num_values: int, limit: int,
                       rng: np.random.Generator):
    """Single-gene reassignments of ``current``: all of them when they fit
    in ``limit`` candidates, else ``limit`` sampled ones.

    Returns ``(positions, values, candidates)``: candidate ``i`` is
    ``current`` with gene ``positions[i]`` set to ``values[i]``.
    """
    num_parameters = len(current)
    if num_parameters * (num_values - 1) <= limit:
        positions = np.repeat(np.arange(num_parameters), num_values - 1)
        offsets = np.tile(np.arange(1, num_values), num_parameters)
    else:
        positions = rng.integers(0, num_parameters, size=limit)
        offsets = rng.integers(1, num_values, size=limit)
    values = (current[positions] + offsets) % num_values
    candidates = np.tile(current, (len(positions), 1))
    candidates[np.arange(len(positions)), positions] = values
    return positions, values, candidates


# ----------------------------------------------------------------------
# multi_ga: the Figure-4 engine
# ----------------------------------------------------------------------
@register_strategy
class MultiGAStrategy(SearchStrategy):
    """The paper's Figure-4 multi-GA engine.

    Each round runs ``s`` GA instances for ``m`` generations, one after
    another on the run's memo table and rng; the top ``k`` genomes of
    every instance are pooled and shuffled into fresh starting
    populations, topped up with random guesses.  Rounds repeat until the
    incumbent stops improving for ``retry_rounds + 1`` rounds in a row,
    for at most ``config.max_rounds`` rounds (fewer when
    ``budget.max_rounds`` is smaller).
    """

    name = "multi_ga"
    description = ("the paper's Figure-4 multi-GA engine "
                   "(default; bit-identical to multi_ga_minimize)")

    def rounds(self, run: SearchRun) -> str:
        cfg, rng = run.config, run.rng
        ga_config = GAConfig(
            population_size=cfg.population_size,
            num_generations=cfg.generations_per_round,
            tournament_size=cfg.ga.tournament_size,
            crossover_rate=cfg.ga.crossover_rate,
            mutation_rate=cfg.ga.mutation_rate,
            elite_count=cfg.ga.elite_count,
        )
        num_rounds = min(cfg.max_rounds, run.max_rounds)
        populations: list[np.ndarray | None] = [None] * cfg.num_instances
        retries_left = cfg.retry_rounds
        tracer = get_tracer()
        for round_index in range(num_rounds):
            # One real span per round (the SearchTrace keeps its own
            # perf_counter bookkeeping -- spans are additive, never a
            # source of record fields).  Loss spans nest inside.
            with tracer.span("engine.round", round=round_index,
                             instances=cfg.num_instances) as round_span:
                pool: list[np.ndarray] = []
                for population in populations:
                    result = GeneticAlgorithm(
                        run.memo, run.num_parameters, run.num_values,
                        config=ga_config, rng=rng,
                    ).run(initial_population=population)
                    pool.extend(result.population[:cfg.top_k])
                record = run.lap()
                round_span.tag(evaluations=record.num_evaluations,
                               best_loss=record.best_loss)

                improved = (len(run.trace) < 2
                            or record.best_loss
                            < run.trace[-2].best_loss - 1e-12)
                if improved:
                    retries_left = cfg.retry_rounds
                else:
                    retries_left -= 1
                    if retries_left < 0:
                        break

                # Mix: shuffle the pooled elites into fresh seed
                # populations, topping up with brand-new random guesses
                # (Figure 4, right).
                if not pool:
                    # top_k = 0 leaves nothing to pool; reseed every
                    # instance from fresh random guesses instead of
                    # crashing in rng.choice.
                    populations = [None] * cfg.num_instances
                    continue
                pool_genomes = np.array(pool)
                take = min(max(1, int(cfg.pool_fraction
                                      * cfg.population_size)),
                           len(pool_genomes))
                populations = [
                    pool_genomes[rng.choice(len(pool_genomes), size=take,
                                            replace=False)]
                    for _ in range(cfg.num_instances)]
        return "rounds" if len(run.trace) >= num_rounds else "converged"


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

    def rounds(self, run: SearchRun) -> str:
        rng, memo, num_values = run.rng, run.memo, run.num_values
        num_rounds = run.max_rounds
        size = run.config.population_size
        tracer = get_tracer()
        population = rng.integers(0, num_values,
                                  size=(size, run.num_parameters))
        losses = memo.evaluate_many(population)
        t0 = self.initial_temperature
        if t0 is None:
            spread = float(losses.max() - losses.min())
            t0 = spread if spread > 0 else 1.0
        alpha = (self.final_fraction ** (1.0 / max(1, num_rounds - 1))
                 if num_rounds > 1 else 1.0)
        rows = np.arange(size)
        for step in range(num_rounds):
            with tracer.span("search.round", round=step, batch=size):
                temperature = t0 * alpha ** step
                positions = rng.integers(0, run.num_parameters, size=size)
                offsets = rng.integers(1, num_values, size=size)
                proposals = population.copy()
                proposals[rows, positions] = (
                    population[rows, positions] + offsets) % num_values
                proposal_losses = memo.evaluate_many(proposals)
                delta = proposal_losses - losses
                accept = (delta <= 0) | (
                    rng.random(size) < np.exp(-delta / temperature))
                population[accept] = proposals[accept]
                losses[accept] = proposal_losses[accept]
                run.lap()
        return "rounds"


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

    def rounds(self, run: SearchRun) -> str:
        rng, memo, num_values = run.rng, run.memo, run.num_values
        limit = run.config.population_size
        full_size = run.num_parameters * (num_values - 1)
        batch = min(full_size, limit)
        tenure = (self.tenure if self.tenure is not None
                  else max(2, int(np.ceil(np.sqrt(full_size)))))
        tracer = get_tracer()
        tabu_until: dict[tuple[int, int], int] = {}
        current = rng.integers(0, num_values, size=run.num_parameters)
        memo.evaluate_many(current[None, :])
        run.lap()
        for round_index in range(run.max_rounds):
            with tracer.span("search.round", round=round_index,
                             batch=batch):
                positions, values, candidates = _single_gene_moves(
                    current, num_values, limit, rng)
                aspiration = run.tracker.best_loss
                candidate_losses = memo.evaluate_many(candidates)
                admissible = np.array([
                    tabu_until.get((int(p), int(v)), -1) <= round_index
                    or candidate_losses[i] < aspiration
                    for i, (p, v) in enumerate(zip(positions, values))])
                pool = (np.flatnonzero(admissible) if admissible.any()
                        else np.arange(len(positions)))
                pick = pool[int(np.argmin(candidate_losses[pool]))]
                position = int(positions[pick])
                # forbid restoring the value this move overwrites
                tabu_until[(position, int(current[position]))] = \
                    round_index + 1 + tenure
                current = candidates[pick]
                run.lap()
        return "rounds"


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

    def rounds(self, run: SearchRun) -> str:
        cfg, rng, memo = run.config, run.rng, run.memo
        restarts = min(self.num_restarts or cfg.num_instances,
                       run.max_rounds)
        batch = min(run.num_parameters * (run.num_values - 1),
                    cfg.population_size)
        plateau_limit = (self.plateau_limit
                         if self.plateau_limit is not None
                         else run.num_parameters)
        tracer = get_tracer()
        for restart in range(restarts):
            with tracer.span("search.round", round=restart, batch=batch):
                current = rng.integers(0, run.num_values,
                                       size=run.num_parameters)
                current_loss = float(memo.evaluate_many(current[None, :])[0])
                plateau_steps = 0
                for _ in range(cfg.generations_per_round):
                    _, _, neighbors = _single_gene_moves(
                        current, run.num_values, cfg.population_size, rng)
                    losses = memo.evaluate_many(neighbors)
                    step = int(np.argmin(losses))
                    if losses[step] < current_loss:
                        plateau_steps = 0
                    elif (losses[step] == current_loss
                          and plateau_steps < plateau_limit):
                        # sideways: walk the plateau, bounded so a flat
                        # basin cannot absorb the whole step budget
                        plateau_steps += 1
                    else:
                        # local optimum w.r.t. this neighborhood
                        break
                    current = neighbors[step]
                    current_loss = float(losses[step])
                run.lap()
        return "converged"
