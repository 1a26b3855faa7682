"""The pluggable discrete-search protocol: budget, trace, result, strategy.

The Figure-4 multi-GA engine is one point on a *search* axis, the same way
Clapton is one point on the method axis.  A :class:`SearchStrategy`
minimizes an integer-genome loss under a shared :class:`SearchBudget`
(evaluation / round / target-loss caps) and reports per-round
:class:`SearchTrace` records inside a :class:`SearchResult`, so campaigns
can ask "is the GA actually the right searcher for Clifford loss
landscapes?" with every other axis held fixed.

:meth:`SearchStrategy.minimize` is the one driver every built-in strategy,
``multi_ga`` included, runs through: it validates the working point and
budget, builds the evaluation chain (memo -> :class:`BudgetedLoss` ->
executor shards -> loss) into a :class:`SearchRun`, calls the strategy's
:meth:`~SearchStrategy.rounds` hook, turns a budget stop into
``stopped_by``, and builds the :class:`SearchResult`.  A strategy
implements only its round loop.

Budget enforcement is shared, not per-strategy: :class:`BudgetedLoss`
wraps the raw loss, counts every *distinct* evaluation (the memo table in
front of it makes cache hits free), tracks the incumbent best genome, and
raises :class:`BudgetExhausted` / :class:`TargetReached` the moment a cap
binds -- trimming the final batch so ``max_evaluations`` is respected
*exactly*, never approximately.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ..execution.cache import BatchInterrupted, evaluate_batch, memoize_loss
from ..obs import get_tracer
from ..optim.engine import EngineConfig, shard_loss


class BudgetExhausted(BatchInterrupted):
    """Raised by :class:`BudgetedLoss` when ``max_evaluations`` binds."""


class TargetReached(BatchInterrupted):
    """Raised by :class:`BudgetedLoss` when ``target_loss`` is hit."""


@dataclass(frozen=True)
class SearchBudget:
    """Stopping rules shared by every strategy.

    Attributes:
        max_evaluations: Hard cap on *distinct* loss evaluations (cache
            hits are free).  Enforced exactly: the final batch is trimmed.
        max_rounds: Cap on strategy rounds (GA engine rounds, annealing
            temperature steps, tabu moves, climb restarts).
        target_loss: Stop as soon as any evaluation reaches this loss.
    """

    max_evaluations: int | None = None
    max_rounds: int | None = None
    target_loss: float | None = None

    def validate(self) -> None:
        for name in ("max_evaluations", "max_rounds"):
            value = getattr(self, name)
            if value is not None and value < 1:
                raise ValueError(f"SearchBudget.{name} must be >= 1")

    @classmethod
    def from_engine(cls, config: EngineConfig) -> "SearchBudget":
        """The default budget of a strategy run under ``config``.

        ``max_evaluations`` is the Figure-4 engine's own hard ceiling at
        that working point -- ``s * |S| * (m + 1)`` evaluations per round
        for up to ``max_rounds`` rounds -- so comparisons across
        strategies share one evaluation envelope.  ``max_rounds`` is that
        same ceiling measured in *population batches* (the unit the
        non-GA strategies call a round: one engine round spans ``m + 1``
        generation batches); ``multi_ga`` runs at most
        ``config.max_rounds`` engine rounds whatever this cap says.
        """
        per_round = (config.num_instances * config.population_size
                     * (config.generations_per_round + 1))
        return cls(max_evaluations=per_round * config.max_rounds,
                   max_rounds=(config.max_rounds
                               * (config.generations_per_round + 1)))


@dataclass(frozen=True)
class SearchTrace:
    """One strategy round (one Figure-4 engine round for ``multi_ga``)."""

    round_index: int
    best_loss: float
    num_evaluations: int
    duration_seconds: float

    def to_dict(self) -> dict:
        return {"round_index": self.round_index,
                "best_loss": float(self.best_loss),
                "num_evaluations": int(self.num_evaluations),
                "duration_seconds": float(self.duration_seconds)}

    @classmethod
    def from_dict(cls, data: dict) -> "SearchTrace":
        return cls(round_index=int(data["round_index"]),
                   best_loss=float(data["best_loss"]),
                   num_evaluations=int(data["num_evaluations"]),
                   duration_seconds=float(data["duration_seconds"]))


@dataclass
class SearchResult:
    """Outcome of one :meth:`SearchStrategy.minimize` call
    (:func:`~repro.optim.engine.multi_ga_minimize` is one such call).

    Attributes:
        strategy: Registered strategy name that produced this result.
        best_genome / best_loss: The incumbent: the best genome any
            evaluation of the run paid for.
        trace: Per-round records, in execution order; a budget stop
            closes the interrupted round as a last, partial record.
        num_evaluations: Distinct loss evaluations paid (the sum over
            ``trace``).
        total_seconds: Wall time of the whole search.
        stopped_by: What ended the search: ``"converged"``, ``"rounds"``,
            ``"evaluations"``, or ``"target"``.
        cache_stats: Memo-table accounting of the run (``hits`` /
            ``misses`` / ``dedups`` / ``entries``); the table lives in
            the driving process under every executor, and ``misses``
            equals ``num_evaluations`` for the built-in strategies, a
            budget-stopped run included.
    """

    strategy: str
    best_genome: np.ndarray
    best_loss: float
    trace: list[SearchTrace]
    num_evaluations: int
    total_seconds: float
    stopped_by: str = "converged"
    cache_stats: dict | None = field(default=None, repr=False,
                                     compare=False)

    @property
    def num_rounds(self) -> int:
        return len(self.trace)

    def trace_dicts(self) -> list[dict]:
        return [t.to_dict() for t in self.trace]


class BudgetedLoss:
    """Budget enforcement + incumbent tracking around a raw loss.

    :class:`SearchRun` wraps the (possibly executor-sharded) loss in this
    class and then memoizes it, so only distinct genomes consume budget.
    The wrapper evaluates through the loss's own population-batched
    ``evaluate_many`` when it has one, trims the batch that would
    overshoot ``max_evaluations`` (the allowed prefix is still evaluated
    and folded into the incumbent, so the count lands *exactly* on the
    cap), and raises :class:`BudgetExhausted` / :class:`TargetReached`
    carrying the values it did evaluate, as control flow
    :meth:`SearchStrategy.minimize` catches (the memo table keeps those
    values on the way out).

    The tracker sits outside any executor: it wraps the sharded loss and
    the built-in strategies call it from the driving thread only, so the
    count is exact and the stop lands on the same genome under every
    executor.  Accounting is still guarded by a lock, so a tracker a
    caller shares across threads stays exact too.
    """

    def __init__(self, loss_fn: Callable[[np.ndarray], float],
                 budget: SearchBudget):
        self.loss_fn = loss_fn
        self.budget = budget
        self.evaluations = 0
        self.best_loss = float("inf")
        self.best_genome: np.ndarray | None = None
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    def _record(self, genomes: np.ndarray, values: np.ndarray) -> None:
        self.evaluations += len(values)
        i = int(np.argmin(values))
        if values[i] < self.best_loss:
            self.best_loss = float(values[i])
            self.best_genome = np.asarray(genomes[i]).copy()
        target = self.budget.target_loss
        if target is not None and self.best_loss <= target:
            raise TargetReached(values)

    # ------------------------------------------------------------------
    def __call__(self, genome) -> float:
        return float(self.evaluate_many(np.asarray(genome)[None, :])[0])

    def evaluate_many(self, genomes) -> np.ndarray:
        genomes = np.asarray(genomes)
        with self._lock:
            cap = self.budget.max_evaluations
            if cap is not None and self.evaluations >= cap:
                raise BudgetExhausted()
            # evaluate the prefix that fits, so the count lands exactly on
            # the cap; a cut batch still feeds the incumbent
            room = len(genomes) if cap is None else cap - self.evaluations
            values = evaluate_batch(self.loss_fn, genomes[:room])
            self._record(genomes[:room], values)
            if room < len(genomes):
                raise BudgetExhausted(values)
        return values

    def __getstate__(self):
        # locks do not pickle; each process worker guards its own copy
        state = self.__dict__.copy()
        del state["_lock"]
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        self._lock = threading.Lock()


class SearchRun:
    """The state of one :meth:`SearchStrategy.minimize` call, handed to
    the strategy's :meth:`~SearchStrategy.rounds` hook.

    Attributes:
        num_parameters / num_values: The genome space.
        config: The validated working point.
        rng: The strategy's generator.
        max_rounds: ``budget.max_rounds``, else ``config.max_rounds``.
        tracker: The :class:`BudgetedLoss` holding the incumbent and the
            exact evaluation count.
        memo: The evaluation entry point (dedupe -> budget -> shard ->
            loss); every evaluation of the run goes through it.
        trace: One :class:`SearchTrace` per :meth:`lap`.
    """

    def __init__(self, loss_fn, num_parameters: int, num_values: int,
                 budget: SearchBudget, config: EngineConfig,
                 rng: np.random.Generator, executor):
        self.num_parameters = num_parameters
        self.num_values = num_values
        self.config = config
        self.rng = rng
        self.max_rounds = (budget.max_rounds if budget.max_rounds is not None
                           else config.max_rounds)
        self.tracker = BudgetedLoss(shard_loss(loss_fn, executor), budget)
        self.memo = memoize_loss(self.tracker)
        self.trace: list[SearchTrace] = []
        self._seen = 0
        self._last = time.perf_counter()

    def lap(self) -> SearchTrace:
        """Close one round: record the incumbent, the evaluations since
        the last lap and the lap time."""
        now = time.perf_counter()
        record = SearchTrace(
            round_index=len(self.trace), best_loss=self.tracker.best_loss,
            num_evaluations=self.tracker.evaluations - self._seen,
            duration_seconds=now - self._last)
        self.trace.append(record)
        self._seen = self.tracker.evaluations
        self._last = now
        return record


class SearchStrategy:
    """One discrete-search algorithm, addressable by name.

    Subclasses set the class attributes ``name`` (registry key) and
    ``description`` (one line, shown by ``repro strategies``) and
    implement :meth:`rounds`, the round loop that :meth:`minimize` drives;
    a strategy that needs a different driver overrides :meth:`minimize`
    instead.  Register with :func:`~repro.search.register_strategy` to
    make the strategy runnable through
    ``InitializationMethod.run(strategy=...)``, ``Experiment``,
    campaigns, and the CLI.
    """

    name: str = ""
    description: str = ""

    def minimize(self, loss_fn: Callable[[np.ndarray], float],
                 num_parameters: int, num_values: int = 4, *,
                 budget: SearchBudget | None = None,
                 config: EngineConfig | None = None,
                 rng: np.random.Generator | None = None,
                 executor=None) -> SearchResult:
        """Minimize ``loss_fn`` over ``{0..num_values-1}^num_parameters``.

        Args:
            loss_fn: Maps a genome (1-D int array) to a float loss; a loss
                exposing a population-batched ``evaluate_many`` is
                dispatched whole-batch (all built-in strategies propose in
                batches).
            num_parameters: Genome length.
            num_values: Genome alphabet size.
            budget: Stopping rules; defaults to
                :meth:`SearchBudget.from_engine` of ``config``.
            config: Working-point hyperparameters (population sizes,
                seeds, round caps) shared with the Figure-4 engine.
            rng: Explicit generator; defaults to
                ``np.random.default_rng(config.seed)``.
            executor: Any :mod:`repro.execution` backend; batched
                evaluations are sharded across its workers (values are
                bit-identical to serial execution).
        """
        config = config or EngineConfig()
        config.validate()
        budget = budget if budget is not None else \
            SearchBudget.from_engine(config)
        budget.validate()
        rng = rng if rng is not None else np.random.default_rng(config.seed)
        start = time.perf_counter()
        run = SearchRun(loss_fn, num_parameters, num_values, budget, config,
                        rng, executor)
        with get_tracer().span("search.minimize", strategy=self.name):
            try:
                stopped_by = self.rounds(run)
            except (BudgetExhausted, TargetReached) as stop:
                stopped_by = ("evaluations"
                              if isinstance(stop, BudgetExhausted)
                              else "target")
                if run.tracker.evaluations > run._seen:
                    run.lap()  # the partial round the stop interrupted
        tracker = run.tracker
        if tracker.best_genome is None:
            raise ValueError(
                f"strategy {self.name!r} performed no evaluations; the "
                f"budget must allow at least one")
        return SearchResult(
            strategy=self.name, best_genome=tracker.best_genome.copy(),
            best_loss=tracker.best_loss, trace=run.trace,
            num_evaluations=tracker.evaluations,
            total_seconds=time.perf_counter() - start,
            stopped_by=stopped_by, cache_stats=run.memo.stats())

    def rounds(self, run: SearchRun) -> str:
        """The strategy's round loop, driven by :meth:`minimize`.

        Evaluate only through ``run.memo``, call ``run.lap()`` once per
        round, and return ``"rounds"`` or ``"converged"``; a budget stop
        is raised out of ``run.memo`` and handled by the driver.
        """
        raise NotImplementedError(
            f"{type(self).__name__} implements neither rounds(run) nor "
            f"minimize")

    def __repr__(self) -> str:  # registry listings, error messages
        return f"<{type(self).__name__} name={self.name!r}>"
