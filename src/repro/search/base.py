"""The pluggable discrete-search protocol: budget, trace, result, strategy.

The Figure-4 multi-GA engine is one point on a *search* axis, the same way
Clapton is one point on the method axis.  A :class:`SearchStrategy`
minimizes an integer-genome loss under a shared :class:`SearchBudget`
(evaluation / round / target-loss caps) and reports per-round
:class:`SearchTrace` records inside a :class:`SearchResult`, so campaigns
can ask "is the GA actually the right searcher for Clifford loss
landscapes?" with every other axis held fixed.

Budget enforcement is shared, not per-strategy: :class:`BudgetedLoss`
wraps the raw loss, counts every *distinct* evaluation (strategies route
all evaluation through :class:`~repro.execution.cache.MemoizedLoss`, so
cache hits are free, exactly like the engine's accounting), tracks the
incumbent best genome, and raises :class:`BudgetExhausted` /
:class:`TargetReached` the moment a cap binds -- trimming the final batch
so ``max_evaluations`` is respected *exactly*, never approximately.
"""

from __future__ import annotations

import abc
import threading
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ..execution.cache import evaluate_batch
from ..optim.engine import EngineConfig


class BudgetExhausted(Exception):
    """Raised by :class:`BudgetedLoss` when ``max_evaluations`` binds."""


class TargetReached(Exception):
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
        generation batches); the GA adapter still clips it to the
        engine's own round cap.
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
    """Outcome of one :meth:`SearchStrategy.minimize` call -- and of
    :func:`~repro.optim.engine.multi_ga_minimize`, which is the
    ``multi_ga`` strategy's engine.

    Attributes:
        strategy: Registered strategy name that produced this result.
        best_genome / best_loss: The incumbent.
        trace: Per-round records, in execution order.
        num_evaluations: Distinct loss evaluations paid.
        total_seconds: Wall time of the whole search.
        stopped_by: What ended the search: ``"converged"``, ``"rounds"``,
            ``"evaluations"``, or ``"target"``.
        cache_stats: Memo-table accounting of the run (``hits`` /
            ``misses`` / ``dedups`` / ``entries``), aggregated across
            process workers when the engine fans instances out.
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

    Strategies wrap the (possibly executor-sharded) loss in this class and
    then memoize it, so only distinct genomes consume budget.  The wrapper
    evaluates through the loss's own population-batched ``evaluate_many``
    when it has one, trims the batch that would overshoot
    ``max_evaluations`` (the allowed prefix is still evaluated and folded
    into the incumbent, so the count lands *exactly* on the cap), and
    raises :class:`BudgetExhausted` / :class:`TargetReached` as control
    flow the strategy's round loop catches.

    Accounting is guarded by a lock, so a tracker shared across thread
    workers (the budgeted multi-GA adapter under a ``ThreadExecutor``)
    stays exact -- budgeted evaluation serializes in that case; the
    built-in strategies call the tracker from the driving thread only,
    where the lock is uncontended.  Process workers each deserialize
    their own copy and check the cap independently.
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
            raise TargetReached

    # ------------------------------------------------------------------
    def __call__(self, genome) -> float:
        return float(self.evaluate_many(np.asarray(genome)[None, :])[0])

    def evaluate_many(self, genomes) -> np.ndarray:
        genomes = np.asarray(genomes)
        with self._lock:
            cap = self.budget.max_evaluations
            if cap is not None:
                allowed = cap - self.evaluations
                if allowed <= 0:
                    raise BudgetExhausted
                if len(genomes) > allowed:
                    # evaluate the prefix that fits, land exactly on the
                    # cap, and end the search; the partial round still
                    # feeds the incumbent (its values are lost only to
                    # the caller)
                    values = evaluate_batch(self.loss_fn, genomes[:allowed])
                    self._record(genomes[:allowed], values)
                    raise BudgetExhausted
            values = evaluate_batch(self.loss_fn, genomes)
            self._record(genomes, values)
        return values

    def __getstate__(self):
        # locks do not pickle; each process worker guards its own copy
        state = self.__dict__.copy()
        del state["_lock"]
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        self._lock = threading.Lock()


class SearchStrategy(abc.ABC):
    """One discrete-search algorithm, addressable by name.

    Subclasses set the class attributes ``name`` (registry key) and
    ``description`` (one line, shown by ``repro strategies``) and
    implement :meth:`minimize`.  Register with
    :func:`~repro.search.register_strategy` to make the strategy runnable
    through ``InitializationMethod.run(strategy=...)``, ``Experiment``,
    campaigns, and the CLI.
    """

    name: str = ""
    description: str = ""

    @abc.abstractmethod
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
                ``np.random.default_rng(config.seed)``.  The multi-GA
                adapter owns its schedule through ``config.seed`` and
                rejects an explicit ``rng``.
            executor: Any :mod:`repro.execution` backend; batched
                evaluations are sharded across its workers (values are
                bit-identical to serial execution).
        """

    def __repr__(self) -> str:  # registry listings, error messages
        return f"<{type(self).__name__} name={self.name!r}>"
