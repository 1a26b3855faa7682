"""Pluggable discrete-search strategies: protocol, registry, built-ins.

The search axis of the paper's evaluation is open, exactly like the
method and benchmark axes: implement :class:`SearchStrategy`, decorate it
with :func:`register_strategy`, and the strategy runs through
``InitializationMethod.run(strategy=...)``, ``Experiment.run``, campaign
sweeps, figure reports, and the CLI by name -- no core edits.
``repro strategies`` lists what is registered.
"""

from .base import (
    BudgetedLoss,
    BudgetExhausted,
    SearchBudget,
    SearchResult,
    SearchRun,
    SearchStrategy,
    SearchTrace,
    TargetReached,
)
from .registry import (
    DEFAULT_STRATEGY,
    available_strategies,
    get_strategy,
    register_strategy,
    resolve_strategy,
    strategy_names,
    unregister_strategy,
)
from .strategies import (
    AnnealingStrategy,
    MultiGAStrategy,
    RestartClimbStrategy,
    TabuStrategy,
)

__all__ = [
    "AnnealingStrategy", "BudgetExhausted", "BudgetedLoss",
    "DEFAULT_STRATEGY", "MultiGAStrategy", "RestartClimbStrategy",
    "SearchBudget", "SearchResult", "SearchRun", "SearchStrategy",
    "SearchTrace", "TabuStrategy", "TargetReached", "available_strategies",
    "get_strategy", "register_strategy", "resolve_strategy",
    "strategy_names", "unregister_strategy",
]
