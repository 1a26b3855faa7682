"""Experiment façade, presets, and the legacy figure runners."""

from .config import FAST_ENGINE, PAPER_ENGINE, SMOKE_ENGINE, bench_engine
from .experiment import Experiment, ExperimentResult, MethodRun
from .runners import (
    ComparisonRow,
    build_problem,
    compare_initializations,
    convergence_traces,
    format_comparison_table,
    sweep_relative_improvement,
)

__all__ = [
    "ComparisonRow", "Experiment", "ExperimentResult", "FAST_ENGINE",
    "MethodRun", "PAPER_ENGINE", "SMOKE_ENGINE", "bench_engine",
    "build_problem", "compare_initializations", "convergence_traces",
    "format_comparison_table", "sweep_relative_improvement",
]

