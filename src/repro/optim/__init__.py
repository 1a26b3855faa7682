"""Optimizers: genetic algorithm, Figure-4 multi-GA engine, SPSA."""

from .genetic import GAConfig, GAResult, GeneticAlgorithm
from .engine import EngineConfig, multi_ga_minimize
from .spsa import SPSAConfig, SPSAResult, minimize_spsa

__all__ = [
    "EngineConfig", "GAConfig", "GAResult", "GeneticAlgorithm",
    "SPSAConfig", "SPSAResult", "minimize_spsa", "multi_ga_minimize",
]
