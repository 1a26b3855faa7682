"""Unified estimation + execution layer: the seam every scaling PR plugs into.

``make_estimator`` builds batched energy estimators (exact density-matrix,
shot-sampling, Clifford fast path) behind one protocol; the ``Executor``
backends (serial/thread/process) give campaign task fan-out a uniform
``map``; ``memoize_loss`` is the shared loss cache of every search.
"""

from .cache import MemoizedLoss, genome_key, memoize_loss
from .estimator import (
    BatchResult,
    CliffordEstimator,
    EstimateResult,
    Estimator,
    ExactEstimator,
    ShotSamplingEstimator,
    make_estimator,
)
from .executor import (
    Executor,
    ProcessExecutor,
    SerialExecutor,
    ThreadExecutor,
)

__all__ = [
    "BatchResult", "CliffordEstimator", "EstimateResult", "Estimator",
    "ExactEstimator", "Executor", "MemoizedLoss", "ProcessExecutor",
    "SerialExecutor", "ShotSamplingEstimator", "ThreadExecutor",
    "genome_key", "make_estimator", "memoize_loss",
]
