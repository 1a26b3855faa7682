"""Extra in-tree methods proving the registry is open.

* ``vanilla`` -- theta = 0 on the untransformed problem: the paper's
  implicit control (every VQE without an initialization stage starts
  here).  No search at all; one loss evaluation for bookkeeping.
* ``random_clifford`` -- best of K uniformly random stabilizer initial
  points, screened by the noiseless stabilizer energy: the natural lower
  baseline separating "any Clifford search" from "no search".

Both decode exactly like CAFQA (ansatz angles ``genome * pi/2`` on the
original Hamiltonian), so they flow through the three-tier evaluation,
the VQE phase, campaigns, and reports with no special cases.
"""

from __future__ import annotations

import time

import numpy as np

from ..circuits.ansatz import cafqa_angles
from ..core.loss import CafqaLoss
from ..core.problem import VQEProblem
from ..execution.cache import evaluate_batch
from ..optim.engine import EngineConfig, _ShardedBatchLoss
from ..search.base import SearchResult, SearchTrace
from .base import DecodedPoint, InitializationMethod
from .registry import register_method


class _AnsatzAngleMethod(InitializationMethod):
    """Shared decode/loss shape: Clifford angles on the original problem."""

    def num_parameters(self, problem: VQEProblem) -> int:
        return problem.num_vqe_parameters

    def make_loss(self, problem: VQEProblem):
        return CafqaLoss(problem, noise_aware=False)

    def decode(self, problem: VQEProblem, genome) -> DecodedPoint:
        return DecodedPoint(vqe_hamiltonian=problem.hamiltonian,
                            initial_theta=cafqa_angles(genome))


@register_method
class VanillaMethod(_AnsatzAngleMethod):
    """No initialization: start VQE from theta = 0."""

    name = "vanilla"
    description = ("no initialization: theta = 0 on the original problem "
                   "(the implicit control)")

    def search(self, problem: VQEProblem,
               config: EngineConfig | None = None,
               executor=None, strategy=None, budget=None) -> SearchResult:
        # no search at all: the strategy/budget axes do not apply
        start = time.perf_counter()
        genome = np.zeros(self.num_parameters(problem), dtype=np.int64)
        loss = float(self.make_loss(problem)(genome))
        return SearchResult(strategy="none", best_genome=genome,
                            best_loss=loss, trace=[], num_evaluations=1,
                            total_seconds=time.perf_counter() - start)


@register_method
class RandomCliffordMethod(_AnsatzAngleMethod):
    """Best of K random stabilizer initial points.

    Args:
        num_samples: Sample budget K; defaults to the engine config's
            ``num_instances * population_size`` so presets scale it the
            same way they scale the GA methods' round size.
    """

    name = "random_clifford"
    description = ("best-of-K random stabilizer initial points, screened "
                   "by noiseless energy (lower baseline)")

    def __init__(self, num_samples: int | None = None):
        self.num_samples = num_samples

    def search(self, problem: VQEProblem,
               config: EngineConfig | None = None,
               executor=None, strategy=None, budget=None) -> SearchResult:
        # own search shape (best-of-K sampling); the strategy axis does
        # not apply -- `restart_climb` is this search generalized to
        # climb from each sample
        cfg = config or EngineConfig()
        k = self.num_samples or max(1, cfg.num_instances
                                    * cfg.population_size)
        start = time.perf_counter()
        rng = np.random.default_rng(cfg.seed)
        loss = self.make_loss(problem)
        genomes = rng.integers(0, self.num_values,
                               size=(k, self.num_parameters(problem)))
        if executor is not None and not executor.in_process_sequential:
            # contiguous per-worker shards concatenate in genome order, so
            # the argmin (and ties) match the serial batch
            loss = _ShardedBatchLoss(loss, executor)
        losses = evaluate_batch(loss, genomes)
        best = int(np.argmin(losses))
        elapsed = time.perf_counter() - start
        trace = [SearchTrace(round_index=0, best_loss=float(losses[best]),
                             num_evaluations=k, duration_seconds=elapsed)]
        return SearchResult(strategy="best_of_k",
                            best_genome=genomes[best].copy(),
                            best_loss=float(losses[best]), trace=trace,
                            num_evaluations=k, total_seconds=elapsed)
