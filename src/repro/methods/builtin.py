"""The paper's three methods as registered :class:`InitializationMethod` s.

These are the canonical implementations; the legacy driver functions
(:func:`repro.core.clapton.clapton` and friends) are thin wrappers over
parameterized instances of these classes.  Numbers are bit-identical to
the historical drivers for identical seeds: the losses, genome spaces,
engine wiring, and decode rules are unchanged.
"""

from __future__ import annotations

import numpy as np

from ..circuits.ansatz import cafqa_angles
from ..core.loss import CafqaLoss, ClaptonLoss, NcafqaLoss
from ..core.problem import VQEProblem
from ..core.transformation import transform_hamiltonian
from ..noise.clifford_model import CliffordNoiseModel
from .base import DecodedPoint, InitializationMethod
from .registry import register_method


@register_method
class CafqaMethod(InitializationMethod):
    """The CAFQA baseline: noiseless Clifford search over ansatz angles."""

    name = "cafqa"
    description = ("CAFQA baseline: noiseless Clifford search over ansatz "
                   "angles (L_0 only)")
    noise_aware = False

    def __init__(self, clifford_model: CliffordNoiseModel | None = None):
        self.clifford_model = clifford_model

    def num_parameters(self, problem: VQEProblem) -> int:
        return problem.num_vqe_parameters

    def make_loss(self, problem: VQEProblem):
        if self.noise_aware:
            return NcafqaLoss(problem, clifford_model=self.clifford_model)
        return CafqaLoss(problem, clifford_model=self.clifford_model)

    def decode(self, problem: VQEProblem, genome) -> DecodedPoint:
        return DecodedPoint(vqe_hamiltonian=problem.hamiltonian,
                            initial_theta=cafqa_angles(genome))


@register_method
class NcafqaMethod(CafqaMethod):
    """Noise-aware CAFQA: the paper's strengthened baseline (Sec. 5.2)."""

    name = "ncafqa"
    description = ("noise-aware CAFQA: Clifford angle search under "
                   "L_N + L_0 (Sec. 5.2)")
    noise_aware = True


@register_method
class ClaptonMethod(InitializationMethod):
    """The Clapton transformation search (Sec. 4.1).

    Args:
        clifford_model: Override the L_N noise projection (ablations).
        noisy_weight / noiseless_weight: Cost-term weights (ablations);
            the paper uses 1 + 1.
    """

    name = "clapton"
    description = ("Clapton: Clifford problem-transformation search under "
                   "L_N + L_0 (Sec. 4.1)")

    def __init__(self, clifford_model: CliffordNoiseModel | None = None,
                 noisy_weight: float = 1.0, noiseless_weight: float = 1.0):
        self.clifford_model = clifford_model
        self.noisy_weight = noisy_weight
        self.noiseless_weight = noiseless_weight

    def num_parameters(self, problem: VQEProblem) -> int:
        return problem.num_transformation_parameters

    def make_loss(self, problem: VQEProblem):
        return ClaptonLoss(problem, clifford_model=self.clifford_model,
                           noisy_weight=self.noisy_weight,
                           noiseless_weight=self.noiseless_weight)

    def decode(self, problem: VQEProblem, genome) -> DecodedPoint:
        return DecodedPoint(
            vqe_hamiltonian=transform_hamiltonian(problem.hamiltonian,
                                                  genome,
                                                  problem.entanglement),
            initial_theta=np.zeros(problem.num_vqe_parameters),
        )
