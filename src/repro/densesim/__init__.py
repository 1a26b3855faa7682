"""Dense statevector / density-matrix simulation (Aer substitute)."""

from .statevector import (
    apply_matrix,
    pauli_expectation,
    pauli_sum_expectation,
    simulate_statevector,
)
from .density_matrix import DensityMatrixSimulator
from .batched import BatchedDensityMatrixSimulator, evolve_steps_with_noise
from . import channels
from .evaluator import (
    evolve_with_noise,
    noiseless_energy,
    noisy_energy,
)

__all__ = [
    "BatchedDensityMatrixSimulator", "DensityMatrixSimulator",
    "apply_matrix", "channels", "evolve_steps_with_noise",
    "evolve_with_noise", "noiseless_energy",
    "noisy_energy", "pauli_expectation", "pauli_sum_expectation",
    "simulate_statevector",
]
