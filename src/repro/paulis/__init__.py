"""Pauli-operator algebra: strings, batched tables, and weighted sums."""

from .pauli import PAULI_MATRICES, PauliString, random_pauli
from .table import PauliTable
from .pauli_sum import PauliSum

__all__ = ["PAULI_MATRICES", "PauliString", "PauliTable", "PauliSum",
           "random_pauli"]
