"""Measurement grouping: qubit-wise commuting Pauli families.

Real experiments cannot measure hundreds of Pauli terms one by one; terms
whose single-qubit factors agree (up to identities) on every qubit share a
measurement basis and are estimated from the same shots.  This is the
standard qubit-wise-commuting grouping used by estimator pipelines, and the
counts-based :class:`~repro.execution.ShotSamplingEstimator` is built on it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..circuits.circuit import Circuit
from ..paulis.pauli_sum import PauliSum

_CODE_TO_CHAR = {0: "I", 1: "X", 2: "Z", 3: "Y"}


def _term_codes(hamiltonian: PauliSum) -> np.ndarray:
    """Per-term, per-qubit basis codes: 0=I, 1=X, 2=Z, 3=Y."""
    return (hamiltonian.table.unpack_x().astype(np.int8)
            + 2 * hamiltonian.table.unpack_z().astype(np.int8))


@dataclass
class MeasurementGroup:
    """Terms sharing one measurement basis.

    Attributes:
        basis: Per-qubit measurement basis characters ("I" where no grouped
            term acts; those qubits are measured in Z and ignored).
        term_indices: Indices into the Hamiltonian's term list.
    """

    basis: list[str]
    term_indices: list[int]

    def basis_rotation(self, num_qubits: int) -> Circuit:
        """Gates rotating this basis into the computational (Z) basis.

        X is measured after H; Y after S† then H (``H S† Y S H = Z``).
        """
        circ = Circuit(num_qubits)
        for q, ch in enumerate(self.basis):
            if ch == "X":
                circ.h(q)
            elif ch == "Y":
                circ.sdg(q)
                circ.h(q)
        return circ


def group_qubit_wise_commuting(hamiltonian: PauliSum) -> list[MeasurementGroup]:
    """Greedy first-fit grouping, largest coefficients placed first.

    Guarantees: every non-identity term lands in exactly one group; within a
    group all terms agree (up to I) on every qubit.  Identity terms are
    skipped -- their coefficient is a constant energy offset.
    """
    codes = _term_codes(hamiltonian)
    order = np.argsort(-np.abs(hamiltonian.coefficients))
    groups: list[dict] = []
    for idx in order:
        idx = int(idx)
        term = codes[idx]
        if not term.any():
            continue  # identity term: constant offset, nothing to measure
        placed = False
        for group in groups:
            basis = group["codes"]
            compatible = np.all((term == 0) | (basis == 0) | (term == basis))
            if compatible:
                group["codes"] = np.where(basis == 0, term, basis)
                group["indices"].append(idx)
                placed = True
                break
        if not placed:
            groups.append({"codes": term.copy(), "indices": [idx]})
    return [MeasurementGroup(
        basis=[_CODE_TO_CHAR[int(c)] for c in g["codes"]],
        term_indices=sorted(g["indices"])) for g in groups]


def num_measurement_bases(hamiltonian: PauliSum) -> int:
    """How many circuit executions one energy estimate needs."""
    return len(group_qubit_wise_commuting(hamiltonian))
