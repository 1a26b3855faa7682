"""Full-device-model evaluation: the "x" markers of Figure 5.

Evolves a circuit on the density-matrix simulator with every noise channel
of the :class:`~repro.noise.model.NoiseModel` applied exactly (depolarizing,
thermal relaxation with its non-Clifford amplitude damping) and evaluates
Hamiltonian energies with readout-error attenuation.

Readout handling: each measured Pauli term is attenuated by
``prod_k (1 - p01_k - p10_k)`` over its support, plus one single-qubit
depolarizing factor per X/Y qubit for the noisy basis-prep rotation
(:meth:`~repro.noise.model.NoiseModel.measurement_attenuations`, the
convention the Clifford model shares, so the two evaluators differ *only*
in how gate noise propagates -- the (2) vs (3) comparison of Fig. 5).  For
symmetric misassignment this is exact; for asymmetric misassignment it drops
only the identity-substitution cross terms, which are second order in the
asymmetry ``|p01 - p10|`` (the counts-based path in
:meth:`DensityMatrixSimulator.sample_counts` keeps full asymmetry and is
used to bound the approximation in tests).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from ..circuits.circuit import Circuit
from ..paulis.pauli_sum import PauliSum
from .density_matrix import DensityMatrixSimulator

if TYPE_CHECKING:  # avoid a circular import; only needed for annotations
    from ..noise.model import NoiseModel


def evolve_with_noise(circuit: Circuit, noise_model: NoiseModel
                      ) -> DensityMatrixSimulator:
    """Run ``circuit`` with noise channels appended after every gate.

    Channels are applied in closed form (depolarizing as a mixed-state
    blend, relaxation as population flow + coherence scaling) -- math
    identical to their Kraus sets, verified against them in tests, but an
    order of magnitude faster at 10 qubits.
    """
    if noise_model.num_qubits != circuit.num_qubits:
        raise ValueError("noise model size does not match circuit register")
    sim = DensityMatrixSimulator(circuit.num_qubits)
    idle = (noise_model.include_idle_relaxation
            and noise_model.include_relaxation
            and noise_model.t1 is not None)
    clocks = np.zeros(circuit.num_qubits)
    for inst in circuit.instructions:
        if idle:
            # ASAP schedule: relax each operand over the gap it sat idle
            start = max(clocks[q] for q in inst.qubits)
            for q in inst.qubits:
                spec = noise_model.relaxation_spec(q, start - clocks[q])
                if spec is not None:
                    sim.apply_relaxation(spec.params[0], spec.params[1], q)
            duration = noise_model.gate_duration(inst)
            for q in inst.qubits:
                clocks[q] = start + duration
        sim.apply_instruction(inst)
        for spec in noise_model.channels_after(inst):
            if spec.kind == "depol":
                sim.apply_depolarizing(spec.params[0], spec.qubits)
            elif spec.kind == "relax":
                sim.apply_relaxation(spec.params[0], spec.params[1],
                                     spec.qubits[0])
            elif spec.kind == "unitary_zz":
                (op,) = spec.kraus_operators()
                sim.apply_unitary(op, spec.qubits)
            else:
                sim.apply_kraus(spec.kraus_operators(), spec.qubits)
    if idle:
        # align every qubit to the circuit's end time (pre-measurement)
        end = float(clocks.max())
        for q in range(circuit.num_qubits):
            spec = noise_model.relaxation_spec(q, end - clocks[q])
            if spec is not None:
                sim.apply_relaxation(spec.params[0], spec.params[1], q)
    return sim


def noisy_energy(circuit: Circuit, hamiltonian: PauliSum,
                 noise_model: NoiseModel,
                 include_basis_prep_error: bool = True) -> float:
    """Device-model energy ``tr[rho H]`` with readout attenuation."""
    sim = evolve_with_noise(circuit, noise_model)
    attenuation = noise_model.measurement_attenuations(
        hamiltonian.table, include_basis_prep_error)
    return sim.expectation_sum(hamiltonian, attenuation)


def noiseless_energy(circuit: Circuit, hamiltonian: PauliSum) -> float:
    """``<psi|H|psi>`` for the noise-free bound circuit (diamond markers)."""
    from .statevector import pauli_sum_expectation, simulate_statevector

    return pauli_sum_expectation(hamiltonian, simulate_statevector(circuit))
