"""The paper's two ansatz families (Section 4).

* :func:`hardware_efficient_ansatz` -- the circular hardware-efficient VQE
  ansatz ``A(theta)`` with ``d = 4N`` rotation parameters: a layer of
  ``RY, RZ`` per qubit, a circular CX ring, and a second ``RY, RZ`` layer.
  At ``theta = 0`` every rotation is the identity and only the CX skeleton
  remains, with ``A(0)|0> = |0>``.

* :func:`clapton_transformation_circuit` -- the Clifford transformation
  ansatz ``C(gamma)`` with ``dim Gamma = 5N``: the same rotation layers but
  restricted to Clifford angles ``gamma_j * pi/2``, and the CX ring replaced
  by parameterized two-qubit slots (Eq. 8)

      gamma_j = 0: II      gamma_j = 1: CX k->l
      gamma_j = 2: CX l->k gamma_j = 3: SWAP

  so every ``gamma`` in ``{0,1,2,3}^{5N}`` decodes to a Clifford circuit.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .circuit import Circuit, Parameter


def entanglement_pairs(num_qubits: int, kind: str = "circular"
                       ) -> list[tuple[int, int]]:
    """Qubit pairs of one entangling layer.

    ``"circular"`` is the paper's choice: a nearest-neighbour chain plus the
    wrap-around pair (omitted for 2 qubits, where it would be a duplicate).
    """
    if num_qubits < 2:
        return []
    chain = [(i, i + 1) for i in range(num_qubits - 1)]
    if kind == "linear":
        return chain
    if kind == "circular":
        if num_qubits == 2:
            return chain
        return chain + [(num_qubits - 1, 0)]
    raise ValueError(f"unknown entanglement kind {kind!r}")


def hardware_efficient_ansatz(num_qubits: int, entanglement: str = "circular"
                              ) -> Circuit:
    """The VQE ansatz ``A(theta)`` with ``4N`` symbolic parameters.

    Parameter layout: indices ``2q`` / ``2q+1`` are the first-layer RY / RZ
    on qubit ``q``; indices ``2N + 2q`` / ``2N + 2q + 1`` the second layer.
    """
    circ = Circuit(num_qubits)
    for q in range(num_qubits):
        circ.ry(Parameter(2 * q), q)
        circ.rz(Parameter(2 * q + 1), q)
    for control, target in entanglement_pairs(num_qubits, entanglement):
        circ.cx(control, target)
    offset = 2 * num_qubits
    for q in range(num_qubits):
        circ.ry(Parameter(offset + 2 * q), q)
        circ.rz(Parameter(offset + 2 * q + 1), q)
    return circ


def layered_hardware_efficient_ansatz(num_qubits: int, reps: int,
                                      entanglement: str = "circular"
                                      ) -> Circuit:
    """Deeper hardware-efficient ansatz: ``reps`` entangling layers.

    Generalizes :func:`hardware_efficient_ansatz` (which is ``reps = 1``,
    the paper's d = 4N configuration) to ``d = 2N (reps + 1)`` parameters:
    rotation layers interleaved with ``reps`` CX rings.  Useful for studying
    how Clapton's advantage scales with circuit depth -- deeper skeletons
    mean more noise locations for L_N to account for.
    """
    if reps < 0:
        raise ValueError("reps must be >= 0")
    circ = Circuit(num_qubits)
    index = 0
    for layer in range(reps + 1):
        for q in range(num_qubits):
            circ.ry(Parameter(index), q)
            circ.rz(Parameter(index + 1), q)
            index += 2
        if layer < reps:
            for control, target in entanglement_pairs(num_qubits, entanglement):
                circ.cx(control, target)
    return circ


def ansatz_skeleton(num_qubits: int, entanglement: str = "circular") -> Circuit:
    """``A(0)``: only the CX skeleton remains (Sec. 4.2.1).

    Zero-angle rotations compile to nothing on hardware (RZ is virtual and
    RY(0) is removed by the basis optimizer), so they contribute no noise
    locations; we therefore drop them rather than emit identity gates.
    """
    ansatz = hardware_efficient_ansatz(num_qubits, entanglement)
    return drop_identity_rotations(ansatz.bind(np.zeros(ansatz.num_parameters)))


def drop_identity_rotations(circuit: Circuit, tol: float = 1e-12) -> Circuit:
    """Remove bound rotations with angle 0 (mod 2*pi) and explicit ``i`` gates."""
    out = Circuit(circuit.num_qubits)
    for inst in circuit.instructions:
        if inst.name == "i":
            continue
        if inst.name in ("rx", "ry", "rz") and inst.is_bound:
            if is_identity_angle(float(inst.params[0]), tol):
                continue
        out.instructions.append(inst)
    return out


def is_identity_angle(angle: float, tol: float = 1e-12) -> bool:
    """Whether a rotation angle is an exact identity (0 mod 2*pi).

    The single definition of the drop rule shared by
    :func:`drop_identity_rotations` and the batched binding/schedule plans.
    """
    folded = angle % (2 * math.pi)
    return min(folded, 2 * math.pi - folded) < tol


def bound_skeleton_steps(template: Circuit, tol: float = 1e-12
                         ) -> list[tuple]:
    """``(instruction, parameter index | None)`` steps of a bound template.

    The instruction skeleton that binding + :func:`drop_identity_rotations`
    would leave, resolved once per template: explicit ``i`` gates and
    zero-angle *bound* rotations are dropped here, parameterized rotations
    keep their first parameter index for per-point decisions.  The
    skeleton of :class:`repro.noise.clifford_model.CliffordCircuitPlan`,
    the one plan that binds single points and schedules whole
    populations, so the identity-drop semantics cannot drift between the
    two.
    """
    steps: list[tuple] = []
    for inst in template.instructions:
        if inst.name == "i":
            continue
        indices = [p.index for p in inst.params if isinstance(p, Parameter)]
        if indices:
            steps.append((inst, indices[0]))
            continue
        if inst.name in ("rx", "ry", "rz") \
                and is_identity_angle(float(inst.params[0]), tol):
            continue
        steps.append((inst, None))
    return steps


def num_transformation_parameters(num_qubits: int,
                                  entanglement: str = "circular") -> int:
    """Dimension of Clapton's search space Gamma (``5N`` for circular)."""
    return 4 * num_qubits + len(entanglement_pairs(num_qubits, entanglement))


def transformation_slots(num_qubits: int, entanglement: str = "circular"
                         ) -> list[tuple[str, tuple[int, ...], int]]:
    """Forward slot layout of ``C(gamma)``: ``(kind, qubits, gene)`` triples.

    The single definition of the genome decode shared by the serial
    :func:`clapton_transformation_circuit` and the population-batched
    :func:`~repro.core.transformation.transform_table_many`: the first
    ``2N`` genes choose first-layer ``ry``/``rz`` rotation levels, the next
    ``len(pairs)`` genes the two-qubit slot contents (Eq. 8), and the final
    ``2N`` genes the second rotation layer.
    """
    pairs = entanglement_pairs(num_qubits, entanglement)
    slots: list[tuple[str, tuple[int, ...], int]] = []
    for q in range(num_qubits):
        slots.append(("ry", (q,), 2 * q))
        slots.append(("rz", (q,), 2 * q + 1))
    offset = 2 * num_qubits
    for j, pair in enumerate(pairs):
        slots.append(("pair", pair, offset + j))
    offset = 2 * num_qubits + len(pairs)
    for q in range(num_qubits):
        slots.append(("ry", (q,), offset + 2 * q))
        slots.append(("rz", (q,), offset + 2 * q + 1))
    return slots


def clapton_transformation_circuit(gamma: Sequence[int], num_qubits: int,
                                   entanglement: str = "circular") -> Circuit:
    """Decode a genome ``gamma in {0,1,2,3}^{5N}`` into the Clifford ``C(gamma)``.

    Genome layout mirrors :func:`hardware_efficient_ansatz`; see
    :func:`transformation_slots` for the shared slot/gene map.
    """
    gamma = np.asarray(gamma, dtype=int)
    slots = transformation_slots(num_qubits, entanglement)
    if gamma.shape != (len(slots),):
        raise ValueError(f"gamma must have length {len(slots)}, got {gamma.shape}")
    if np.any((gamma < 0) | (gamma > 3)):
        raise ValueError("gamma entries must be in {0, 1, 2, 3}")

    circ = Circuit(num_qubits)
    for kind, qubits, gene in slots:
        level = gamma[gene]
        if kind != "pair":
            _append_clifford_rotation(circ, kind, level, qubits[0])
        elif level == 1:
            circ.cx(*qubits)
        elif level == 2:
            circ.cx(qubits[1], qubits[0])
        elif level == 3:
            circ.swap(*qubits)
        # pair level == 0: identity, emit nothing
    return circ


def cafqa_angles(genome: Sequence[int]) -> np.ndarray:
    """Map a CAFQA genome in ``{0,1,2,3}^d`` to angles ``k * pi/2``."""
    genome = np.asarray(genome, dtype=int)
    if np.any((genome < 0) | (genome > 3)):
        raise ValueError("genome entries must be in {0, 1, 2, 3}")
    return genome * (math.pi / 2)


def _append_clifford_rotation(circ: Circuit, kind: str, level: int, qubit: int
                              ) -> None:
    """Append RY/RZ at angle ``level * pi/2``, skipping exact identities."""
    if level == 0:
        return
    angle = level * (math.pi / 2)
    getattr(circ, kind)(angle, qubit)
