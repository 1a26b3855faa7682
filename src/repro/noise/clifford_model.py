"""The Clifford noise model: Clapton's classically efficient L_N evaluator.

The paper evaluates the noisy cost term (Eq. 9)

    L_N(gamma) = <0| A~†(0) H(gamma) A~(0) |0>

with stim by sampling stochastic-Pauli noise shots.  Because every modeled
channel is a *Pauli channel* and the skeleton ``A(0)`` is Clifford, the same
quantity has a closed form: Pauli channels are diagonal in the Pauli
(Heisenberg) basis, so each Hamiltonian term picks up a scalar attenuation
factor at every noise location as it is pulled back through the circuit:

* 1q depolarizing of strength ``p``: factor ``1 - 4p/3`` if the term acts
  non-trivially on the gate qubit;
* 2q depolarizing of strength ``p``: factor ``1 - 16p/15`` if the term
  touches either gate qubit;
* readout flip ``p_k``: factor ``1 - 2 p_k`` per measured support qubit;
* (optional extension) Pauli-twirled thermal relaxation: a per-qubit,
  Pauli-dependent factor.

The walk runs backward once over all M terms (a whole population's, when
they are stacked) and accumulates the factors -- an exact, deterministic
evaluation that replaces stim's Monte Carlo sampling (a sampling path is
kept in :func:`sample_noisy_energy` for validation and parity with the
paper's implementation).  It has two step kinds:

* a run of static gates is one compiled
  :class:`~repro.stabilizer.tableau.StaticBlock` (:func:`static_block`):
  one table pass conjugates every row through the whole run and returns
  each gate location's bits on the gate's qubits, from which the
  location's factors are looked up.  Clapton's skeleton ``A'(0)`` is a
  single block, so its L_N costs one pass per batch however many gates
  the skeleton has;
* a run of parameterized rotations (nCAFQA's L_N and
  :class:`~repro.execution.estimator.CliffordEstimator`, through
  :class:`CliffordCircuitPlan`) is one layer step: per-rotation factors,
  then one bit-sliced pass.

Factors multiply in walk order, one float multiply per channel, so the
values are bit-identical to attenuating and conjugating gate by gate.
"""

from __future__ import annotations

import itertools
import math
import weakref
from dataclasses import dataclass, replace

import numpy as np

from ..circuits.ansatz import is_identity_angle
from ..circuits.circuit import Circuit, _INVERSE_NAME
from ..paulis import bitops
from ..paulis.pauli_sum import PauliSum
from ..stabilizer.simulator import StabilizerSimulator
# apply_gate_to_table stays importable from here: perfbench/layers.py
# wraps it under this module's name
from ..stabilizer.tableau import (  # noqa: F401
    CliffordTableau,
    StaticBlock,
    apply_gate_to_table,
    gate_tableau,
    pull_back_rotation_layer,
    single_qubit_cliffords,
)
from .model import NoiseModel
from .twirling import pauli_channel_attenuation, twirled_relaxation_probabilities

_TWO_QUBIT_PAULIS = [(a, b) for a in "IXYZ" for b in "IXYZ"][1:]


def _inverse_gate_tableau(inst) -> CliffordTableau:
    if inst.spec.num_params:
        return gate_tableau(inst.name, tuple(-float(p) for p in inst.params))
    return gate_tableau(_INVERSE_NAME.get(inst.name, inst.name))


def static_block(instructions, num_qubits: int, locations: bool = True
                 ) -> StaticBlock:
    """The pull-back through static instructions given in walk (reverse
    circuit) order, as one compiled
    :class:`~repro.stabilizer.tableau.StaticBlock`: each location
    conjugates by its gate's inverse."""
    return StaticBlock.compile(
        [(inst, _inverse_gate_tableau(inst)) for inst in instructions],
        num_qubits, locations)


class CliffordNoiseModel:
    """Pauli-channel projection of a :class:`NoiseModel` for L_N evaluation.

    Args:
        noise_model: The device parameters.
        include_twirled_relaxation: Model T1/T2 as the Pauli-twirled
            relaxation channel.  Off by default to match the paper's stim
            model, which leaves relaxation out of the optimization loss;
            the ablation bench measures what turning it on buys.
        include_basis_prep_error: Attach one single-qubit depolarizing
            factor per X/Y support qubit of each measured term, modeling the
            noisy measurement-basis rotations (Sec. 4.2.3).
    """

    def __init__(self, noise_model: NoiseModel,
                 include_twirled_relaxation: bool = False,
                 include_basis_prep_error: bool = True):
        self.noise_model = noise_model
        self.include_twirled_relaxation = include_twirled_relaxation
        self.include_basis_prep_error = include_basis_prep_error
        self._twirl_cache: dict[tuple[int, float], np.ndarray] = {}
        #: per static block: its factors, looked up by location bits
        self._block_factors: weakref.WeakKeyDictionary = \
            weakref.WeakKeyDictionary()

    def __getstate__(self) -> dict:
        # weak references do not pickle; the cache refills on first use
        state = self.__dict__.copy()
        del state["_block_factors"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._block_factors = weakref.WeakKeyDictionary()

    # ------------------------------------------------------------------
    # Attenuation pieces
    # ------------------------------------------------------------------
    def measurement_attenuations(self, table) -> np.ndarray:
        """Per-term factor from readout error and basis-prep gate error."""
        nm = self.noise_model
        n = table.num_qubits
        factors = _ordered_product(bitops.unpack_columns(table.x | table.z, n),
                                   nm.readout_z_attenuation())
        if self.include_basis_prep_error:
            prep = 1.0 - 4.0 * nm.depol_1q / 3.0
            factors = factors * _ordered_product(
                bitops.unpack_columns(table.x, n), prep)
        return factors

    def _relaxation_factors_by_code(self, qubit: int, duration: float
                                    ) -> np.ndarray:
        """Attenuation for codes ``x + 2z -> (I, X, Z, Y)`` on one qubit."""
        key = (qubit, duration)
        cached = self._twirl_cache.get(key)
        if cached is None:
            nm = self.noise_model
            probs = twirled_relaxation_probabilities(
                duration, float(nm.t1[qubit]), float(nm.t2[qubit]))
            f_i, f_x, f_y, f_z = pauli_channel_attenuation(probs)
            cached = np.array([f_i, f_x, f_z, f_y])
            self._twirl_cache[key] = cached
        return cached

    # ------------------------------------------------------------------
    # The L_N evaluation
    # ------------------------------------------------------------------
    def noisy_zero_state_energy(self, circuit: Circuit,
                                hamiltonian: PauliSum) -> float:
        """Exact noisy ``<0| A~† H A~ |0>`` for a Clifford circuit ``A``.

        Walks the circuit in reverse (Heisenberg picture), attenuating at
        each noise location and conjugating the whole word-packed term
        table through the inverse gate tableau.
        """
        values = self.noisy_zero_state_term_values(circuit,
                                                   hamiltonian.table)
        return float(hamiltonian.coefficients @ values)

    def noisy_zero_state_term_values(self, circuit: Circuit, table
                                     ) -> np.ndarray:
        """Per-term noisy expectations ``<0| A~† P_i A~ |0>`` (one pass).

        The coefficient-weighted sum of these is the L_N energy.  ``table``
        is a word-packed term table whose rows may carry +-1 signs from a
        preceding transformation (they fold into the all-zeros
        expectation).  The whole circuit is one :func:`static_block`.
        """
        block = static_block(reversed(circuit.instructions),
                             circuit.num_qubits)
        return self.noisy_zero_state_term_values_steps([(block, None)],
                                                       table)

    def noisy_term_values_many(self, plan: "CliffordCircuitPlan", thetas,
                               table, zeros_out=None) -> np.ndarray:
        """``(P, M)`` per-term noisy values of a whole parameter batch.

        The one noisy walk of a parameterized template, shared by nCAFQA's
        L_N and :class:`~repro.execution.estimator.CliffordEstimator`:
        ``table`` (the ``M`` observable terms) is tiled once per point and
        walked through ``plan``'s :meth:`CliffordCircuitPlan.reverse_schedule`
        at ``thetas`` (Clifford angles).  The copies share their
        measurement attenuations, so those are computed once.
        ``zeros_out``, if given, is passed through to the walk.
        """
        thetas = np.atleast_2d(np.asarray(thetas, dtype=float))
        num_points = len(thetas)
        values = self.noisy_zero_state_term_values_steps(
            plan.reverse_schedule(thetas), table.tile(num_points),
            measured=np.tile(self.measurement_attenuations(table),
                             num_points),
            zeros_out=zeros_out)
        return values.reshape(num_points, table.num_rows)

    def noisy_zero_state_term_values_steps(self, steps, table, measured=None,
                                           zeros_out=None) -> np.ndarray:
        """The same backward pass over an explicit *reverse-order* schedule.

        ``steps`` holds two kinds of step.  ``(block, None)`` is a
        :class:`~repro.stabilizer.tableau.StaticBlock` (from
        :func:`static_block`) of static gates every row sees.  ``(run,
        layer)``, from a :meth:`CliffordCircuitPlan.reverse_schedule`, is
        a run of parameterized single-qubit rotations: ``run`` is the
        plan's :class:`RotationRun` and ``layer`` its per-point
        :class:`RotationLayer`.  ``table`` then stacks ``P`` equal row
        blocks, block ``p`` belonging to point ``p``
        (:meth:`~repro.paulis.table.PauliTable.tile`), so all points' term
        values come out of one vectorized walk.

        A block step is one table pass that also returns every gate
        location's bits on the gate's qubits; the location's factors are
        then looked up from those bits and multiplied in walk order
        (depolarizing if the row touches the gate, logical flips per
        qubit, twirled relaxation per qubit), a factor of exactly 1.0
        where a channel leaves the row alone.  A layer step is one support
        unpack, one factor multiply per rotation in reverse gate order,
        and one bit-sliced pass
        (:func:`~repro.stabilizer.tableau.pull_back_rotation_layer`).  A
        single-qubit Clifford keeps a row's support on its qubit, so the
        support read before the layer is the support every rotation of
        the run sees, and a rotation's depolarizing multiplies only the
        rows touching its qubit; its noise attenuates only the points
        that keep it (the others multiply by 1.0).  Logical flips and
        twirled relaxation depend on the 2-bit code of a row on the
        gate's qubit, so those codes are carried through the run by the
        rotations' code maps.  So every row sees the same float products,
        in the same order, as when attenuating and conjugating gate by
        gate, and a point's values do not depend on the rest of its
        batch.

        ``measured``, if given, is ``table``'s
        :meth:`measurement_attenuations`, passed by a caller that has
        them cheaper (a tiled table's are its block's, tiled).
        ``zeros_out``, if given, receives the final table's all-zeros
        expectations: the noiseless values the returned ones attenuate.
        """
        table = table.copy()
        factors = (self.measurement_attenuations(table) if measured is None
                   else np.array(measured, dtype=float))
        relax = (self.include_twirled_relaxation
                 and self.noise_model.t1 is not None)
        flip_by_code = self._flip_by_code()
        for item, layer in steps:
            if layer is None:
                self._attenuate_block(factors, item, item.apply(table))
                continue
            self._attenuate_layer(factors, table, item, layer,
                                  flip_by_code, relax)
            pull_back_rotation_layer(table, layer.cliffords)
        zeros = table.expectation_all_zeros()
        if zeros_out is not None:
            zeros_out[...] = zeros
        return factors * zeros

    def _flip_by_code(self) -> np.ndarray | None:
        """Logical-flip attenuation per code ``x + 2z``, if modeled."""
        flips = self.noise_model.logical_flip_probs
        if flips is None:
            return None
        probs = np.array([1.0 - sum(flips), *flips])
        f_i, f_x, f_y, f_z = pauli_channel_attenuation(probs)
        return np.array([f_i, f_x, f_z, f_y])

    def _attenuate_block(self, factors, block: StaticBlock, bits) -> None:
        """In place, every noise factor of one static block, in walk order.

        ``bits`` are the block's ``(L, M)`` location bits
        (:meth:`~repro.stabilizer.tableau.StaticBlock.apply`).
        """
        slots = self._block_factors.get(block)
        if slots is None:
            slots = self._block_factors[block] = self._factor_slots(block)
        locations, by_bits = slots
        for values, row_bits in zip(by_bits, bits[locations]):
            factors *= values.take(row_bits)

    def _factor_slots(self, block: StaticBlock
                      ) -> tuple[np.ndarray, np.ndarray]:
        """A block's factors in walk order: ``(K,)`` location of each and
        its ``(K, 16)`` value per location bits."""
        if block.num_locations != len(block.instructions):
            raise ValueError("the noisy walk needs a block compiled with "
                             "its locations")
        nm = self.noise_model
        flip_by_code = self._flip_by_code()
        relax = self.include_twirled_relaxation and nm.t1 is not None
        bits = np.arange(16)
        locations, by_bits = [], []
        for j, inst in enumerate(block.instructions):
            qubits = inst.qubits
            codes = [(bits >> (2 * s)) & 3 for s in range(len(qubits))]
            p = nm.gate_depol(inst)
            if p > 0:
                factor = (1.0 - 4.0 * p / 3.0) if len(qubits) == 1 \
                    else (1.0 - 16.0 * p / 15.0)
                locations.append(j)
                by_bits.append(np.where(bits != 0, factor, 1.0))
            if flip_by_code is not None:
                for code in codes:
                    locations.append(j)
                    by_bits.append(flip_by_code[code])
            if relax:
                duration = nm.gate_duration(inst)
                for q, code in zip(qubits, codes):
                    locations.append(j)
                    by_bits.append(
                        self._relaxation_factors_by_code(q, duration)[code])
        return (np.array(locations, dtype=np.intp),
                np.array(by_bits, dtype=float).reshape(-1, 16))

    def _attenuate_layer(self, factors, table, run: "RotationRun",
                         layer: "RotationLayer", flip_by_code, relax: bool
                         ) -> None:
        """In place, every noise factor of one rotation layer step."""
        num_points = len(layer.kept)
        if num_points == 0:
            return
        nm = self.noise_model
        num_terms = table.num_rows // num_points
        # depolarizing reaches only the rows touching the rotation's
        # qubit (a support read before the run holds for all of it):
        # their flat indices and points, per qubit
        support = bitops.unpack_columns(table.x | table.z, table.num_qubits)
        touching = {q: np.flatnonzero(support[q]) for q in set(run.qubits)}
        touching_points = {q: rows // num_terms
                           for q, rows in touching.items()}
        kept_by_rotation = np.ascontiguousarray(layer.kept.T)
        # flips and relaxation reach every row: (P, M) views, a point's
        # keep decision broadcasting over its block
        by_point = factors.reshape(num_points, num_terms)
        codes = None
        if flip_by_code is not None or relax:
            codes = {q: table.codes_on(q).reshape(num_points, num_terms)
                     for q in set(run.qubits)}
            code_maps = single_qubit_cliffords().codes
        for j, (inst, q) in enumerate(zip(run.instructions, run.qubits)):
            if not layer.any_kept[j]:
                continue
            p = nm.gate_depol(inst)
            if p > 0:
                factors[touching[q]] *= np.where(
                    kept_by_rotation[j].take(touching_points[q]),
                    1.0 - 4.0 * p / 3.0, 1.0)
            if codes is None:
                continue
            kept = layer.kept[:, j, None]
            if flip_by_code is not None:
                by_point *= np.where(kept, flip_by_code[codes[q]], 1.0)
            if relax:
                by_code = self._relaxation_factors_by_code(
                    q, nm.gate_duration(inst))
                by_point *= np.where(kept, by_code[codes[q]], 1.0)
            codes[q] = code_maps[layer.gates[:, j, None], codes[q]]


def _ordered_product(bits: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Per column ``m``, the product of ``values[q]`` over the set
    ``bits[q, m]``, ``q`` ascending: a ``(n, M)`` bit matrix in, ``(M,)``
    out.  An unset bit contributes an exact 1.0 and the axis-0 product
    multiplies one row at a time, so this is the same left fold, bit for
    bit, as attenuating qubit by qubit."""
    factors = bits * values[:, None]
    factors += ~bits
    return np.prod(factors, axis=0)


_TWO_PI = 2.0 * math.pi
_HALF_PI = 0.5 * math.pi


@dataclass(frozen=True)
class RotationRun:
    """A maximal run of parameterized single-qubit rotations, compiled.

    Per-rotation fields are in *walk* (reverse circuit) order.

    Attributes:
        instructions: The template's rotation instructions.
        qubits: ``(R,)`` qubit of each rotation.
        params: ``(R,)`` parameter index of each rotation.
        elements: ``(R, 4)`` each rotation's element of the 24
            single-qubit Cliffords per level (angle ``level·π/2``).
        compose_order: ``(K, n)`` column per (position, qubit): the
            ``k``-th rotation of the run on qubit ``q`` in walk order, or
            ``R`` (the identity column) past the qubit's last.
    """

    instructions: tuple
    qubits: tuple
    params: np.ndarray
    elements: np.ndarray
    compose_order: np.ndarray

    @classmethod
    def compile(cls, steps: list[tuple], num_qubits: int) -> "RotationRun":
        """``steps``: the run's ``(instruction, parameter index)`` pairs in
        circuit order."""
        walk = steps[::-1]
        instructions = tuple(inst for inst, _ in walk)
        qubits = tuple(inst.qubits[0] for inst in instructions)
        rotations = single_qubit_cliffords().rotations
        per_qubit: list[list[int]] = [[] for _ in range(num_qubits)]
        for j, q in enumerate(qubits):
            per_qubit[q].append(j)
        depth = max(len(cols) for cols in per_qubit)
        order = np.full((depth, num_qubits), len(walk), dtype=np.int64)
        for q, cols in enumerate(per_qubit):
            order[:len(cols), q] = cols
        return cls(
            instructions=instructions, qubits=qubits,
            params=np.array([index for _, index in walk], dtype=np.int64),
            elements=np.stack([rotations[inst.name]
                               for inst in instructions]),
            compose_order=order)

    def layer(self, thetas: np.ndarray, tol: float) -> "RotationLayer":
        """The run's per-point data at a ``(P, d)`` batch of angles."""
        angles = thetas[:, self.params]
        # vectorized CliffordCircuitPlan._kept over the whole population
        folded = angles % _TWO_PI
        kept = np.minimum(folded, _TWO_PI - folded) >= tol
        turns = angles / _HALF_PI
        levels = np.rint(turns)
        if np.any(np.abs(turns - levels) >= 1e-9):
            raise ValueError("a rotation angle is not a multiple of pi/2")
        gates = self.elements[np.arange(len(self.params)),
                              levels.astype(np.int64) % 4]
        group = single_qubit_cliffords()
        with_identity = np.concatenate(
            [gates, np.zeros((len(gates), 1), dtype=np.int64)], axis=1)
        cliffords = with_identity[:, self.compose_order[0]]
        for columns in self.compose_order[1:]:
            cliffords = group.compose[cliffords, with_identity[:, columns]]
        return RotationLayer(kept=kept, any_kept=kept.any(axis=0),
                             gates=gates, cliffords=cliffords)


@dataclass(frozen=True)
class RotationLayer:
    """A :class:`RotationRun` at one batch of points.

    Attributes:
        kept: ``(P, R)`` whether each point keeps each rotation (it is
            not an exact identity), i.e. whether its noise attaches.
        any_kept: ``(R,)`` whether any point keeps the rotation.
        gates: ``(P, R)`` each rotation's single-qubit Clifford element.
        cliffords: ``(P, n)`` the run composed per qubit: the index
            :func:`~repro.stabilizer.tableau.pull_back_rotation_layer`
            takes.
    """

    kept: np.ndarray
    any_kept: np.ndarray
    gates: np.ndarray
    cliffords: np.ndarray


class CliffordCircuitPlan:
    """Bind and schedule plan over a parameterized ansatz template.

    Compiles the template once.  The instruction skeleton is what
    :func:`~repro.circuits.ansatz.drop_identity_rotations` would leave
    after binding (explicit ``i`` gates and zero-angle *bound* rotations
    are dropped at plan time,
    :func:`~repro.circuits.ansatz.bound_skeleton_steps`), and every
    maximal run of parameterized single-qubit rotations in it is one
    :class:`RotationRun` (and, on the first Clifford walk, every maximal
    run of static gates one
    :class:`~repro.stabilizer.tableau.StaticBlock`).  Per point only the
    parameterized rotations are re-dispatched: :meth:`bind` rebuilds one
    bound circuit, :meth:`keep_mask` / :meth:`steps_for` group points for
    the batched density-matrix evolver, and :meth:`reverse_schedule` turns a
    ``(P, d)`` batch into the one schedule the noisy Clifford walk runs
    (:meth:`CliffordNoiseModel.noisy_term_values_many`: nCAFQA's L_N and
    :class:`~repro.execution.estimator.CliffordEstimator`), one step
    per run.  The per-point instruction sequence is identical to
    ``drop_identity_rotations(template.bind(theta))``.
    """

    def __init__(self, template: Circuit, tol: float = 1e-12):
        from ..circuits.ansatz import bound_skeleton_steps

        self.num_qubits = template.num_qubits
        self.num_parameters = template.num_parameters
        self.tol = tol
        #: (instruction, parameter index | None); None = static instruction
        self.steps: list[tuple] = bound_skeleton_steps(template, tol)
        #: the walk's items in circuit order: a RotationRun, or a tuple of
        #: static instructions (compiled on first walk, :meth:`_walk`)
        self._items: list = []
        for parameterized, run in itertools.groupby(
                self.steps, key=lambda step: step[1] is not None):
            if parameterized:
                self._items.append(RotationRun.compile(list(run),
                                                       self.num_qubits))
            else:
                self._items.append(tuple(inst for inst, _ in run))
        self._walk_items: list | None = None

    def _check_thetas(self, thetas: np.ndarray) -> np.ndarray:
        thetas = np.atleast_2d(np.asarray(thetas, dtype=float))
        if thetas.shape[1] < self.num_parameters:
            raise ValueError(f"need {self.num_parameters} parameter values, "
                             f"got {thetas.shape[1]}")
        return thetas

    def _kept(self, angle: float) -> bool:
        folded = angle % _TWO_PI
        return min(folded, _TWO_PI - folded) >= self.tol

    def bind(self, theta: np.ndarray) -> Circuit:
        """The bound, identity-dropped circuit at one point."""
        theta = self._check_thetas(theta)[0]
        out = Circuit(self.num_qubits)
        instructions = out.instructions
        for inst, index in self.steps:
            if index is None:
                instructions.append(inst)
                continue
            angle = float(theta[index])
            if self._kept(angle):
                instructions.append(replace(inst, params=(angle,)))
        return out

    def keep_mask(self, theta: np.ndarray) -> tuple[bool, ...]:
        """Which parameterized steps survive identity-dropping at ``theta``.

        The mask is the point's circuit-structure signature: points with
        equal masks share an instruction sequence and can be evolved as
        one batch.
        """
        theta = self._check_thetas(theta)[0]
        return tuple(self._kept(float(theta[index]))
                     for _, index in self.steps if index is not None)

    def steps_for(self, mask: tuple[bool, ...], thetas: np.ndarray
                  ) -> list[tuple]:
        """The shared instruction sequence of one structure group.

        Returns ``(instruction, angles)`` pairs for the batched evolver:
        ``angles`` is the group's ``(B,)`` per-point angle vector for kept
        rotations and ``None`` for static instructions.  The
        representative instruction of a rotation carries the first point's
        angle (noise channels only read its name and qubits).
        """
        out = []
        kept = iter(mask)
        for inst, index in self.steps:
            if index is None:
                out.append((inst, None))
                continue
            if not next(kept):
                continue
            angles = np.asarray(thetas[:, index], dtype=float)
            out.append((replace(inst, params=(float(angles[0]),)), angles))
        return out

    def is_clifford(self, thetas: np.ndarray) -> bool:
        """Whether every point binds the template to a Clifford circuit."""
        thetas = self._check_thetas(thetas)
        for inst, index in self.steps:
            if index is None:
                if not inst.is_bound or not inst.spec.is_clifford(
                        tuple(float(p) for p in inst.params)):
                    return False
                continue
            for angle in np.unique(thetas[:, index]):
                if is_identity_angle(float(angle), self.tol):
                    continue  # dropped as an exact identity
                if not inst.spec.is_clifford((float(angle),)):
                    return False
        return True

    def reverse_schedule(self, thetas: np.ndarray) -> list[tuple]:
        """The batch's gates as one schedule in reverse circuit order.

        A run of static instructions comes out as ``(block, None)``,
        ``block`` its compiled
        :class:`~repro.stabilizer.tableau.StaticBlock`; a rotation run
        as ``(run, layer)``, ``layer`` being the run's
        per-point :class:`RotationLayer` at ``thetas``: ``(P, R)`` keep
        flags and Clifford elements per rotation and the ``(P, n)``
        composed layer.  Levels are ``round(angle / (pi/2)) mod 4`` and a
        rotation is kept exactly where :meth:`bind` keeps it.  Nothing in
        the schedule is per stacked row.  A run no point keeps any
        rotation of is left out.

        Raises:
            ValueError: if a rotation angle is not a multiple of pi/2.
        """
        thetas = self._check_thetas(thetas)
        schedule: list[tuple] = []
        for item in self._walk():
            if not isinstance(item, RotationRun):
                schedule.append((item, None))
                continue
            layer = item.layer(thetas, self.tol)
            if layer.any_kept.any():
                schedule.append((item, layer))
        return schedule

    def _walk(self) -> list:
        """The walk's items in reverse circuit order: each RotationRun,
        and each run of static instructions as one :func:`static_block`.

        Compiled on first use, so a template with non-Clifford static
        gates still binds and groups (only the Clifford walk needs it).
        """
        if self._walk_items is None:
            self._walk_items = [
                item if isinstance(item, RotationRun)
                else static_block(reversed(item), self.num_qubits)
                for item in reversed(self._items)]
        return self._walk_items

    #: The same method under its earlier name; ``perfbench/layers.py``
    #: wraps both names as the plan layer.
    reverse_leveled_schedule = reverse_schedule


def sample_noisy_energy(circuit: Circuit, hamiltonian: PauliSum,
                        noise_model: NoiseModel, shots: int,
                        rng: np.random.Generator,
                        include_basis_prep_error: bool = True) -> float:
    """Monte-Carlo estimate of the same quantity, stim style.

    Each shot samples a concrete Pauli-error realization of every gate's
    depolarizing channel, runs the stabilizer simulator, and evaluates all
    Hamiltonian terms exactly on the resulting stabilizer state.  Readout
    and basis-prep errors are folded in analytically (they commute with the
    estimate and sampling them would only add variance).

    Used in tests to validate :class:`CliffordNoiseModel` and in benchmarks
    to compare the deterministic evaluator's cost with the sampling cost the
    paper paid.
    """
    model = CliffordNoiseModel(noise_model,
                               include_basis_prep_error=include_basis_prep_error)
    meas_factors = model.measurement_attenuations(hamiltonian.table)
    coeffs = hamiltonian.coefficients * meas_factors
    terms = hamiltonian.table.to_paulis()
    total = 0.0
    from ..paulis.pauli import PauliString

    for _ in range(shots):
        sim = StabilizerSimulator(circuit.num_qubits)
        for inst in circuit.instructions:
            sim.apply_gate(inst.name, inst.qubits,
                           tuple(float(p) for p in inst.params))
            p = noise_model.gate_depol(inst)
            if p <= 0 or rng.random() >= p:
                continue
            if len(inst.qubits) == 1:
                label = "XYZ"[rng.integers(0, 3)]
                error = PauliString.from_sparse({inst.qubits[0]: label},
                                                circuit.num_qubits)
            else:
                a, b = _TWO_QUBIT_PAULIS[rng.integers(0, 15)]
                factors = {q: c for q, c in zip(inst.qubits, (a, b)) if c != "I"}
                error = PauliString.from_sparse(factors, circuit.num_qubits)
            sim.apply_pauli(error)
        total += float(coeffs @ np.array([sim.expectation(t) for t in terms]))
    return total / shots
