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
  the input bytes it read, from which each gate location's bits on the
  gate's qubits (and so the location's factors) are derived later.
  Clapton's skeleton ``A'(0)`` is a single block, so its L_N costs one
  pass per batch however many gates the skeleton has;
* a run of parameterized rotations (nCAFQA's L_N and
  :class:`~repro.execution.estimator.CliffordEstimator`, through
  :class:`CliffordCircuitPlan`) is one layer step: one bit-sliced pass,
  and per-rotation factors read off the row's code before the run.

The walk runs in two passes.  The *table pass* conjugates the whole
table through every step and keeps only what the factors need (each
block's ``(C, N)`` uint8 input bytes, each run's x/z words before the
run); it ends on the all-zeros expectations.  Only a row that ends
Z-type has a nonzero one, so the *factor pass* computes the noise
factors of those *live* rows alone, deriving a block's location bits
for the live rows from its saved bytes
(:meth:`~repro.stabilizer.tableau.StaticBlock.locations`).  In the
benchmark's searches (``perfbench/``) 5-35% of nCAFQA's walked rows and
17-42% of Clapton's are live, and on their recorded batches the split
took 14-45% off nCAFQA's loss time and 3-24% off Clapton's.  Both passes
work in bounded buffers, so a steady-state batch reuses the heap pages
the previous one freed instead of having glibc trim them and faulting
them back in (``benchmarks/test_batch_faults.py``).
Factors multiply in walk order, one float multiply per channel, so the
values are bit-identical to attenuating and conjugating gate by gate.
"""

from __future__ import annotations

import itertools
import math
import weakref
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from ..circuits.circuit import Circuit, _INVERSE_NAME
from ..obs import REGISTRY, get_tracer
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
from .model import _FOLD_CELLS, NoiseModel
from .twirling import pauli_channel_attenuation, twirled_relaxation_probabilities

_TWO_QUBIT_PAULIS = [(a, b) for a in "IXYZ" for b in "IXYZ"][1:]

_WALK_ROWS = REGISTRY.counter(
    "repro_noise_walk_rows_total", "Rows walked by the noisy Clifford walk")
_WALK_LIVE_ROWS = REGISTRY.counter(
    "repro_noise_walk_live_rows_total",
    "Walked rows whose noise factors the walk computed (rows ending "
    "Z-type)")


class NonCliffordError(ValueError):
    """A parameter point does not bind a template to a Clifford circuit,
    so the noisy Clifford walk cannot run it."""


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
        #: per walk step (static block or rotation run): its channels
        self._step_channels: weakref.WeakKeyDictionary = \
            weakref.WeakKeyDictionary()
        #: whether every readout and basis-prep factor is in (0, 1]
        self._measurement_in_unit = _in_unit(
            noise_model.readout_z_attenuation()) and (
                not include_basis_prep_error
                or _in_unit(1.0 - 4.0 * noise_model.depol_1q / 3.0))

    def __getstate__(self) -> dict:
        # weak references do not pickle; the cache refills on first use
        state = self.__dict__.copy()
        del state["_step_channels"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._step_channels = weakref.WeakKeyDictionary()

    # ------------------------------------------------------------------
    # Attenuation pieces
    # ------------------------------------------------------------------
    def measurement_attenuations(self, table) -> np.ndarray:
        """Per-term factor from readout error and, if modeled, basis-prep
        gate error (:meth:`NoiseModel.measurement_attenuations`)."""
        return self.noise_model.measurement_attenuations(
            table, self.include_basis_prep_error)

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
        table through the inverse gate tableau: the whole circuit is one
        :func:`static_block`, and the energy is the coefficient-weighted
        sum of the per-term values
        (:meth:`noisy_zero_state_term_values_steps`).
        """
        block = static_block(reversed(circuit.instructions),
                             circuit.num_qubits)
        values = self.noisy_zero_state_term_values_steps([(block, None)],
                                                         hamiltonian.table)
        return float(hamiltonian.coefficients @ values)

    def noisy_term_values_many(self, plan: "CliffordCircuitPlan", thetas,
                               table, zeros_out=None) -> np.ndarray:
        """``(P, M)`` per-term noisy values of a whole batch of angles.

        :meth:`noisy_term_values_scheduled` through ``plan``'s
        :meth:`CliffordCircuitPlan.reverse_schedule` at ``thetas``
        (Clifford angles): the walk
        :class:`~repro.execution.estimator.CliffordEstimator` runs.

        Raises:
            NonCliffordError: if a point does not bind ``plan``'s template
                to a Clifford circuit.
        """
        thetas = np.atleast_2d(np.asarray(thetas, dtype=float))
        return self.noisy_term_values_scheduled(
            plan.reverse_schedule(thetas), len(thetas), table, zeros_out)

    def noisy_term_values_scheduled(self, schedule: list[tuple],
                                    num_points: int, table, zeros_out=None,
                                    measured=None) -> np.ndarray:
        """``(P, M)`` per-term noisy values of a ``P``-point schedule.

        The one noisy walk of a parameterized template, shared by nCAFQA's
        L_N (``schedule`` from
        :meth:`CliffordCircuitPlan.reverse_leveled_schedule` at its
        integer genomes) and :meth:`noisy_term_values_many`: ``table``
        (the ``M`` observable terms) is tiled once per point and walked
        through ``schedule``.  The copies share their measurement
        attenuations, so those are computed once, on the untiled table
        (or passed in as ``measured`` by a caller that walks the same
        table batch after batch), and the walk reads live row ``i``'s at
        ``i % M``.  ``zeros_out``, if given, is passed through to the
        walk.
        """
        if measured is None:
            measured = self.measurement_attenuations(table)
        values = self.noisy_zero_state_term_values_steps(
            schedule, table.tile(num_points), measured=measured,
            zeros_out=zeros_out)
        return values.reshape(num_points, table.num_rows)

    def noisy_zero_state_term_values_steps(self, steps, table, measured=None,
                                           zeros_out=None) -> np.ndarray:
        """The same backward pass over an explicit *reverse-order* schedule.

        ``steps`` holds two kinds of step.  ``(block, None)`` is a
        :class:`~repro.stabilizer.tableau.StaticBlock` (from
        :func:`static_block`) of static gates every row sees.  ``(run,
        layer)``, from a
        :meth:`CliffordCircuitPlan.reverse_leveled_schedule`, is
        a run of parameterized single-qubit rotations: ``run`` is the
        plan's :class:`RotationRun` and ``layer`` its per-point
        :class:`RotationLayer`.  ``table`` then stacks ``P`` equal row
        blocks, block ``p`` belonging to point ``p``
        (:meth:`~repro.paulis.table.PauliTable.tile`), so all points' term
        values come out of one vectorized walk.

        The walk is two passes.  The *table pass* conjugates a copy of
        the whole table through every step: a block step is one
        :meth:`~repro.stabilizer.tableau.StaticBlock.apply`, whose input
        bytes the pass keeps, and a layer step is one bit-sliced
        :func:`~repro.stabilizer.tableau.pull_back_rotation_layer`, before
        which the pass keeps the table's x/z words.  It ends on the
        all-zeros expectations, which are 0 for every row that does not
        end Z-type: whatever those rows' noise factors, their value is 0.
        The *factor pass* then computes the noise factors of the other,
        *live* rows only, from what the table pass kept, and multiplies
        them in walk order, one channel after another: the measurement
        attenuations, then per block location depolarizing (if the row
        touches the gate), logical flips per qubit and twirled relaxation
        per qubit, looked up from the location's bits (derived for the
        live rows alone from the kept bytes,
        :meth:`~repro.stabilizer.tableau.StaticBlock.locations`); per
        rotation of a run (:meth:`_attenuate_layer`) the same three
        channels, looked up from the row's code on the rotation's qubit.
        A channel that
        leaves a row alone contributes an exact 1.0.  So every live row
        sees the same float products, in the same order, as when
        attenuating and conjugating gate by gate, and a point's values do
        not depend on the rest of its batch.

        A dead row's value is the exact ``+0.0`` of the all-zeros
        expectation, as ``factors * 0.0`` is whenever every factor is in
        ``(0, 1]``.  When some factor the walk can multiply is not (a
        negative depolarizing factor turns a dead row's value into
        ``-0.0``), every row counts as live.

        ``measured``, if given, is ``table``'s
        :meth:`measurement_attenuations`, passed by a caller that has
        them cheaper: one per row, or, for a table of equal row blocks,
        one per row of a block (live row ``i`` reads entry ``i % M``).
        ``zeros_out``, if given, receives the final table's all-zeros
        expectations: the noiseless values the returned ones attenuate.
        """
        num_rows = table.num_rows
        if measured is not None:
            measured = np.asarray(measured, dtype=float)
            if num_rows and (not len(measured) or num_rows % len(measured)):
                raise ValueError("measured needs one factor per row, or per "
                                 "row of one of the table's equal blocks")
        with get_tracer().span("noise_walk", rows=num_rows) as span:
            channels = [self._channels(item) for item, _ in steps]
            saved, zeros = _table_pass(steps, channels, table)
            if zeros_out is not None:
                zeros_out[...] = zeros
            # the factor pass
            in_unit = (self._measurement_in_unit if measured is None
                       else _in_unit(measured))
            if in_unit and all(c.in_unit for c in channels):
                live = np.flatnonzero(zeros)
            else:
                live = np.arange(num_rows)
            span.tag(live_rows=len(live))
            _WALK_ROWS.inc(num_rows)
            _WALK_LIVE_ROWS.inc(len(live))
            if not len(live):
                return zeros
            factors = (self.measurement_attenuations(table.take(live))
                       if measured is None
                       else measured[live % len(measured)])
            for (item, layer), step_channels, step_saved in zip(
                    steps, channels, saved):
                if layer is None:
                    bits = item.locations(step_saved, live)
                    factors = _fold(factors, step_channels.values,
                                    bits[step_channels.sources])
                else:
                    factors = self._attenuate_layer(
                        factors, live, step_saved, layer, step_channels)
            # a dead row's value is its all-zeros expectation
            zeros[live] = factors * zeros[live]
            return zeros

    def _flip_by_code(self) -> np.ndarray | None:
        """Logical-flip attenuation per code ``x + 2z``, if modeled."""
        flips = self.noise_model.logical_flip_probs
        if flips is None:
            return None
        probs = np.array([1.0 - sum(flips), *flips])
        f_i, f_x, f_y, f_z = pauli_channel_attenuation(probs)
        return np.array([f_i, f_x, f_z, f_y])

    def _channels(self, item) -> "_Channels":
        """A walk step's noise channels, compiled once per step."""
        channels = self._step_channels.get(item)
        if channels is None:
            channels = self._step_channels[item] = (
                self._run_channels(item) if isinstance(item, RotationRun)
                else self._block_channels(item))
        return channels

    def _block_channels(self, block: StaticBlock) -> "_Channels":
        """A block's channels in walk order: each one's location and its
        16 factors by location bits."""
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
        by_bits = np.array(by_bits, dtype=float).reshape(-1, 16)
        return _Channels(np.array(locations, dtype=np.intp), by_bits, (),
                         _in_unit(by_bits))

    def _run_channels(self, run: "RotationRun") -> "_Channels":
        """A rotation run's channels in walk order: each one's rotation
        and its factors by the row's code on the rotation's qubit, then
        four 1.0s for a point that drops the rotation (code + 4)."""
        nm = self.noise_model
        flip_by_code = self._flip_by_code()
        relax = self.include_twirled_relaxation and nm.t1 is not None
        rotations, by_code = [], []
        for j, (inst, q) in enumerate(zip(run.instructions, run.qubits)):
            p = nm.gate_depol(inst)
            if p > 0:
                factor = 1.0 - 4.0 * p / 3.0
                rotations.append(j)
                by_code.append([1.0, factor, factor, factor])
            if flip_by_code is not None:
                rotations.append(j)
                by_code.append(flip_by_code)
            if relax:
                rotations.append(j)
                by_code.append(self._relaxation_factors_by_code(
                    q, nm.gate_duration(inst)))
        by_code = np.array(by_code, dtype=float).reshape(-1, 4)
        by_code = np.concatenate([by_code, np.ones((len(by_code), 4))],
                                 axis=1)
        num_rotations = len(run.qubits)
        positions = tuple((np.flatnonzero(columns < num_rotations),
                           columns[columns < num_rotations])
                          for columns in run.compose_order)
        return _Channels(np.array(rotations, dtype=np.intp), by_code,
                         positions, _in_unit(by_code))

    def _attenuate_layer(self, factors, live, words, layer: "RotationLayer",
                         channels: "_Channels") -> np.ndarray:
        """The live rows' ``factors`` through one rotation layer step.

        ``words`` are the table's x/z words before the run.  Live row
        ``i`` belongs to point ``i // M``, whose keep flags
        (``layer.kept``) and elements (``layer.gates``) it reads.  Its
        code ``x + 2z`` on each qubit is read off ``words`` and carried
        through the run, position by position of the per-qubit compose
        order, by the rotations' code maps, so each rotation's channels
        read the code the row has just before that rotation; a point that
        drops the rotation reads its code + 4, the channels' 1.0.  A
        single-qubit Clifford keeps a row's support on its qubit, so
        depolarizing attenuates exactly the rows with a nonzero code.
        The run's channels then fold into ``factors`` as one ``(C, L)``
        matrix (:func:`_fold`): per rotation in walk order,
        depolarizing, then logical flips, then twirled relaxation.
        """
        if not len(channels.sources):
            return factors
        x, z = words
        points = live // (len(x) // len(layer.kept))
        num_qubits = layer.cliffords.shape[1]
        codes = bitops.unpack_columns(x[live], num_qubits).view(np.uint8) \
            | (bitops.unpack_columns(z[live], num_qubits).view(np.uint8)
               << np.uint8(1))
        code_maps = single_qubit_cliffords().codes.ravel()
        gates = layer.gates.T
        before = np.empty((len(gates), len(live)), dtype=np.uint8)
        last = len(channels.positions) - 1
        for position, (qubits, rotations) in enumerate(
                channels.positions):
            current = codes[qubits]
            before[rotations] = current
            if position < last:
                index = gates[rotations[:, None], points]
                index <<= 2
                index += current
                codes[qubits] = code_maps[index]
        # a point that drops a rotation reads codes 4..7: the 1.0s
        before |= (~layer.kept.T[:, points]).view(np.uint8) << np.uint8(2)
        return _fold(factors, channels.values, before[channels.sources])


def _table_pass(steps, channels: list, table) -> tuple[list, np.ndarray]:
    """The walk's table pass over a copy of ``table``.

    Returns what each step keeps for the factor pass (a block's input
    bytes, a run's x/z words before it, ``None`` for a run without
    channels) and the final all-zeros expectations.  The walked copy is
    dropped on return, before the factor pass allocates.
    """
    walked = table.copy()
    saved = []
    for (item, layer), step_channels in zip(steps, channels):
        if layer is None:
            saved.append(item.apply(walked))
            continue
        if not len(step_channels.sources):
            saved.append(None)
        elif saved:
            saved.append((walked.x.copy(), walked.z.copy()))
        else:  # nothing has touched the copy yet
            saved.append((table.x, table.z))
        pull_back_rotation_layer(walked, layer.cliffords)
    return saved, walked.expectation_all_zeros()


class _Channels(NamedTuple):
    """One walk step's noise channels, in walk order, compiled once per
    (model, step).  Channel ``c`` multiplies a row by ``values[c, code]``,
    ``code`` being what the row has at ``sources[c]``.

    Attributes:
        sources: ``(C,)`` the location (block) or rotation (run) whose
            bits or code each channel reads.
        values: ``(C, 16)`` factors by location bits (block), or ``(C,
            8)`` by code ``x + 2z``, then 1.0 for codes 4..7 (run).
        positions: A run's rotations by position in its per-qubit
            compose order: ``(qubits, rotations)`` per position (empty
            for a block).
        in_unit: Whether every factor is in ``(0, 1]``.
    """

    sources: np.ndarray
    values: np.ndarray
    positions: tuple
    in_unit: bool


def _fold(factors: np.ndarray, values: np.ndarray, codes: np.ndarray
          ) -> np.ndarray:
    """``factors`` multiplied by each channel's factor, channel by channel.

    Row ``c`` of the ``(C, L)`` ``codes`` picks channel ``c``'s factor for
    each of the ``L`` rows from ``values[c]``.  One axis-0 product over a
    ``(1 + C, L)`` matrix whose row 0 is ``factors``: the same left fold,
    bit for bit, as multiplying the channels in one at a time
    (:func:`~repro.noise.model._ordered_product`), taken over chunks of
    channels so the matrix stays near ``_FOLD_CELLS`` entries.
    """
    num_channels, width = values.shape
    flat = values.ravel()
    # channel c's factors start at flat[width * c]
    offsets = width * np.arange(num_channels)[:, None]
    step = max(1, _FOLD_CELLS // max(len(factors), 1))
    size = min(step, num_channels)
    matrix = np.empty((1 + size, len(factors)))
    index = np.empty((size, len(factors)), dtype=np.intp)
    for start in range(0, num_channels, step):
        chunk = codes[start:start + step]
        count = len(chunk)
        index[:count] = chunk
        index[:count] += offsets[start:start + count]
        matrix[0] = factors
        # the indices are in range by construction; "clip" lets take
        # write into the matrix without an intermediate buffer
        np.take(flat, index[:count], out=matrix[1:1 + count], mode="clip")
        factors = matrix[:1 + count].prod(axis=0)
    return factors


def _in_unit(values) -> bool:
    """Whether every entry is in ``(0, 1]`` (NaN is not)."""
    values = np.asarray(values)
    return bool(np.all((values > 0) & (values <= 1)))


_TWO_PI = 2.0 * math.pi
_HALF_PI = 0.5 * math.pi


# eq=False: a run hashes by identity, so a noise model can cache the
# run's compiled channels in a WeakKeyDictionary (its arrays do not hash)
@dataclass(frozen=True, eq=False)
class RotationRun:
    """A maximal run of parameterized single-qubit rotations, compiled.

    Per-rotation fields are in *walk* (reverse circuit) order.  A batch
    reaches the run as integer rotation levels (:meth:`layer`); no angle
    arithmetic happens here.

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
            # element indices fit a byte: a batch's (P, R) gates then do
            elements=np.stack([rotations[inst.name]
                               for inst in instructions]).astype(np.uint8),
            compose_order=order)

    def layer(self, levels: np.ndarray, kept: np.ndarray) -> "RotationLayer":
        """The run's per-point data at a batch of rotation levels.

        ``levels`` is a ``(P, d)`` integer matrix over 0..3 (angle
        ``level·π/2``) and ``kept`` its ``(P, d)`` per-parameter keep
        flags; both are read through :attr:`params`.
        """
        kept = kept[:, self.params]
        gates = self.elements[np.arange(len(self.params)),
                              levels[:, self.params]]
        group = single_qubit_cliffords()
        with_identity = np.concatenate(
            [gates, np.zeros((len(gates), 1), dtype=np.uint8)], axis=1)
        cliffords = with_identity[:, self.compose_order[0]]
        for columns in self.compose_order[1:]:
            cliffords = group.compose[cliffords, with_identity[:, columns]]
        return RotationLayer(kept=kept, any_kept=kept.any(axis=0),
                             gates=gates, cliffords=cliffords)


@dataclass(frozen=True)
class RotationLayer:
    """A :class:`RotationRun` at one batch of points, gathered from the
    batch's ``(P, d)`` levels and keep flags by the run's parameters.

    Attributes:
        kept: ``(P, R)`` whether each point keeps each rotation (it is
            not an exact identity), i.e. whether its noise attaches.
        any_kept: ``(R,)`` whether any point keeps the rotation.
        gates: ``(P, R)`` each rotation's single-qubit Clifford element
            (uint8), ``elements[r, level]``.
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
    bound circuit (the one bind path of every estimator),
    :meth:`keep_masks` / :meth:`steps_for` group points for the batched
    density-matrix evolver, and :meth:`reverse_leveled_schedule` turns a
    ``(P, d)`` batch of integer rotation levels into the one schedule the
    noisy Clifford walk runs
    (:meth:`CliffordNoiseModel.noisy_term_values_scheduled`), one step
    per run: nCAFQA's L_N passes its genomes as they are, and
    :class:`~repro.execution.estimator.CliffordEstimator` passes angles
    through :meth:`reverse_schedule`, which converts them once.  The
    per-point instruction sequence is identical to
    ``drop_identity_rotations(template.bind(theta))``.

    Whether a point binds the template to a Clifford circuit is checked
    in two places, each once: the static gates when the plan is compiled
    (any template binds and groups; only a schedule needs them Clifford),
    and the rotation angles by :meth:`reverse_schedule`, once per batch.
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
        #: the parameter each rotation reads, in circuit order
        self._rotation_params = np.array(
            [index for _, index in self.steps if index is not None],
            dtype=np.int64)
        #: parameters no rotation reads (a gap in the template's indices)
        unread = np.ones(self.num_parameters, dtype=bool)
        unread[self._rotation_params] = False
        self._unread = np.flatnonzero(unread)
        #: whether every static gate is Clifford (a schedule needs it)
        self._static_clifford = all(
            inst.spec.is_clifford(tuple(float(p) for p in inst.params))
            for inst, index in self.steps if index is None)

    def _check_thetas(self, thetas: np.ndarray) -> np.ndarray:
        thetas = np.atleast_2d(np.asarray(thetas, dtype=float))
        if thetas.shape[1] < self.num_parameters:
            raise ValueError(f"need {self.num_parameters} parameter values, "
                             f"got {thetas.shape[1]}")
        return thetas

    def _kept_flags(self, thetas: np.ndarray) -> np.ndarray:
        """Which angles of a matrix a bound rotation keeps: those whose
        fold into ``[0, π]`` (mod 2π) is at least ``tol``.  NaN and
        infinite angles fold to NaN and are not kept."""
        with np.errstate(invalid="ignore"):
            folded = np.remainder(thetas, _TWO_PI)
        return np.minimum(folded, _TWO_PI - folded) >= self.tol

    def bind(self, theta: np.ndarray) -> Circuit:
        """The bound, identity-dropped circuit at one point."""
        theta = self._check_thetas(theta)[0]
        kept = iter(self._kept_flags(theta[self._rotation_params]))
        out = Circuit(self.num_qubits)
        instructions = out.instructions
        for inst, index in self.steps:
            if index is None:
                instructions.append(inst)
            elif next(kept):
                instructions.append(replace(inst,
                                            params=(float(theta[index]),)))
        return out

    def keep_masks(self, thetas: np.ndarray) -> np.ndarray:
        """``(P, R)``: which parameterized steps survive identity-dropping
        at each point of a batch, one row per point.

        A row is the point's circuit-structure signature: points with
        equal rows share an instruction sequence and can be evolved as
        one batch.  The batch's angles are folded in one pass.
        """
        thetas = self._check_thetas(thetas)
        return self._kept_flags(thetas[:, self._rotation_params])

    def steps_for(self, mask, thetas: np.ndarray) -> list[tuple]:
        """The shared instruction sequence of one structure group.

        ``mask`` is one row of :meth:`keep_masks`.  Returns
        ``(instruction, angles)`` pairs for the batched evolver:
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

    def reverse_schedule(self, thetas: np.ndarray) -> list[tuple]:
        """:meth:`reverse_leveled_schedule` at a ``(P, d)`` batch of angles.

        The one angle-to-level conversion of the noisy walk, run once
        over the batch.  A rotation is kept exactly where :meth:`bind`
        keeps it (its angle folded into ``[0, π]`` is at least ``tol``,
        so an angle just off 0 keeps level 0 and its noise), and its
        level is ``round(angle / (π/2)) mod 4``.  A parameter no rotation
        reads is not checked.  An angle within ``tol`` of 0 (mod 2π) is a
        multiple of π/2 within the 1e-9 used here (and by
        :meth:`~repro.circuits.gates.GateSpec.is_clifford`), so the
        rotations that :meth:`bind` drops pass the check too.

        Raises:
            ValueError: if ``thetas`` has fewer than ``num_parameters``
                columns.
            NonCliffordError: if a rotation angle is not a multiple of
                pi/2 (NaN and infinities are not), or a static gate is not
                Clifford.
        """
        thetas = self._check_thetas(thetas)[:, :self.num_parameters]
        if len(self._unread):
            thetas = thetas.copy()
            thetas[:, self._unread] = 0.0
        turns = thetas / _HALF_PI
        levels = np.rint(turns)
        # a non-finite angle is rejected before ``inf - inf`` can warn
        if not (np.all(np.isfinite(turns))
                and np.all(np.abs(turns - levels) < 1e-9)):
            raise NonCliffordError("a rotation angle is not a multiple of "
                                   "pi/2")
        kept = self._kept_flags(thetas)
        # reduced in float (exact for integer values), so a huge finite
        # angle cannot overflow the cast
        levels = np.mod(levels, 4).astype(np.int64)
        return self.reverse_leveled_schedule(levels, kept)

    def reverse_leveled_schedule(self, levels: np.ndarray, kept: np.ndarray
                                 ) -> list[tuple]:
        """The batch's gates as one schedule in reverse circuit order.

        ``levels`` is a ``(P, d)`` integer matrix over 0..3, parameter
        ``k`` of point ``p`` at angle ``levels[p, k]·π/2`` (a CAFQA
        genome is one as it is), and ``kept`` the ``(P, d)`` flags of
        the rotations each point keeps (for a genome, ``levels != 0``).
        A run of static instructions comes out as ``(block, None)``,
        ``block`` its compiled
        :class:`~repro.stabilizer.tableau.StaticBlock`; a rotation run
        as ``(run, layer)``, ``layer`` being the run's per-point
        :class:`RotationLayer`: ``(P, R)`` keep flags and Clifford
        elements per rotation and the ``(P, n)`` composed layer.  Nothing
        in the schedule is per stacked row.  A run no point keeps any
        rotation of is left out.

        Raises:
            NonCliffordError: if a static gate of the template is not
                Clifford.
        """
        if levels.ndim != 2 or levels.shape[1] < self.num_parameters \
                or kept.shape != levels.shape:
            raise ValueError(f"need (P, >= {self.num_parameters}) levels "
                             "and keep flags of one shape")
        schedule: list[tuple] = []
        for item in self._walk():
            if not isinstance(item, RotationRun):
                schedule.append((item, None))
                continue
            layer = item.layer(levels, kept)
            if layer.any_kept.any():
                schedule.append((item, layer))
        return schedule

    def _walk(self) -> list:
        """The walk's items in reverse circuit order: each RotationRun,
        and each run of static instructions as one :func:`static_block`.

        Compiled on first use, so a template with non-Clifford static
        gates still binds and groups (only the Clifford walk needs it).
        """
        if not self._static_clifford:
            raise NonCliffordError("a static gate of the template is not "
                                   "Clifford")
        if self._walk_items is None:
            self._walk_items = [
                item if isinstance(item, RotationRun)
                else static_block(reversed(item), self.num_qubits)
                for item in reversed(self._items)]
        return self._walk_items


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
