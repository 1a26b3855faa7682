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

``noisy_zero_state_energy`` walks the circuit backward once, conjugating all
M terms simultaneously through gate tableaus and accumulating the factors --
an exact, deterministic O(M * L) evaluation that replaces stim's Monte Carlo
sampling (a sampling path is kept in :func:`sample_noisy_energy` for
validation and parity with the paper's implementation).
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from ..circuits.ansatz import is_identity_angle
from ..circuits.circuit import Circuit, _INVERSE_NAME
from ..paulis.pauli_sum import PauliSum
from ..stabilizer.simulator import StabilizerSimulator
from ..stabilizer.tableau import CliffordTableau, apply_gate_to_table, gate_tableau
from .model import NoiseModel
from .twirling import pauli_channel_attenuation, twirled_relaxation_probabilities

_TWO_QUBIT_PAULIS = [(a, b) for a in "IXYZ" for b in "IXYZ"][1:]


def _inverse_gate_tableau(inst) -> CliffordTableau:
    if inst.spec.num_params:
        return gate_tableau(inst.name, tuple(-float(p) for p in inst.params))
    return gate_tableau(_INVERSE_NAME.get(inst.name, inst.name))


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

    # ------------------------------------------------------------------
    # Attenuation pieces
    # ------------------------------------------------------------------
    def measurement_attenuations(self, table) -> np.ndarray:
        """Per-term factor from readout error and basis-prep gate error."""
        nm = self.noise_model
        att = nm.readout_z_attenuation()
        support = table.supports_mask()
        factors = np.prod(np.where(support, att[None, :], 1.0), axis=1)
        if self.include_basis_prep_error:
            prep = 1.0 - 4.0 * nm.depol_1q / 3.0
            factors = factors * np.prod(
                np.where(table.unpack_x(), prep[None, :], 1.0), axis=1)
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
        expectation).
        """
        return self.noisy_zero_state_term_values_steps(
            [(inst, None) for inst in reversed(circuit.instructions)], table)

    def noisy_zero_state_term_values_steps(self, steps, table) -> np.ndarray:
        """The same backward pass over an explicit *reverse-order* schedule.

        ``steps`` is a :meth:`CliffordCircuitPlan.reverse_schedule`:
        ``(instruction, None)`` for a gate every row sees, and
        ``(bound_instructions, level_of_row)`` for a rotation slot, where
        row ``r`` sees ``bound_instructions[level_of_row[r] - 1]`` and level
        0 drops the rotation.  This is the population-batched entry point:
        stack one Hamiltonian table copy per genome
        (:meth:`~repro.paulis.table.PauliTable.tile`) and all
        genomes' term values come out of one vectorized walk.  A slot's
        noise attenuates only rows with level > 0, and every arithmetic
        step is row-wise, so a genome's values do not depend on the rest
        of its batch.
        """
        nm = self.noise_model
        table = table.copy()
        factors = self.measurement_attenuations(table)
        relax = (self.include_twirled_relaxation and nm.t1 is not None)
        flips = nm.logical_flip_probs
        flip_by_code = None
        if flips is not None:
            probs = np.array([1.0 - sum(flips), *flips])
            f_i, f_x, f_y, f_z = pauli_channel_attenuation(probs)
            flip_by_code = np.array([f_i, f_x, f_z, f_y])
        for item, level_of_row in steps:
            if level_of_row is None:
                inst, rows, sel = item, None, slice(None)
            else:
                # every bound alternative shares the rotation's qubits,
                # hence its noise
                inst = item[0]
                rows = sel = level_of_row > 0
            qubits = list(inst.qubits)
            p = nm.gate_depol(inst)
            if p > 0:
                touched = table.touches_any(qubits)
                if rows is not None:
                    touched &= rows
                factor = (1.0 - 4.0 * p / 3.0) if len(qubits) == 1 \
                    else (1.0 - 16.0 * p / 15.0)
                factors[touched] *= factor
            if flip_by_code is not None:
                for q in qubits:
                    factors[sel] *= flip_by_code[table.codes_on(q, sel)]
            if relax:
                duration = nm.gate_duration(inst)
                for q in qubits:
                    by_code = self._relaxation_factors_by_code(q, duration)
                    factors[sel] *= by_code[table.codes_on(q, sel)]
            _conjugate_step(table, item, level_of_row)
        return factors * table.expectation_all_zeros()


def _conjugate_step(table, item, level_of_row) -> None:
    if level_of_row is None:
        apply_gate_to_table(table, _inverse_gate_tableau(item), item.qubits)
        return
    # resolved at call time, so a profiler wrapping the tableau module's
    # kernels also sees the calls made from here
    from ..stabilizer.tableau import apply_gate_levels_to_table

    entries = [None] + [(_inverse_gate_tableau(inst), False)
                        for inst in item]
    apply_gate_levels_to_table(table, entries, item[0].qubits, level_of_row)


_TWO_PI = 2.0 * math.pi


class CliffordCircuitPlan:
    """Bind and schedule plan over a parameterized ansatz template.

    Precomputes, once per template, the instruction skeleton that
    :func:`~repro.circuits.ansatz.drop_identity_rotations` would leave after
    binding (explicit ``i`` gates and zero-angle *bound* rotations are
    dropped at plan time, :func:`~repro.circuits.ansatz.bound_skeleton_steps`).
    Per point only the parameterized rotations are re-dispatched:
    :meth:`bind` rebuilds one bound circuit, :meth:`keep_mask` /
    :meth:`steps_for` group points for the batched density-matrix
    evolver, and :meth:`reverse_schedule` turns a ``(P, d)`` batch into
    the one leveled schedule the noise-attenuating Clifford walks run
    (nCAFQA's L_N and
    :class:`~repro.execution.estimator.CliffordEstimator`): noise
    attenuates per gate, so those walks keep one step per rotation.
    CAFQA's noiseless L_0 uses no plan; it pulls each RY/RZ layer back
    in one bit-sliced pass
    (:func:`~repro.stabilizer.tableau.pull_back_rotation_layer`).  The
    per-point instruction sequence is identical to
    ``drop_identity_rotations(template.bind(theta))``.
    """

    def __init__(self, template: Circuit, tol: float = 1e-12):
        from ..circuits.ansatz import bound_skeleton_steps

        self.num_qubits = template.num_qubits
        self.num_parameters = template.num_parameters
        self.tol = tol
        #: (instruction, parameter index | None); None = static instruction
        self.steps: list[tuple] = bound_skeleton_steps(template, tol)

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

    def reverse_schedule(self, thetas: np.ndarray, rows_per_point: int
                         ) -> list[tuple]:
        """The population's gates as one schedule in reverse circuit order.

        ``rows_per_point`` is the number of stacked table rows each point
        owns (the Hamiltonian's term count M); point ``p`` owns the
        contiguous row block ``[p*M, (p+1)*M)``.  A static instruction
        comes out as ``(instruction, None)``.  A parameterized rotation
        comes out as ``(bound_instructions, level_of_row)``: the distinct
        kept angles as bound instructions, plus a ``(P*M,)`` unsigned
        integer level per row, 1-based into that list, with 0 where the angle is an exact
        identity and the rotation is dropped.  A slot no point keeps is
        left out.
        """
        thetas = self._check_thetas(thetas)
        num_points = len(thetas)
        schedule: list[tuple] = []
        for inst, index in reversed(self.steps):
            if index is None:
                schedule.append((inst, None))
                continue
            angles = thetas[:, index]
            # vectorized is_identity_angle over the whole population
            folded = angles % _TWO_PI
            kept = np.minimum(folded, _TWO_PI - folded) >= self.tol
            distinct = np.unique(angles[kept])
            if distinct.size == 0:
                continue
            # the narrowest integer type holding every level: a schedule
            # keeps one level per stacked row for each slot
            level_of_point = np.zeros(num_points,
                                      dtype=np.min_scalar_type(distinct.size))
            bound_insts = []
            for level, angle in enumerate(distinct, start=1):
                level_of_point[kept & (angles == angle)] = level
                bound_insts.append(replace(inst, params=(float(angle),)))
            schedule.append((bound_insts,
                             np.repeat(level_of_point, rows_per_point)))
        return schedule

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
