"""Unified energy-estimation API: one protocol, three engines, batch-first.

Every evaluation surface of the reproduction (the Figure-4 GA losses, the
SPSA/VQE loop, the figure runners, the CLI) estimates Pauli-sum energies of
the bound ansatz ``A'(theta)``.  This module gives them a single seam:

* :class:`ExactEstimator` (``mode="exact"``) -- full density-matrix
  evolution with every modeled channel, optionally adding Gaussian noise
  with the exact per-term sampling variance.
* :class:`ShotSamplingEstimator` (``mode="shots"``) -- the faithful
  hardware measurement flow: qubit-wise-commuting grouping, noisy basis
  rotations, multinomial bitstring sampling through readout confusion,
  optional tensored readout mitigation.
* :class:`CliffordEstimator` (``mode="clifford"``) -- stabilizer fast path
  for Clifford parameter points (every theta a multiple of pi/2): the
  Pauli-channel noise projection evaluated in one backward tableau pass,
  orders of magnitude faster than density-matrix evolution.

All estimators implement ``estimate(theta) -> EstimateResult`` and the
batched ``estimate_many(thetas) -> BatchResult``.  Each estimator compiles
one :class:`~repro.noise.clifford_model.CliffordCircuitPlan` over the
ansatz template (a fused bind + identity-drop plan) and computes the
per-term measurement attenuations once, when it is built; every point,
single or batched, binds through that plan.  ``estimate_many`` loops over
``estimate`` unless the engine shares more across a batch: the exact
engine evolves points of one circuit structure as one tensor, and the
Clifford engine walks the whole batch in one backward tableau pass.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Protocol, runtime_checkable

import numpy as np

from ..densesim.evaluator import evolve_with_noise
from ..noise.clifford_model import (
    CliffordCircuitPlan,
    CliffordNoiseModel,
    NonCliffordError,
)
from ..noise.model import NoiseModel
from ..paulis.pauli_sum import PauliSum, _coefficient_dots

if TYPE_CHECKING:  # annotation-only; avoids a core <-> execution cycle
    from ..core.problem import VQEProblem


# ----------------------------------------------------------------------
# Results
# ----------------------------------------------------------------------
@dataclass
class EstimateResult:
    """One energy estimate with its full provenance.

    Attributes:
        value: The estimate itself (shot-noised when ``shots`` is set).
        exact_value: The infinite-shot value under the same model (equals
            ``value`` for exact estimators; ``None`` for sampled-counts
            estimates, where the infinite-shot value is never computed).
        term_expectations: Per-term expectations ``<P_i>`` after noise and
            measurement attenuation, aligned with the observable's terms.
        variance: Analytic sampling variance of ``value`` when the
            estimator knows it, else ``None``.
        shots: Shot budget charged (``None`` for infinite-shot estimates).
        seconds: Wall time of this estimate.
        mode: Which engine produced it (``"exact"``/``"shots"``/``"clifford"``).
    """

    value: float
    exact_value: float | None
    term_expectations: np.ndarray
    variance: float | None
    shots: int | None
    seconds: float
    mode: str


@dataclass
class BatchResult:
    """Results of one batched ``estimate_many`` call.

    Attributes:
        values: Energy estimates, one per input point.
        results: Full per-point :class:`EstimateResult` records.
        seconds: Wall time of the whole batch.
    """

    values: np.ndarray
    results: list[EstimateResult] = field(repr=False)
    seconds: float = 0.0

    def __len__(self) -> int:
        return len(self.results)

    def __iter__(self):
        return iter(self.results)

    def __getitem__(self, index: int) -> EstimateResult:
        return self.results[index]

    @property
    def term_expectations(self) -> np.ndarray:
        """``(num_points, num_terms)`` matrix of per-term expectations."""
        return np.stack([r.term_expectations for r in self.results])


# ----------------------------------------------------------------------
# Protocol
# ----------------------------------------------------------------------
@runtime_checkable
class Estimator(Protocol):
    """What every energy estimator exposes to the rest of the package."""

    mode: str
    num_evaluations: int

    def estimate(self, theta: np.ndarray) -> EstimateResult: ...

    def estimate_many(self, thetas: np.ndarray) -> BatchResult: ...

    def energy(self, theta: np.ndarray) -> float: ...


# ----------------------------------------------------------------------
# Shared machinery
# ----------------------------------------------------------------------
class BaseEstimator:
    """Common bookkeeping: validation, counters, the batched default."""

    mode = "base"

    def __init__(self, problem: "VQEProblem", observable: PauliSum,
                 noise_model: NoiseModel | None = None):
        self.problem = problem
        self.observable = observable
        self.noise_model = noise_model or problem.noise_model
        if self.noise_model.num_qubits != problem.num_eval_qubits:
            raise ValueError("noise model width must match the eval register")
        self.num_evaluations = 0
        #: the bind/schedule plan over the eval ansatz, the one every
        #: point binds through
        self._plan = CliffordCircuitPlan(problem.eval_ansatz)

    # -- protocol surface ---------------------------------------------
    def estimate(self, theta: np.ndarray) -> EstimateResult:
        raise NotImplementedError

    def estimate_many(self, thetas: np.ndarray) -> BatchResult:
        """Estimate a whole batch, one :meth:`estimate` per point."""
        start = time.perf_counter()
        thetas = np.atleast_2d(np.asarray(thetas, dtype=float))
        results = [self.estimate(theta) for theta in thetas]
        return BatchResult(
            values=np.array([r.value for r in results]),
            results=results,
            seconds=time.perf_counter() - start)

    def energy(self, theta: np.ndarray) -> float:
        """Scalar convenience: just the energy estimate."""
        return self.estimate(theta).value

    def __call__(self, theta: np.ndarray) -> float:
        return self.energy(theta)


# ----------------------------------------------------------------------
# Exact density-matrix estimator
# ----------------------------------------------------------------------
class ExactEstimator(BaseEstimator):
    """Estimate noisy energies of ``A'(theta)`` against one observable.

    Evolves the density matrix exactly (the paper's AerSimulator role) and
    optionally emulates measurement shot noise by adding Gaussian noise with
    the exact per-term sampling variance

        Var[E_hat] = sum_i c_i^2 (1 - <P_i>^2) / shots_i

    (each term measured with ``shots`` shots; covariance between qubit-wise
    commuting terms measured in shared bases is neglected, which is the
    usual conservative emulation).

    Args:
        problem: The VQE problem bundle (supplies the ansatz and register).
        observable: Hamiltonian on the evaluation register (the transformed
            one for post-Clapton VQE).
        noise_model: Device model; defaults to the problem's.  Pass the
            hardware twin's model to emulate on-device evaluation.
        shots: ``None`` for exact (infinite-shot) estimates, otherwise the
            per-term shot budget used for noise emulation.
        seed: Seed of the shot-noise generator.
    """

    mode = "exact"

    def __init__(self, problem: "VQEProblem", observable: PauliSum,
                 noise_model: NoiseModel | None = None,
                 shots: int | None = None, seed: int | None = None):
        super().__init__(problem, observable, noise_model)
        self.shots = shots
        self.rng = np.random.default_rng(seed)
        self._attenuation = self.noise_model.measurement_attenuations(
            observable.table)
        self._paulis = [p for _, p in observable.terms()]
        self._coefficients = observable.coefficients

    def with_problem(self, problem: "VQEProblem") -> "ExactEstimator":
        """Clone over another problem (same observable, model, rng stream).

        Mitigation strategies use this to evaluate folded circuit variants:
        the clone shares this estimator's shot-noise generator, so a stack
        that touches several variants draws from one deterministic stream.
        """
        clone = ExactEstimator(problem, self.observable,
                               noise_model=self.noise_model, shots=self.shots)
        clone.rng = self.rng
        return clone

    def _result(self, exact: float, values: np.ndarray, seconds: float
                ) -> EstimateResult:
        """One point's result from its infinite-shot value and term
        values; with ``shots`` set, ``value`` draws its Gaussian shot
        noise from :attr:`rng` (one draw per call)."""
        value, variance = exact, 0.0
        if self.shots is not None:
            variances = (self._coefficients ** 2
                         * np.clip(1.0 - values ** 2, 0.0, 1.0) / self.shots)
            variance = float(variances.sum())
            value = exact + float(self.rng.normal(0.0, np.sqrt(variance)))
        return EstimateResult(
            value=value, exact_value=exact, term_expectations=values,
            variance=variance, shots=self.shots, seconds=seconds,
            mode=self.mode)

    def estimate(self, theta: np.ndarray) -> EstimateResult:
        start = time.perf_counter()
        sim = evolve_with_noise(self._plan.bind(theta), self.noise_model)
        values = np.array([sim.pauli_expectation(p) for p in self._paulis])
        values = values * self._attenuation
        self.num_evaluations += 1
        return self._result(float(self._coefficients @ values), values,
                            time.perf_counter() - start)

    #: Complex state entries per chunk tensor (~2 MB): keeps each chunk's
    #: working set cache-resident so batching never trades locality away.
    _CHUNK_ELEMENTS = 1 << 17
    #: Below this many points per chunk the amortized dispatch saving no
    #: longer beats the scalar path's cache reuse; fall back to per-point.
    _MIN_CHUNK = 8

    def estimate_many(self, thetas: np.ndarray) -> BatchResult:
        """Batched estimation through shared density-matrix evolutions.

        Points are grouped by circuit structure (the identity-dropping
        pattern of their angles) and each group is evolved as one
        ``(B, 2^n, 2^n)`` tensor -- in cache-sized chunks -- so the
        per-instruction gate/channel dispatch, the dominant cost at these
        register sizes, is paid once per chunk instead of once per point.
        Above ~7 qubits a single point's state already amortizes the
        dispatch and the batch tensor would just thrash the cache, so the
        evaluation falls back to a per-point :meth:`estimate` loop.
        Shot-noise draws happen in point order, matching the sequential
        ``estimate`` stream exactly.
        """
        from ..densesim.batched import evolve_steps_with_noise

        num_qubits = self.problem.num_eval_qubits
        chunk_size = self._CHUNK_ELEMENTS // (4 ** num_qubits)
        if chunk_size < self._MIN_CHUNK:
            return super().estimate_many(thetas)

        start = time.perf_counter()
        thetas = np.atleast_2d(np.asarray(thetas, dtype=float))
        num_points = len(thetas)
        plan = self._plan

        masks = plan.keep_masks(thetas)
        groups: dict[bytes, list[int]] = {}
        for b, mask in enumerate(masks):
            groups.setdefault(mask.tobytes(), []).append(b)

        num_terms = len(self._paulis)
        exact_values = np.empty(num_points)
        term_matrix = np.empty((num_points, num_terms))
        point_seconds = np.empty(num_points)
        for members in groups.values():
            for lo in range(0, len(members), chunk_size):
                chunk = members[lo:lo + chunk_size]
                chunk_start = time.perf_counter()
                steps = plan.steps_for(masks[members[0]], thetas[chunk])
                sim = evolve_steps_with_noise(
                    steps, num_qubits, len(chunk), self.noise_model)
                values = sim.pauli_expectations(self._paulis)
                values *= self._attenuation[None, :]
                term_matrix[chunk] = values
                exact_values[chunk] = values @ self._coefficients
                point_seconds[chunk] = ((time.perf_counter() - chunk_start)
                                        / len(chunk))
        self.num_evaluations += num_points
        results = [self._result(float(exact_values[b]), term_matrix[b],
                                float(point_seconds[b]))
                   for b in range(num_points)]
        return BatchResult(
            values=np.array([r.value for r in results]),
            results=results,
            seconds=time.perf_counter() - start)


# ----------------------------------------------------------------------
# Shot-sampling (counts-based) estimator
# ----------------------------------------------------------------------
class ShotSamplingEstimator(BaseEstimator):
    """Estimate energies from sampled measurement outcomes.

    The slow-but-faithful reference path reproducing what actually happens
    on hardware: group terms into shared measurement bases, append (noisy)
    basis-rotation gates, sample bitstring counts through the asymmetric
    readout confusion, and reconstruct each term's expectation from the
    bits -- optionally applying tensored readout mitigation first.

    Args:
        problem: Problem bundle (ansatz + register).
        observable: Hamiltonian on the evaluation register.
        noise_model: Device model (defaults to the problem's).
        shots: Shots per measurement basis.
        seed: Sampling seed; ``None`` (the default) draws fresh OS entropy,
            matching every other estimator -- pass an explicit seed for
            reproducible sampling.
        readout_mitigation: Apply tensored confusion-matrix inversion to
            every sampled distribution before estimating expectations.
    """

    mode = "shots"

    def __init__(self, problem: "VQEProblem", observable: PauliSum,
                 noise_model: NoiseModel | None = None, shots: int = 4096,
                 seed: int | None = None, readout_mitigation: bool = False):
        from ..mitigation.readout import confusion_matrices
        from ..vqe.grouping import group_qubit_wise_commuting

        super().__init__(problem, observable, noise_model)
        self.shots = shots
        self.rng = np.random.default_rng(seed)
        self.readout_mitigation = readout_mitigation
        self.groups = group_qubit_wise_commuting(observable)
        self._constant = observable.identity_constant()
        self._matrices = confusion_matrices(self.noise_model)
        # Theta-independent per-batch precomputation: basis rotations and
        # per-term support qubit lists never change across a sweep.
        supports = observable.table.supports_mask()
        self._term_qubits = [[int(q) for q in np.flatnonzero(supports[idx])]
                             for idx in range(observable.num_terms)]
        self._rotations = [g.basis_rotation(problem.num_eval_qubits)
                           for g in self.groups]

    def with_problem(self, problem: "VQEProblem") -> "ShotSamplingEstimator":
        """Clone over another problem (same observable, model, rng stream)."""
        clone = ShotSamplingEstimator(
            problem, self.observable, noise_model=self.noise_model,
            shots=self.shots, readout_mitigation=self.readout_mitigation)
        clone.rng = self.rng
        return clone

    @property
    def num_bases(self) -> int:
        return len(self.groups)

    def estimate(self, theta: np.ndarray) -> EstimateResult:
        from ..mitigation.readout import (
            mitigate_probabilities,
            z_expectation_from_probabilities,
        )

        start = time.perf_counter()
        circuit = self._plan.bind(theta)
        coefficients = self.observable.coefficients
        term_values = np.zeros(self.observable.num_terms)
        for group, rotation in zip(self.groups, self._rotations):
            rotated = circuit.compose(rotation)
            sim = evolve_with_noise(rotated, self.noise_model)
            probs = sim.probabilities_with_readout_error(
                self.noise_model.readout_p01, self.noise_model.readout_p10)
            sampled = self.rng.multinomial(self.shots, probs) / self.shots
            if self.readout_mitigation:
                sampled = mitigate_probabilities(sampled, self._matrices)
            for idx in group.term_indices:
                term_values[idx] = z_expectation_from_probabilities(
                    sampled, self._term_qubits[idx])
        value = float(self._constant + coefficients @ term_values)
        self.num_evaluations += 1
        return EstimateResult(
            value=value, exact_value=None, term_expectations=term_values,
            variance=None, shots=self.shots,
            seconds=time.perf_counter() - start, mode=self.mode)


# ----------------------------------------------------------------------
# Clifford fast-path estimator
# ----------------------------------------------------------------------
class CliffordEstimator(BaseEstimator):
    """Stabilizer fast path for Clifford parameter points.

    When every ansatz angle is a multiple of pi/2 the bound circuit is
    Clifford and the Pauli-channel projection of the device model evaluates
    the noisy energy in one backward tableau pass (no density matrix).
    This is the engine behind Clapton's own cost function, exposed through
    the uniform estimator interface so GA populations and Clifford sweeps
    can use it as a drop-in.

    Raises ``ValueError`` from :meth:`estimate` and :meth:`estimate_many`
    when a point's bound circuit is not Clifford: a static gate of the
    template is not (checked once, when the plan is compiled), or a
    rotation angle is not a multiple of pi/2 (checked once per batch, as
    the walk's schedule is built).
    """

    mode = "clifford"

    def __init__(self, problem: "VQEProblem", observable: PauliSum,
                 noise_model: NoiseModel | None = None,
                 clifford_model: CliffordNoiseModel | None = None):
        super().__init__(problem, observable, noise_model)
        self.clifford_model = clifford_model or CliffordNoiseModel(
            self.noise_model)
        self._coefficients = observable.coefficients

    def with_problem(self, problem: "VQEProblem") -> "CliffordEstimator":
        """Clone over another problem (same observable and noise models)."""
        return CliffordEstimator(problem, self.observable,
                                 noise_model=self.noise_model,
                                 clifford_model=self.clifford_model)

    def estimate(self, theta: np.ndarray) -> EstimateResult:
        """One point: row 0 of a batch of one."""
        return self.estimate_many(np.asarray(theta, dtype=float)[None, :])[0]

    def estimate_many(self, thetas: np.ndarray) -> BatchResult:
        """One stacked backward tableau pass for the whole batch.

        The observable's term table is tiled once per point and walked a
        single time through the plan's schedule
        (:meth:`~repro.noise.clifford_model.CliffordNoiseModel.noisy_term_values_many`,
        the walk nCAFQA's L_N runs too): every run of static gates one
        compiled block pass, every run of rotations one layer step, each
        point's rows pulled back through its own angles -- instead of
        rebuilding the bound circuit and re-running the pass per point.
        """
        start = time.perf_counter()
        thetas = np.atleast_2d(np.asarray(thetas, dtype=float))
        num_points = len(thetas)
        try:
            term_matrix = self.clifford_model.noisy_term_values_many(
                self._plan, thetas, self.observable.table)
        except NonCliffordError:
            raise ValueError(
                "CliffordEstimator requires a Clifford parameter point "
                "(every angle a multiple of pi/2)") from None
        values = _coefficient_dots(term_matrix, self._coefficients, num_points)
        self.num_evaluations += num_points
        seconds = time.perf_counter() - start
        results = [EstimateResult(
            value=float(value), exact_value=float(value),
            term_expectations=terms, variance=0.0, shots=None,
            seconds=seconds / num_points, mode=self.mode)
            for value, terms in zip(values, term_matrix)]
        return BatchResult(values=values, results=results,
                           seconds=time.perf_counter() - start)


# ----------------------------------------------------------------------
# Factory
# ----------------------------------------------------------------------
_MODES = ("exact", "shots", "clifford")


def make_estimator(problem: "VQEProblem", observable: PauliSum | None = None,
                   *, mode: str = "exact",
                   noise_model: NoiseModel | None = None,
                   shots: int | None = None, seed: int | None = None,
                   readout_mitigation: bool = False,
                   clifford_model: CliffordNoiseModel | None = None
                   ) -> Estimator:
    """Build an estimator for one problem/observable pair.

    Args:
        problem: The VQE problem bundle.
        observable: Hamiltonian on the evaluation register; defaults to the
            problem's Hamiltonian mapped onto it.
        mode: ``"exact"`` (density matrix, optional Gaussian shot
            emulation), ``"shots"`` (sampled measurement flow), or
            ``"clifford"`` (stabilizer fast path for Clifford points).
        noise_model: Device model override (e.g. a hardware twin).
        shots: Shot budget; for ``"exact"`` ``None`` means infinite shots,
            for ``"shots"`` it defaults to 4096.
        seed: Seed of the estimator's sampling generator.  ``seed=None``
            (the default) means fresh OS entropy in **every** mode --
            identical calls are then statistically independent, never
            silently pinned.  Pass an explicit seed for reproducible
            sampling; exact infinite-shot and Clifford estimates are
            deterministic and take no seed.
        readout_mitigation: (``"shots"`` only) tensored confusion-matrix
            inversion before expectation reconstruction.
        clifford_model: (``"clifford"`` only) override the Pauli-channel
            projection used.

    Arguments that do not apply to the selected mode raise ``ValueError``
    rather than being silently ignored.
    """
    def reject(**irrelevant) -> None:
        passed = [name for name, value in irrelevant.items()
                  if value not in (None, False)]
        if passed:
            raise ValueError(f"arguments {passed} do not apply to "
                             f"mode={mode!r}")

    if observable is None:
        observable = problem.mapped_hamiltonian()
    if mode == "exact":
        reject(readout_mitigation=readout_mitigation,
               clifford_model=clifford_model)
        return ExactEstimator(problem, observable, noise_model=noise_model,
                              shots=shots, seed=seed)
    if mode == "shots":
        reject(clifford_model=clifford_model)
        return ShotSamplingEstimator(
            problem, observable, noise_model=noise_model,
            shots=4096 if shots is None else shots,
            seed=seed, readout_mitigation=readout_mitigation)
    if mode == "clifford":
        reject(shots=shots, seed=seed, readout_mitigation=readout_mitigation)
        return CliffordEstimator(problem, observable, noise_model=noise_model,
                                 clifford_model=clifford_model)
    raise ValueError(f"unknown estimator mode {mode!r}; expected one of {_MODES}")
