"""The cost functions of Clapton, CAFQA, and noise-aware CAFQA (Sec. 4.1, 5.2).

* Clapton:  ``L(gamma) = L_N(gamma) + L_0(gamma)`` over transformation
  genomes ``gamma in {0,1,2,3}^{5N}``; the Hamiltonian moves, the circuit is
  the fixed skeleton ``A'(0)``.
* CAFQA:    ``L(theta) = L_0(theta)`` over Clifford rotation genomes
  ``theta in {0,1,2,3}^{4N}`` (angles ``theta * pi/2``); the circuit moves,
  the Hamiltonian is fixed, and there is no noise term (its blind spot).
* nCAFQA:   ``L(theta) = L_N(theta) + L_0(theta)`` -- CAFQA plus this
  work's noise modeling, isolating the value of the *transformation* step
  when compared against Clapton.

Both noise-aware losses evaluate L_N with the exact Pauli-channel Clifford
noise model on the transpiled circuit; all L_0 terms are exact noiseless
stabilizer evaluations, nCAFQA's read off the end of its L_N walk.
"""

from __future__ import annotations

import math

import numpy as np

from ..circuits.ansatz import entanglement_pairs
from ..circuits.circuit import Circuit
from ..noise.clifford_model import (
    CliffordCircuitPlan,
    CliffordNoiseModel,
    static_block,
)
from ..obs import REGISTRY, get_tracer
from ..obs.kernel import kernel_event
from ..paulis.pauli_sum import _coefficient_dots
from .problem import VQEProblem
from .transformation import embed_table, transform_table_many

_LOSS_BATCHES = REGISTRY.counter(
    "repro_loss_batches_total", "Batched loss evaluate_many calls")
_LOSS_EVALS = REGISTRY.counter(
    "repro_loss_evaluations_total",
    "Genomes evaluated through batched losses")


class ClaptonLoss:
    """``gamma -> L_N + L_0`` for the Clapton transformation search.

    Args:
        problem: The VQE problem bundle.
        clifford_model: Noise model projection used for L_N (defaults to the
            paper's depolarizing + readout model on the problem's device).
        noisy_weight / noiseless_weight: Term weights; the paper uses 1 + 1,
            the ablation bench sweeps them.
    """

    def __init__(self, problem: VQEProblem,
                 clifford_model: CliffordNoiseModel | None = None,
                 noisy_weight: float = 1.0, noiseless_weight: float = 1.0):
        self.problem = problem
        self.clifford_model = clifford_model or CliffordNoiseModel(
            problem.noise_model)
        self.noisy_weight = noisy_weight
        self.noiseless_weight = noiseless_weight
        # A'(0) is static: its whole walk is one compiled block
        self._skeleton = static_block(
            reversed(problem.skeleton().instructions),
            problem.num_eval_qubits)

    def components(self, gamma) -> tuple[float, float]:
        """``(L_N, L_0)`` at a transformation genome (a batch of one)."""
        noisy, noiseless = self.components_many(
            np.asarray(gamma, dtype=np.int64)[None, :])
        return float(noisy[0]), float(noiseless[0])

    def __call__(self, gamma) -> float:
        noisy, noiseless = self.components(gamma)
        return self.noisy_weight * noisy + self.noiseless_weight * noiseless

    def components_many(self, gammas) -> tuple[np.ndarray, np.ndarray]:
        """``(L_N, L_0)`` arrays for a whole ``(P, d)`` genome population.

        One stacked ``(P*M, n)`` transformation pass plus one stacked
        backward noise walk through the shared skeleton, which is a
        single compiled block step.  Every step is row-wise, so a
        genome's values do not depend on its batch.
        """
        problem = self.problem
        coeffs = problem.hamiltonian.coefficients
        gammas = np.asarray(gammas, dtype=np.int64)
        stacked = transform_table_many(problem.hamiltonian, gammas,
                                       problem.entanglement)
        noiseless = _coefficient_dots(stacked.expectation_all_zeros(),
                                      coeffs, len(gammas))
        eval_stack = embed_table(stacked, problem.positions,
                                 problem.num_eval_qubits)
        values = self.clifford_model.noisy_zero_state_term_values_steps(
            [(self._skeleton, None)], eval_stack)
        return _coefficient_dots(values, coeffs, len(gammas)), noiseless

    def evaluate_many(self, gammas) -> np.ndarray:
        """``(P,)`` losses of a genome population in one batched pass."""
        gammas = np.asarray(gammas, dtype=np.int64)
        with get_tracer().span("loss.evaluate_many", loss="clapton",
                               batch=len(gammas),
                               qubits=self.problem.num_logical_qubits):
            noisy, noiseless = self.components_many(gammas)
        _LOSS_BATCHES.inc()
        _LOSS_EVALS.inc(len(gammas))
        return self.noisy_weight * noisy + self.noiseless_weight * noiseless


class CafqaLoss:
    """``theta-genome -> L_0`` (CAFQA) or ``L_N + L_0`` (nCAFQA).

    Genomes have length ``4N`` with values 0..3 encoding rotation angles
    ``k * pi/2``.  The noiseless term is the *logical* ansatz's energy (the
    algorithmic quantity CAFQA optimizes); the noisy term, when enabled,
    uses the transpiled circuit exactly like Clapton's L_N.
    """

    def __init__(self, problem: VQEProblem, noise_aware: bool = False,
                 clifford_model: CliffordNoiseModel | None = None):
        self.problem = problem
        self.noise_aware = noise_aware
        self.clifford_model = clifford_model or CliffordNoiseModel(
            problem.noise_model)
        self._eval_plan = CliffordCircuitPlan(problem.eval_ansatz)
        self._mapped = problem.mapped_hamiltonian()
        n = problem.num_logical_qubits
        ring = Circuit(n)
        for pair in entanglement_pairs(n, problem.entanglement):
            ring.cx(*pair)
        self._ring = static_block(reversed(ring.instructions), n,
                                  locations=False)

    def components(self, genome) -> tuple[float, float]:
        """``(L_N, L_0)`` at one genome (a batch of one)."""
        noisy, noiseless = self.components_many(
            np.asarray(genome, dtype=np.int64)[None, :])
        return float(noisy[0]), float(noiseless[0])

    def __call__(self, genome) -> float:
        noisy, noiseless = self.components(genome)
        return noisy + noiseless

    def _genome_matrix(self, genomes) -> np.ndarray:
        """``genomes`` as a checked ``(P, >= 4N)`` matrix over 0..3."""
        genomes = np.asarray(genomes, dtype=np.int64)
        if genomes.ndim != 2:
            raise ValueError("genomes must be a (P, d) integer matrix")
        if np.any((genomes < 0) | (genomes > 3)):
            raise ValueError("genome entries must be in {0, 1, 2, 3}")
        n = self.problem.num_logical_qubits
        if genomes.shape[1] < 4 * n:
            raise ValueError(f"need {4 * n} parameter values, "
                             f"got {genomes.shape[1]}")
        return genomes

    def logical_tables_many(self, genomes):
        """The Hamiltonian pulled back through each genome's logical ansatz.

        One Hamiltonian table copy per genome is stacked into a
        ``(P*M, n)`` word-packed table (genome ``p`` owns rows
        ``[p*M, (p+1)*M)``) and pulled back through
        :func:`~repro.circuits.ansatz.hardware_efficient_ansatz`, last
        gate first, in three steps: the second RY/RZ layer and then the
        first are one bit-sliced word pass each
        (:func:`~repro.stabilizer.tableau.pull_back_rotation_layer`, every
        genome's composed single-qubit Clifford on every qubit at once),
        and the fixed CX ring between them is one compiled
        :class:`~repro.stabilizer.tableau.StaticBlock` pass.
        """
        # resolved at call time, so a profiler wrapping the tableau
        # module's kernels also sees the calls made from here
        from ..stabilizer.tableau import (
            pull_back_rotation_layer,
            rotation_layer_cliffords,
        )

        genomes = self._genome_matrix(genomes)
        n = self.problem.num_logical_qubits
        conj = self.problem.hamiltonian.table.tile(len(genomes))
        # one aggregated kernel event per batched L_0 pull-back
        with kernel_event("kernel.fused_levels", passes=True):
            pull_back_rotation_layer(conj, rotation_layer_cliffords(
                genomes[:, 2 * n:4 * n:2], genomes[:, 2 * n + 1:4 * n:2]))
            self._ring.apply(conj)
            pull_back_rotation_layer(conj, rotation_layer_cliffords(
                genomes[:, 0:2 * n:2], genomes[:, 1:2 * n:2]))
        return conj

    def components_many(self, genomes) -> tuple[np.ndarray, np.ndarray]:
        """``(L_N, L_0)`` arrays for a whole ``(P, d)`` genome population.

        CAFQA reads L_0 off :meth:`logical_tables_many` (two
        rotation-layer passes and the CX ring's block pass).  nCAFQA runs
        only :meth:`~repro.noise.clifford_model.CliffordNoiseModel.noisy_term_values_many`
        over the transpiled circuit at angles ``genome * pi/2`` -- the one
        noisy walk :class:`~repro.execution.estimator.CliffordEstimator`
        runs too, each run of rotations one layer step and each run of
        static gates one block pass -- and reads L_0 off the noiseless
        values that walk ends on (the transpiled circuit is the logical
        ansatz, and ``mapped_hamiltonian`` keeps the term order).  Every
        step is row-wise, so a genome's values do not depend on its batch.
        """
        genomes = self._genome_matrix(genomes)
        num_genomes = len(genomes)
        coeffs = self.problem.hamiltonian.coefficients
        if not self.noise_aware:
            zeros = self.logical_tables_many(genomes).expectation_all_zeros()
            return (np.zeros(num_genomes),
                    _coefficient_dots(zeros, coeffs, num_genomes))
        zeros = np.empty(num_genomes * len(coeffs))
        values = self.clifford_model.noisy_term_values_many(
            self._eval_plan, genomes * (math.pi / 2), self._mapped.table,
            zeros_out=zeros)
        return (_coefficient_dots(values, self._mapped.coefficients,
                                  num_genomes),
                _coefficient_dots(zeros, coeffs, num_genomes))

    def evaluate_many(self, genomes) -> np.ndarray:
        """``(P,)`` losses of a genome population in one batched pass."""
        genomes = np.asarray(genomes, dtype=np.int64)
        with get_tracer().span(
                "loss.evaluate_many",
                loss="ncafqa" if self.noise_aware else "cafqa",
                batch=len(genomes),
                qubits=self.problem.num_logical_qubits):
            noisy, noiseless = self.components_many(genomes)
        _LOSS_BATCHES.inc()
        _LOSS_EVALS.inc(len(genomes))
        return noisy + noiseless


class NcafqaLoss(CafqaLoss):
    """``theta-genome -> L_N + L_0``: CAFQA's search under this work's
    noise modeling (Sec. 5.2), as a named loss.

    Identical to ``CafqaLoss(problem, noise_aware=True)``; exists so the
    three methods of the paper each have a first-class loss type with the
    same batched :meth:`~CafqaLoss.evaluate_many` surface.
    """

    def __init__(self, problem: VQEProblem,
                 clifford_model: CliffordNoiseModel | None = None):
        super().__init__(problem, noise_aware=True,
                         clifford_model=clifford_model)
