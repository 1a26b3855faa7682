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
noise model on the transpiled circuit; both L_0 terms are exact noiseless
stabilizer evaluations.
"""

from __future__ import annotations

import math

import numpy as np

from ..circuits.ansatz import entanglement_pairs
from ..noise.clifford_model import CliffordCircuitPlan, CliffordNoiseModel
from ..obs import REGISTRY, get_tracer
from ..obs.kernel import kernel_event
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
        self._skeleton = problem.skeleton()

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
        backward noise walk through the shared skeleton.  Every step is
        row-wise, so a genome's values do not depend on its batch.
        """
        problem = self.problem
        coeffs = problem.hamiltonian.coefficients
        num_terms = len(coeffs)
        stacked = transform_table_many(problem.hamiltonian,
                                       np.asarray(gammas, dtype=np.int64),
                                       problem.entanglement)
        num_genomes = stacked.num_rows // num_terms
        zeros = stacked.expectation_all_zeros()
        noiseless = np.array(
            [float(coeffs @ zeros[p * num_terms:(p + 1) * num_terms])
             for p in range(num_genomes)])
        eval_stack = embed_table(stacked, problem.positions,
                                 problem.num_eval_qubits)
        values = self.clifford_model.noisy_zero_state_term_values(
            self._skeleton, eval_stack)
        noisy = np.array(
            [float(coeffs @ values[p * num_terms:(p + 1) * num_terms])
             for p in range(num_genomes)])
        return noisy, noiseless

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
    ``k * pi/2``.  The noiseless term always uses the *logical* ansatz (the
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

    def components(self, genome) -> tuple[float, float]:
        """``(L_N, L_0)`` at one genome (a batch of one)."""
        noisy, noiseless = self.components_many(
            np.asarray(genome, dtype=np.int64)[None, :])
        return float(noisy[0]), float(noiseless[0])

    def __call__(self, genome) -> float:
        noisy, noiseless = self.components(genome)
        return noisy + noiseless

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
        and the fixed CX ring between them is one LUT pass per gate.
        """
        # resolved at call time, so a profiler wrapping the tableau
        # module's kernels also sees the calls made from here
        from ..stabilizer.tableau import (
            apply_gate_to_table,
            gate_tableau,
            pull_back_rotation_layer,
            rotation_layer_cliffords,
        )

        genomes = np.asarray(genomes, dtype=np.int64)
        if genomes.ndim != 2:
            raise ValueError("genomes must be a (P, d) integer matrix")
        if np.any((genomes < 0) | (genomes > 3)):
            raise ValueError("genome entries must be in {0, 1, 2, 3}")
        problem = self.problem
        n = problem.num_logical_qubits
        if genomes.shape[1] < 4 * n:
            raise ValueError(f"need {4 * n} parameter values, "
                             f"got {genomes.shape[1]}")
        conj = problem.hamiltonian.table.tile(len(genomes))
        cx = gate_tableau("cx")
        # one aggregated kernel event per batched L_0 pull-back
        with kernel_event("kernel.fused_levels", passes=True):
            pull_back_rotation_layer(conj, rotation_layer_cliffords(
                genomes[:, 2 * n:4 * n:2], genomes[:, 2 * n + 1:4 * n:2]))
            for pair in reversed(entanglement_pairs(n, problem.entanglement)):
                apply_gate_to_table(conj, cx, pair)
            pull_back_rotation_layer(conj, rotation_layer_cliffords(
                genomes[:, 0:2 * n:2], genomes[:, 1:2 * n:2]))
        return conj

    def components_many(self, genomes) -> tuple[np.ndarray, np.ndarray]:
        """``(L_N, L_0)`` arrays for a whole ``(P, d)`` genome population.

        L_0 reads the all-zeros expectations off
        :meth:`logical_tables_many` (two rotation-layer passes and the CX
        ring).  The noisy term, when enabled, is
        :meth:`~repro.noise.clifford_model.CliffordNoiseModel.noisy_term_values_many`
        over the transpiled circuit at angles ``genome * pi/2``: the one
        noisy walk :class:`~repro.execution.estimator.CliffordEstimator`
        runs too, with each run of rotations one layer step (per-gate
        attenuation, then one bit-sliced pass).  Every step is row-wise,
        so a genome's values do not depend on its batch.
        """
        genomes = np.asarray(genomes, dtype=np.int64)
        conj = self.logical_tables_many(genomes)
        problem = self.problem
        num_genomes = len(genomes)
        coeffs = problem.hamiltonian.coefficients
        num_terms = len(coeffs)
        zeros = conj.expectation_all_zeros()
        noiseless = np.array(
            [float(coeffs @ zeros[p * num_terms:(p + 1) * num_terms])
             for p in range(num_genomes)])
        if not self.noise_aware:
            return np.zeros(num_genomes), noiseless
        mapped = self._mapped
        values = self.clifford_model.noisy_term_values_many(
            self._eval_plan, genomes * (math.pi / 2), mapped.table)
        noisy = np.array([float(mapped.coefficients @ row)
                          for row in values])
        return noisy, noiseless

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
