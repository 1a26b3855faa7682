"""The cost functions of Clapton, CAFQA, and noise-aware CAFQA (Sec. 4.1, 5.2).

* Clapton:  ``L(gamma) = L_N(gamma) + L_0(gamma)`` over transformation
  genomes ``gamma in {0,1,2,3}^{5N}``; the Hamiltonian moves, the circuit is
  the fixed skeleton ``A'(0)``.
* CAFQA:    ``L(theta) = L_0(theta)`` over Clifford rotation genomes
  ``theta in {0,1,2,3}^{4N}`` (rotation levels: angles ``theta * pi/2``,
  though no loss builds the angles; the genome indexes the Clifford
  tables directly); the circuit moves, the Hamiltonian is fixed, and
  there is no noise term (its blind spot).
* nCAFQA:   ``L(theta) = L_N(theta) + L_0(theta)`` -- CAFQA plus this
  work's noise modeling, isolating the value of the *transformation* step
  when compared against Clapton.

Both noise-aware losses evaluate L_N with the exact Pauli-channel Clifford
noise model on the transpiled circuit; all L_0 terms are exact noiseless
stabilizer evaluations, nCAFQA's read off the end of its L_N walk.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from ..circuits.ansatz import entanglement_pairs
from ..circuits.circuit import Circuit
from ..noise.clifford_model import (
    CliffordCircuitPlan,
    CliffordNoiseModel,
    static_block,
)
from ..obs import REGISTRY, get_tracer, minor_faults
from ..obs.kernel import kernel_event
from ..paulis.pauli_sum import _coefficient_dots
from ..stabilizer.tableau import (
    StaticBlock,
    pull_back_rotation_layer,
    rotation_layer_cliffords,
)
from .problem import VQEProblem
from .transformation import embed_table, transform_table_many

_LOSS_BATCHES = REGISTRY.counter(
    "repro_loss_batches_total", "Batched loss evaluate_many calls")
_LOSS_EVALS = REGISTRY.counter(
    "repro_loss_evaluations_total",
    "Genomes evaluated through batched losses")
_WALK_SHARED_ROWS = REGISTRY.counter(
    "repro_walk_shared_rows_total",
    "Clapton rows whose noisy value was copied from block 0's equal row "
    "instead of walked")


def _traced_batch(loss, name: str, genomes: np.ndarray
                  ) -> tuple[np.ndarray, np.ndarray]:
    """``loss.components_many(genomes)`` under one ``loss.evaluate_many``
    span, counted in the loss metrics.  While tracing is on, the span
    also carries the batch's minor page faults (``minor_faults``) and
    the Clapton rows it did not walk (``shared_rows``, 0 for the other
    losses).  Both counts are per process, so a thread running beside
    the batch adds its own."""
    tracer = get_tracer()
    with tracer.span("loss.evaluate_many", loss=name, batch=len(genomes),
                     qubits=loss.problem.num_logical_qubits) as span:
        if tracer.enabled:
            faults = minor_faults()
            shared = _WALK_SHARED_ROWS.total()
        components = loss.components_many(genomes)
        if tracer.enabled:
            span.tag(minor_faults=minor_faults() - faults,
                     shared_rows=int(_WALK_SHARED_ROWS.total() - shared))
    _LOSS_BATCHES.inc()
    _LOSS_EVALS.inc(len(genomes))
    return components


def _walked_rows(table, num_blocks: int) -> np.ndarray | None:
    """The rows of a stacked batch that Clapton's skeleton walk must run.

    ``table`` stacks ``num_blocks`` blocks of ``M`` rows, one per genome.
    Every row of blocks 1.. is compared, word by word and on its phase,
    with its term's row in block 0.  When at least half of all rows
    equal theirs, the walk needs only block 0's rows and the rows that
    differ: the result is their ascending indices, block 0 first.  The
    walk is row-wise, so an equal row's value is block 0's, bit for bit.
    Otherwise (fewer equal rows, or fewer than two blocks) the result is
    ``None``, and every row is walked.  A tabu neighbourhood changes one
    gene per genome, so most of its rows repeat; a GA population's
    mostly do not, and the compare stops after its first word.
    """
    num_rows = table.num_rows
    if num_blocks < 2:
        return None
    num_terms = num_rows // num_blocks
    same = None
    for column in (*table.x.T, *table.z.T, table.phase_exp):
        column = column.reshape(num_blocks, num_terms)
        if same is None:
            same = column[1:] == column[0]
        else:
            same &= column[1:] == column[0]
        # the walk runs block 0 plus every row that differs from it
        if 2 * (num_rows - np.count_nonzero(same)) > num_rows:
            return None
    differ = np.flatnonzero(~same) + num_terms
    return np.concatenate((np.arange(num_terms), differ))


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
        genome's values do not depend on its batch, and a row equal to
        another has its value: when at least half of the batch's rows
        equal their term's row in genome 0's block (:func:`_walked_rows`,
        a tabu neighbourhood), only block 0 and the rows that differ are
        embedded and walked, and block 0's values are copied into the
        equal rows.  The sums run over all ``P*M`` values either way.
        """
        problem = self.problem
        coeffs = problem.hamiltonian.coefficients
        gammas = np.asarray(gammas, dtype=np.int64)
        stacked = transform_table_many(problem.hamiltonian, gammas,
                                       problem.entanglement)
        num_genomes = len(gammas)
        noiseless = _coefficient_dots(stacked.expectation_all_zeros(),
                                      coeffs, num_genomes)
        walked = _walked_rows(stacked, num_genomes)
        if walked is not None:
            stacked = stacked.take(walked)
        # the walk copies its table: dropping the logical stack first
        # keeps the batch at two copies of it, not three
        stacked = embed_table(stacked, problem.positions,
                              problem.num_eval_qubits)
        values = self.clifford_model.noisy_zero_state_term_values_steps(
            [(self._skeleton, None)], stacked)
        if walked is not None:
            # block 0 leads the walked rows; every row not walked equals
            # block 0's row of its term
            shared = np.tile(values[:len(coeffs)], num_genomes)
            shared[walked] = values
            values = shared
            _WALK_SHARED_ROWS.inc(len(values) - len(walked))
        return _coefficient_dots(values, coeffs, num_genomes), noiseless

    def evaluate_many(self, gammas) -> np.ndarray:
        """``(P,)`` losses of a genome population in one batched pass."""
        gammas = np.asarray(gammas, dtype=np.int64)
        noisy, noiseless = _traced_batch(self, "clapton", gammas)
        return self.noisy_weight * noisy + self.noiseless_weight * noiseless


class CafqaLoss:
    """``theta-genome -> L_0``: the CAFQA baseline (Sec. 5.2).

    Genomes have length ``4N`` with values 0..3 encoding rotation angles
    ``k * pi/2``.  The loss is the *logical* ansatz's noiseless energy
    (the algorithmic quantity CAFQA optimizes); there is no noise term.
    """

    #: the ``loss`` tag of the batch's trace span
    trace_name = "cafqa"

    def __init__(self, problem: VQEProblem):
        self.problem = problem

    @cached_property
    def _ring(self) -> StaticBlock:
        """The ansatz's CX ring as one compiled block, built on first use
        (nCAFQA's batches never read it)."""
        n = self.problem.num_logical_qubits
        ring = Circuit(n)
        for pair in entanglement_pairs(n, self.problem.entanglement):
            ring.cx(*pair)
        return static_block(reversed(ring.instructions), n, locations=False)

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

        L_N is 0; L_0 is read off :meth:`logical_tables_many` (two
        rotation-layer passes and the CX ring's block pass), which also
        checks the genomes.  Every step is row-wise, so a genome's values
        do not depend on its batch.
        """
        zeros = self.logical_tables_many(genomes).expectation_all_zeros()
        num_genomes = len(genomes)
        return (np.zeros(num_genomes),
                _coefficient_dots(zeros, self.problem.hamiltonian.coefficients,
                                  num_genomes))

    def evaluate_many(self, genomes) -> np.ndarray:
        """``(P,)`` losses of a genome population in one batched pass."""
        genomes = np.asarray(genomes, dtype=np.int64)
        noisy, noiseless = _traced_batch(self, self.trace_name, genomes)
        return noisy + noiseless


class NcafqaLoss(CafqaLoss):
    """``theta-genome -> L_N + L_0``: CAFQA's search under this work's
    noise modeling (Sec. 5.2).

    The genome is CAFQA's.  Both terms come out of one noisy walk over the
    transpiled circuit, exactly like Clapton's L_N.

    Args:
        problem: The VQE problem bundle.
        clifford_model: Noise model projection used for L_N (defaults to
            the problem's device model).
    """

    trace_name = "ncafqa"

    def __init__(self, problem: VQEProblem,
                 clifford_model: CliffordNoiseModel | None = None):
        super().__init__(problem)
        self.clifford_model = clifford_model or CliffordNoiseModel(
            problem.noise_model)
        self._eval_plan = CliffordCircuitPlan(problem.eval_ansatz)
        self._mapped = problem.mapped_hamiltonian()
        # every batch walks the same mapped terms under the same model,
        # so their measurement attenuations are computed once
        self._measured = self.clifford_model.measurement_attenuations(
            self._mapped.table)

    def components_many(self, genomes) -> tuple[np.ndarray, np.ndarray]:
        """``(L_N, L_0)`` arrays for a whole ``(P, d)`` genome population.

        One :meth:`~repro.noise.clifford_model.CliffordNoiseModel.noisy_term_values_scheduled`
        walk over the transpiled circuit, the genomes passed as the
        integer rotation levels they are (keep flags ``genome != 0``,
        :meth:`~repro.noise.clifford_model.CliffordCircuitPlan.reverse_leveled_schedule`)
        -- the one noisy walk
        :class:`~repro.execution.estimator.CliffordEstimator` runs too,
        from angles, each run of rotations one layer step and each run of
        static gates one block pass.  L_0 is read off the noiseless
        values that walk ends on (the transpiled circuit is the logical
        ansatz, and ``mapped_hamiltonian`` keeps the term order).  Every
        step is row-wise, so a genome's values do not depend on its batch.
        """
        genomes = self._genome_matrix(genomes)
        num_genomes = len(genomes)
        zeros = np.empty(num_genomes * self._mapped.num_terms)
        values = self.clifford_model.noisy_term_values_scheduled(
            self._eval_plan.reverse_leveled_schedule(genomes, genomes != 0),
            num_genomes, self._mapped.table, zeros_out=zeros,
            measured=self._measured)
        return (_coefficient_dots(values, self._mapped.coefficients,
                                  num_genomes),
                _coefficient_dots(zeros, self.problem.hamiltonian.coefficients,
                                  num_genomes))
