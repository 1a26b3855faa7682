"""The pluggable initialization-method protocol.

An :class:`InitializationMethod` describes one point on the paper's method
axis -- Clapton, CAFQA, nCAFQA, or anything a user registers -- through a
small, stable surface:

* ``name`` / ``description``: registry identity and one-line docs;
* ``num_parameters(problem)`` and ``num_values``: the genome space the
  search explores;
* ``make_loss(problem)``: the cost function the Figure-4 engine minimizes;
* ``decode(problem, genome)``: how a genome becomes a VQE starting point
  -- the Hamiltonian the online phase optimizes, the initial parameters,
  and (optionally) an explicit initial-state circuit.

The default :meth:`InitializationMethod.run` wires those pieces through
the :mod:`repro.search` strategy registry -- ``multi_ga`` (the Figure-4
engine, bit-identical to the historical drivers) unless ``strategy=``
names another registered :class:`~repro.search.SearchStrategy` -- so a
method defined purely by its loss and decode rules is automatically
runnable through :class:`~repro.experiments.Experiment`, campaigns, and
the CLI, under any search strategy.  Methods with a different search
shape (e.g. best-of-K random sampling) override :meth:`search` instead.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..circuits.circuit import Circuit
from ..core.clapton import InitializationResult
from ..core.problem import VQEProblem
from ..optim.engine import EngineConfig
from ..paulis.pauli_sum import PauliSum
from ..search.base import SearchResult
from ..search.registry import resolve_strategy


@dataclass(frozen=True)
class DecodedPoint:
    """What a genome means as a VQE starting point.

    Attributes:
        vqe_hamiltonian: The *logical* Hamiltonian the post-method VQE
            optimizes (transformed for Clapton-style methods, the original
            problem Hamiltonian otherwise).
        initial_theta: VQE starting parameters on the evaluation ansatz.
        init_circuit: Optional explicit initial-state circuit on the
            evaluation register; when ``None`` the bound ansatz
            ``A'(initial_theta)`` is used (the right choice for every
            ansatz-parameterized method).
    """

    vqe_hamiltonian: PauliSum
    initial_theta: np.ndarray
    init_circuit: Circuit | None = None


class InitializationMethod(abc.ABC):
    """One initialization strategy, runnable end to end.

    Subclasses define the class attributes ``name`` (registry key),
    ``description`` (one line, shown by ``repro methods``), and optionally
    ``num_values`` (genome alphabet size, default 4), plus the three
    abstract hooks.  Register an implementation with
    :func:`~repro.methods.register_method` to make it addressable by name
    everywhere a built-in method is.
    """

    name: str = ""
    description: str = ""
    #: Genes take values ``0..num_values-1``.
    num_values: int = 4

    # ------------------------------------------------------------------
    # The protocol
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def num_parameters(self, problem: VQEProblem) -> int:
        """Genome length on this problem."""

    @abc.abstractmethod
    def make_loss(self, problem: VQEProblem
                  ) -> Callable[[np.ndarray], float]:
        """The cost function the search minimizes (picklable for process
        executors)."""

    @abc.abstractmethod
    def decode(self, problem: VQEProblem, genome: np.ndarray) -> DecodedPoint:
        """Map a genome to its VQE starting point."""

    # ------------------------------------------------------------------
    # Default search + assembly (override `search` for non-GA methods)
    # ------------------------------------------------------------------
    def search(self, problem: VQEProblem,
               config: EngineConfig | None = None,
               executor=None, strategy=None, budget=None) -> SearchResult:
        """Minimize :meth:`make_loss` over the genome space.

        The default resolves ``strategy`` through the
        :mod:`repro.search` registry and falls back to ``multi_ga`` --
        the paper builds every method on "an optimization engine similar
        to the one shown in Figure 4", so the default comparisons isolate
        the cost function, while ``strategy=`` turns the optimizer itself
        into an experimental axis.  Methods with their own search shape
        (e.g. best-of-K random sampling) override this method and ignore
        the strategy axis.
        """
        resolved = resolve_strategy(strategy)
        return resolved.minimize(self.make_loss(problem),
                                 self.num_parameters(problem),
                                 num_values=self.num_values,
                                 budget=budget, config=config,
                                 executor=executor)

    def run(self, problem: VQEProblem, config: EngineConfig | None = None,
            executor=None, strategy=None, budget=None,
            mitigation=None) -> InitializationResult:
        """Search, decode the best genome, and bundle the result.

        ``strategy`` names any registered :class:`~repro.search.
        SearchStrategy` (default ``multi_ga``); ``budget`` optionally
        caps the search (see :class:`~repro.search.SearchBudget`).
        ``mitigation`` names a registered mitigation strategy or a
        ``"zne:folds=3|readout"`` spec (default ``none``): the discrete
        search itself is never mitigated -- mitigation acts on measured
        energies -- but the resolved name is validated here and recorded
        on the result so every downstream evaluation applies it.
        """
        from ..mitigation import resolve_mitigation as _resolve_mitigation

        mitigation_name = _resolve_mitigation(mitigation).name
        search = self.search(problem, config=config, executor=executor,
                             strategy=strategy, budget=budget)
        decoded = self.decode(problem, search.best_genome)
        return InitializationResult(
            method=self.name,
            problem=problem,
            genome=search.best_genome,
            loss=search.best_loss,
            search=search,
            vqe_hamiltonian=decoded.vqe_hamiltonian,
            initial_theta=decoded.initial_theta,
            init_circuit=decoded.init_circuit,
            mitigation=mitigation_name,
        )

    def __repr__(self) -> str:  # registry listings, error messages
        return f"<{type(self).__name__} name={self.name!r}>"
