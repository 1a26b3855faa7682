"""The benchmark's three workloads: problem, search shape and per-trio seeds.

Every workload runs the paper's three methods (clapton, cafqa, ncafqa)
through the public ``InitializationMethod.search`` with a
``SerialExecutor``: one process, one thread, no pools.  A *trio* is one
search per method, all three under the same search seed.  The workloads
differ in what dominates a search (see README.md, "Workloads"):

* ``fig4-ising12``   -- Figure-4 multi-GA at 12 qubits: small tables, so
  per-generation Python (breeding, memo) is a large share.
* ``large-ising32``  -- the same engine at 32 qubits: kernel, noise walk
  and plan building dominate; breeding is minor.
* ``tabu-toronto12`` -- tabu on 12-qubit Ising transpiled onto
  FakeToronto: single-gene neighborhoods (high memo hit rate), no GA,
  and the only workload where ``embed_table`` scatters columns.

Work per search is fixed by construction (the GA runs a fixed number of
rounds -- ``retry_rounds`` at least ``max_rounds`` disables the
convergence stop -- and tabu runs a fixed round budget), so a seed moves
the trajectory but not the amount of work.
"""

from __future__ import annotations

from dataclasses import dataclass

METHODS = ("clapton", "cafqa", "ncafqa")


@dataclass(frozen=True)
class Workload:
    """One benchmark input shape.

    Attributes:
        name: Workload name as given to ``--workload``.
        num_qubits: Logical Ising chain length.
        strategy: Registered search strategy.
        device: Transpile onto FakeToronto (the paper's device flow)
            instead of a logical problem with uniform noise.
        instances / generations / rounds: Figure-4 engine ``s``, ``m``
            and the fixed number of engine rounds (multi_ga only).
        tabu_rounds: Fixed tabu round budget (tabu only).
        population: ``|S|``; also the tabu neighborhood size.
    """

    name: str
    num_qubits: int
    strategy: str
    device: bool = False
    instances: int = 2
    generations: int = 10
    rounds: int = 1
    tabu_rounds: int = 40
    population: int = 100

    def build_problem(self):
        """The VQE problem: Hamiltonian plus noise model or transpile."""
        from repro import FakeToronto, NoiseModel, VQEProblem, ising_model

        hamiltonian = ising_model(self.num_qubits, 1.0)
        if self.device:
            return VQEProblem.from_backend(hamiltonian, FakeToronto())
        return VQEProblem.logical(hamiltonian,
                                  NoiseModel.uniform(self.num_qubits))

    def search_args(self, seed: int, warmup: bool = False) -> dict:
        """Keyword arguments of ``InitializationMethod.search``.

        ``warmup`` shrinks the search to one generation / two tabu rounds:
        enough to fill the program's lookup-table caches and resolve its
        first-call imports before anything is timed.
        """
        from repro import EngineConfig, SearchBudget, SerialExecutor

        rounds = 1 if warmup else self.rounds
        config = EngineConfig(
            num_instances=1 if warmup else self.instances,
            generations_per_round=1 if warmup else self.generations,
            population_size=self.population,
            max_rounds=rounds, retry_rounds=rounds, seed=seed)
        args = {"config": config, "executor": SerialExecutor(),
                "strategy": self.strategy}
        if self.strategy == "tabu":
            args["budget"] = SearchBudget(
                max_rounds=2 if warmup else self.tabu_rounds)
        return args


WORKLOADS = {w.name: w for w in (
    Workload("fig4-ising12", 12, "multi_ga", rounds=2),
    Workload("large-ising32", 32, "multi_ga", generations=5),
    Workload("tabu-toronto12", 12, "tabu", device=True),
)}

#: Tiny shapes of the same workloads, for the benchmark's smoke test.
SMOKE = {w.name: w for w in (
    Workload("fig4-ising12", 4, "multi_ga", generations=2, population=10),
    Workload("large-ising32", 5, "multi_ga", generations=2, population=10),
    Workload("tabu-toronto12", 4, "tabu", device=True, tabu_rounds=3,
             population=10),
)}


def trio_seed(seed: int, index: int) -> int:
    """Search seed of trio ``index`` in a run started with ``--seed seed``."""
    return seed * 1000 + index
