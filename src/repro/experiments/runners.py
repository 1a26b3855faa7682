"""Legacy experiment runners: thin wrappers over :class:`Experiment`.

Each function reproduces one experimental unit of the paper's evaluation:
``compare_initializations`` produces one Fig. 5 column (three methods, three
noise tiers, relative improvements), ``convergence_traces`` one Fig. 6 panel,
and ``sweep_relative_improvement`` one Fig. 7/8 curve point.  They all
delegate to :meth:`Experiment.run`, so the façade and the legacy surface
produce identical numbers for identical seeds.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..backends.backend import Backend
from ..core.clapton import InitializationResult
from ..core.evaluation import PointEvaluation
from ..core.problem import VQEProblem
from ..metrics import relative_improvement
from ..noise.model import NoiseModel
from ..optim.engine import EngineConfig
from ..paulis.pauli_sum import PauliSum
from ..vqe.runner import VQETrace
from .experiment import Experiment

__all__ = [
    "ComparisonRow", "build_problem", "compare_initializations",
    "convergence_traces", "format_comparison_table",
    "sweep_relative_improvement",
]


@dataclass
class ComparisonRow:
    """One benchmark's initialization comparison (a Fig. 5 column).

    Attributes:
        benchmark: Benchmark name.
        e0: Exact ground energy.
        e_mixed: Fully mixed state energy (normalization fixpoint).
        evaluations: Per-method three-tier energies.
        vqe: Optional per-method VQE traces (the "final point" data).
    """

    benchmark: str
    e0: float
    e_mixed: float
    evaluations: dict[str, PointEvaluation]
    results: dict[str, InitializationResult] = field(default_factory=dict)
    vqe: dict[str, VQETrace] = field(default_factory=dict)

    def _lookup(self, table: dict, name: str, what: str):
        try:
            return table[name]
        except KeyError:
            raise KeyError(f"no {what} for method {name!r}; available: "
                           f"{list(table)}") from None

    def eta_initial(self, baseline: str, tier: str = "device_model",
                    improver: str = "clapton") -> float:
        """Relative improvement of ``improver`` over ``baseline`` (Eq. 14)."""
        base = getattr(self._lookup(self.evaluations, baseline,
                                    "evaluation"), tier)
        imp = getattr(self._lookup(self.evaluations, improver,
                                   "evaluation"), tier)
        return relative_improvement(self.e0, base, imp)

    def eta_final(self, baseline: str, improver: str = "clapton") -> float:
        base = self._lookup(self.vqe, baseline, "VQE trace")
        imp = self._lookup(self.vqe, improver, "VQE trace")
        return relative_improvement(self.e0, base.final_energy,
                                    imp.final_energy)


def build_problem(hamiltonian: PauliSum, backend: Backend | None,
                  noise_model: NoiseModel | None = None,
                  hardware: Backend | None = None) -> VQEProblem:
    if backend is not None:
        return VQEProblem.from_backend(hamiltonian, backend,
                                       hardware=hardware)
    return VQEProblem.logical(hamiltonian, noise_model=noise_model)


def compare_initializations(benchmark_name: str, hamiltonian: PauliSum,
                            problem: VQEProblem, config: EngineConfig,
                            methods=None, vqe_iterations: int = 0,
                            seed: int = 0, executor=None) -> ComparisonRow:
    """Run the requested methods on one problem and evaluate all tiers."""
    experiment = Experiment(hamiltonian, problem=problem,
                            name=benchmark_name)
    return experiment.run(methods, config=config,
                          vqe_iterations=vqe_iterations, seed=seed,
                          executor=executor).to_row()


def convergence_traces(hamiltonian: PauliSum, problem: VQEProblem,
                       config: EngineConfig, vqe_iterations: int,
                       methods=None, seed: int = 0, executor=None
                       ) -> dict[str, VQETrace]:
    """Per-method VQE convergence histories (one Fig. 6 panel)."""
    experiment = Experiment(hamiltonian, problem=problem)
    return experiment.run(methods, config=config,
                          vqe_iterations=vqe_iterations, seed=seed,
                          executor=executor, evaluate_tiers=False).traces


def sweep_relative_improvement(hamiltonian: PauliSum,
                               noise_models: list[NoiseModel],
                               config: EngineConfig,
                               baseline: str = "ncafqa",
                               tier: str = "device_model",
                               executor=None) -> list[float]:
    """eta(baseline -> clapton) across a list of noise settings.

    A thin wrapper over a one-off campaign; for JSON specs, sharding over
    executors, crash-resumable stores and reports, build a
    :class:`~repro.campaigns.CampaignSpec` and run it through
    :class:`~repro.campaigns.CampaignRunner` directly.

    The Fig. 7/8 harnesses build the noise-model list by sweeping one
    channel's strength with everything else fixed.  Numbers are identical
    to the historical per-Experiment loop: each task's engine is seeded
    by ``config.seed`` exactly as before.  ``executor`` now shards sweep
    *cells* (each engine stays serial inside its task), so parallel runs
    reproduce the serial numbers bit for bit.
    """
    from ..campaigns.runner import CampaignRunner
    from ..campaigns.spec import CampaignSpec, TaskSpec, engine_to_dict
    from ..campaigns.store import ResultStore
    from ..hamiltonians.exact import ground_state_energy
    from ..metrics import relative_improvement
    from ..paulis.serialization import pauli_sum_to_dict

    e0 = ground_state_energy(hamiltonian)  # one eigensolve for the sweep
    h_payload = pauli_sum_to_dict(hamiltonian)
    engine = engine_to_dict(config)
    tasks = [
        TaskSpec(benchmark="sweep", num_qubits=hamiltonian.num_qubits,
                 method=method, seed=config.seed or 0,
                 setting={"kind": "noise_model",
                          "model": noise_model.to_dict()},
                 engine=engine, hamiltonian=h_payload, e0=e0)
        for noise_model in noise_models
        for method in (baseline, "clapton")
    ]
    spec = CampaignSpec(name="sweep_relative_improvement",
                        benchmarks=["sweep"],
                        qubit_sizes=[hamiltonian.num_qubits],
                        methods=[baseline, "clapton"])
    store = ResultStore.ephemeral(spec)

    def fail_fast(record):
        # preserve the legacy contract of failing on the first bad cell
        # instead of burning the rest of the sweep budget
        if record["status"] != "done":
            raise RuntimeError(
                f"sweep cell {record['task']['benchmark']}/"
                f"{record['task']['method']} failed:\n{record['error']}")

    CampaignRunner(spec, store, executor=executor,
                   tasks=tasks).run(on_record=fail_fast)
    etas = []
    for i, _ in enumerate(noise_models):
        base_run, clap_run = (store.record(t.task_id)["result"]
                              for t in tasks[2 * i:2 * i + 2])
        etas.append(relative_improvement(
            e0, base_run["runs"][baseline]["evaluation"][tier],
            clap_run["runs"]["clapton"]["evaluation"][tier]))
    return etas


def format_comparison_table(rows: list[ComparisonRow],
                            baseline: str = "cafqa") -> str:
    """Fixed-width text table mirroring Fig. 5's content."""
    lines = [
        f"{'benchmark':<14} {'E0':>10} "
        f"{'cafqa':>10} {'ncafqa':>10} {'clapton':>10} "
        f"{'eta_vs_cafqa':>13} {'eta_vs_ncafqa':>14}"
    ]
    for row in rows:
        e = {m: row.evaluations[m].device_model for m in row.evaluations}
        lines.append(
            f"{row.benchmark:<14} {row.e0:>10.4f} "
            f"{e.get('cafqa', float('nan')):>10.4f} "
            f"{e.get('ncafqa', float('nan')):>10.4f} "
            f"{e.get('clapton', float('nan')):>10.4f} "
            f"{row.eta_initial('cafqa'):>13.2f} "
            f"{row.eta_initial('ncafqa'):>14.2f}")
    return "\n".join(lines)
