"""The single entry point for running the paper's experimental units.

``Experiment`` bundles a Hamiltonian with an evaluation setting (backend /
noise model / hardware twin), ``Experiment.run`` executes any subset of the
initialization methods -- through the Figure-4 engine, the three-tier
evaluation, and optionally the SPSA/VQE phase -- and returns an
:class:`ExperimentResult` that carries everything downstream consumers
need: per-method evaluations, VQE traces, search bookkeeping, wall times,
and a JSON round trip.

The legacy runners (``compare_initializations``, ``convergence_traces``,
``sweep_relative_improvement``) are thin wrappers over this class, so
every surface produces identical numbers for identical seeds.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from ..backends.backend import Backend
from ..core.clapton import InitializationResult
from ..core.evaluation import PointEvaluation, evaluate_initial_point
from ..core.problem import VQEProblem
from ..hamiltonians.exact import ground_state_energy
from ..metrics import relative_improvement
from ..noise.model import NoiseModel
from ..optim.engine import EngineConfig
from ..paulis.pauli_sum import PauliSum
from ..vqe.runner import VQETrace, run_vqe


@dataclass
class MethodRun:
    """Everything one method produced on one problem (serializable).

    Attributes:
        method: Registered method name (see ``repro.methods``).
        genome: Best engine genome.
        loss: Best engine loss (the method's own cost, not an energy).
        evaluation: Three-tier initial-point energies.
        engine_rounds / engine_evaluations / engine_seconds: search
            bookkeeping (the Figure-4 engine's, or the chosen strategy's).
        seconds: Wall time of the whole method run (search + evaluation +
            optional VQE).
        vqe: SPSA trace when ``vqe_iterations > 0``.
        strategy: Search-strategy label that produced the genome
            (``repro strategies``; ``"none"``/``"best_of_k"`` for methods
            with their own search shape).
        mitigation: Canonical mitigation-strategy label applied to the
            noisy evaluation tiers (``repro mitigations``); ``"none"``
            means every estimate is raw.
        search_trace: Per-round :class:`~repro.search.SearchTrace`
            payloads, in execution order.
        cache_stats: Memo-table accounting of the search (``hits`` /
            ``misses`` / ``dedups`` / ``entries``), aggregated across
            process workers; ``None`` for methods without a search phase
            or payloads that predate the field.
    """

    method: str
    genome: np.ndarray
    loss: float
    evaluation: PointEvaluation | None
    engine_rounds: int
    engine_evaluations: int
    engine_seconds: float
    seconds: float
    vqe: VQETrace | None = None
    strategy: str = "multi_ga"
    mitigation: str = "none"
    search_trace: list = field(default_factory=list)
    cache_stats: dict | None = None

    def to_dict(self) -> dict:
        ev = self.evaluation
        evaluation = None
        if ev is not None:
            evaluation = {
                "noiseless": ev.noiseless,
                "clifford_model": ev.clifford_model,
                "device_model": ev.device_model,
                "hardware": ev.hardware,
            }
            if ev.device_model_raw is not None:
                evaluation["device_model_raw"] = ev.device_model_raw
        out = {
            "method": self.method,
            "genome": np.asarray(self.genome).tolist(),
            "loss": float(self.loss),
            "evaluation": evaluation,
            "engine_rounds": self.engine_rounds,
            "engine_evaluations": self.engine_evaluations,
            "engine_seconds": self.engine_seconds,
            "seconds": self.seconds,
            "strategy": self.strategy,
            # omitted when "none" so pre-mitigation payloads stay
            # byte-identical (and so do their content hashes)
            **({"mitigation": self.mitigation}
               if self.mitigation != "none" else {}),
            "search_trace": [dict(t) for t in self.search_trace],
            "cache_stats": (None if self.cache_stats is None
                            else dict(self.cache_stats)),
            "vqe": None,
        }
        if self.vqe is not None:
            t = self.vqe
            out["vqe"] = {
                "initial_theta": np.asarray(t.initial_theta).tolist(),
                "final_theta": np.asarray(t.final_theta).tolist(),
                "initial_energy": t.initial_energy,
                "final_energy": t.final_energy,
                "history": [float(v) for v in t.history],
                "hardware_initial": t.hardware_initial,
                "hardware_final": t.hardware_final,
                "num_evaluations": t.num_evaluations,
                "evaluations_by_tier": dict(t.evaluations_by_tier),
            }
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "MethodRun":
        vqe = None
        if data.get("vqe") is not None:
            v = data["vqe"]
            vqe = VQETrace(
                initial_theta=np.asarray(v["initial_theta"], dtype=float),
                final_theta=np.asarray(v["final_theta"], dtype=float),
                initial_energy=v["initial_energy"],
                final_energy=v["final_energy"],
                history=list(v["history"]),
                hardware_initial=v["hardware_initial"],
                hardware_final=v["hardware_final"],
                num_evaluations=v["num_evaluations"],
                evaluations_by_tier=dict(v["evaluations_by_tier"]),
            )
        return cls(
            method=data["method"],
            genome=np.asarray(data["genome"], dtype=np.int64),
            loss=data["loss"],
            evaluation=(None if data["evaluation"] is None
                        else PointEvaluation(**data["evaluation"])),
            engine_rounds=data["engine_rounds"],
            engine_evaluations=data["engine_evaluations"],
            engine_seconds=data["engine_seconds"],
            seconds=data["seconds"],
            vqe=vqe,
            # pre-strategy-axis payloads lack these keys
            strategy=data.get("strategy", "multi_ga"),
            mitigation=data.get("mitigation", "none"),
            search_trace=list(data.get("search_trace") or []),
            cache_stats=data.get("cache_stats"),
        )


@dataclass
class ExperimentResult:
    """Outcome of one :meth:`Experiment.run`.

    Attributes:
        benchmark: Experiment name.
        e0: Exact ground energy of the Hamiltonian.
        e_mixed: Fully mixed state energy (normalization fixpoint).
        runs: Per-method :class:`MethodRun` records, in execution order.
        total_seconds: Wall time of the whole run.
        results: Live :class:`InitializationResult` objects (not
            serialized; empty after :meth:`from_dict`).
    """

    benchmark: str
    e0: float
    e_mixed: float
    runs: dict[str, MethodRun]
    total_seconds: float
    results: dict[str, InitializationResult] = field(
        default_factory=dict, repr=False, compare=False)

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    @property
    def methods(self) -> tuple[str, ...]:
        return tuple(self.runs)

    @property
    def evaluations(self) -> dict[str, PointEvaluation]:
        return {m: r.evaluation for m, r in self.runs.items()
                if r.evaluation is not None}

    @property
    def traces(self) -> dict[str, VQETrace]:
        return {m: r.vqe for m, r in self.runs.items() if r.vqe is not None}

    @property
    def timings(self) -> dict[str, float]:
        return {m: r.seconds for m, r in self.runs.items()}

    def _method_run(self, name: str) -> MethodRun:
        try:
            return self.runs[name]
        except KeyError:
            raise KeyError(
                f"no {name!r} run in this result; available runs: "
                f"{list(self.runs)}") from None

    def eta_initial(self, baseline: str, tier: str = "device_model",
                    improver: str = "clapton") -> float:
        """Relative improvement of ``improver`` over ``baseline`` (Eq. 14)."""
        base = self._method_run(baseline)
        imp = self._method_run(improver)
        if base.evaluation is None or imp.evaluation is None:
            raise ValueError(
                "eta_initial needs tier evaluations; this result was "
                "produced with evaluate_tiers=False")
        return relative_improvement(self.e0,
                                    getattr(base.evaluation, tier),
                                    getattr(imp.evaluation, tier))

    def eta_final(self, baseline: str, improver: str = "clapton") -> float:
        base = self._method_run(baseline)
        imp = self._method_run(improver)
        if base.vqe is None or imp.vqe is None:
            raise ValueError(
                "eta_final needs VQE traces; run with vqe_iterations > 0")
        return relative_improvement(self.e0, base.vqe.final_energy,
                                    imp.vqe.final_energy)

    def to_row(self):
        """The legacy :class:`~repro.experiments.runners.ComparisonRow`."""
        from .runners import ComparisonRow

        return ComparisonRow(
            benchmark=self.benchmark, e0=self.e0, e_mixed=self.e_mixed,
            evaluations=self.evaluations, results=dict(self.results),
            vqe=self.traces)

    # ------------------------------------------------------------------
    # JSON round trip
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "benchmark": self.benchmark,
            "e0": float(self.e0),
            "e_mixed": float(self.e_mixed),
            "total_seconds": float(self.total_seconds),
            "runs": {m: r.to_dict() for m, r in self.runs.items()},
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentResult":
        return cls(
            benchmark=data["benchmark"],
            e0=data["e0"],
            e_mixed=data["e_mixed"],
            runs={m: MethodRun.from_dict(r) for m, r in data["runs"].items()},
            total_seconds=data["total_seconds"],
        )


class Experiment:
    """One experimental unit: a Hamiltonian in an evaluation setting.

    Args:
        hamiltonian: Logical problem ``H``.
        backend: Transpile the ansatz onto this device (the paper's main
            flow); mutually exclusive with ``noise_model``.
        noise_model: Untranspiled evaluation under this device model
            (Fig. 7/8 sweeps); noiseless when neither is given.
        hardware: Optional "actual device" twin for the hardware tier.
        entanglement: Ansatz entanglement pattern.
        problem: Pre-built problem bundle; overrides all of the above.
        name: Experiment label (defaults to a size-based tag).
        e0: Precomputed exact ground energy; skips the dense eigensolve
            in :meth:`run` (useful when sweeping many settings of one
            Hamiltonian).

    Example::

        result = Experiment(xxz_model(10, 0.5), backend=FakeToronto()) \\
            .run(methods=("cafqa", "clapton"), config=FAST_ENGINE)
        print(result.eta_initial("cafqa"))
    """

    def __init__(self, hamiltonian: PauliSum, *,
                 backend: Backend | None = None,
                 noise_model: NoiseModel | None = None,
                 hardware: Backend | None = None,
                 entanglement: str = "circular",
                 problem: VQEProblem | None = None,
                 name: str | None = None,
                 e0: float | None = None):
        self.hamiltonian = hamiltonian
        self.name = name or f"{hamiltonian.num_qubits}q"
        self.e0 = e0
        if problem is not None:
            self.problem = problem
        elif backend is not None:
            self.problem = VQEProblem.from_backend(
                hamiltonian, backend, entanglement=entanglement,
                hardware=hardware)
        else:
            self.problem = VQEProblem.logical(
                hamiltonian, noise_model=noise_model,
                entanglement=entanglement)

    def run(self, methods=None, *, config: EngineConfig | None = None,
            vqe_iterations: int = 0, vqe_shots: int | None = None,
            seed: int = 0, evaluate_tiers: bool = True, strategy=None,
            budget=None, mitigation=None) -> ExperimentResult:
        """Run the requested methods and evaluate all tiers.

        Args:
            methods: Registered method names and/or
                :class:`~repro.methods.InitializationMethod` instances;
                defaults to the built-in trio ``("cafqa", "ncafqa",
                "clapton")``.  ``repro methods`` lists what is registered.
            config: Engine hyperparameters; defaults to the preset selected
                by ``CLAPTON_BENCH_PRESET`` (``fast`` unless overridden).
            vqe_iterations: SPSA iterations of the online phase (0 skips
                VQE entirely).
            vqe_shots: Optional per-term shot budget for the VQE phase.
            seed: VQE seed (the engine's seed lives in ``config``).
            evaluate_tiers: Evaluate each initial point under the three
                noise tiers; pass False when only the engine output or
                the VQE traces matter (``MethodRun.evaluation`` is then
                ``None`` and ``eta_initial`` unavailable).
            strategy: Registered search-strategy name or
                :class:`~repro.search.SearchStrategy` instance every
                method searches with (default ``multi_ga``; ``repro
                strategies`` lists what is registered).
            budget: Optional :class:`~repro.search.SearchBudget` capping
                each method's search.
            mitigation: Registered mitigation name, composed
                ``"zne:folds=3|readout"`` spec, or
                :class:`~repro.mitigation.MitigationStrategy` instance
                applied to every method's noisy evaluation tiers and VQE
                endpoint energies (default ``none``; ``repro mitigations``
                lists what is registered).
        """
        from ..methods import resolve_methods
        from ..mitigation import resolve_mitigation
        from ..search import resolve_strategy

        if config is None:
            from .config import bench_engine

            config = bench_engine()
        resolved = resolve_methods(methods)  # ValueError on unknown names
        if strategy is not None:
            strategy = resolve_strategy(strategy)  # KeyError did-you-mean
        mitigation = resolve_mitigation(mitigation)  # KeyError did-you-mean
        start = time.perf_counter()
        e0 = (self.e0 if self.e0 is not None
              else ground_state_energy(self.hamiltonian))
        runs: dict[str, MethodRun] = {}
        results: dict[str, InitializationResult] = {}
        for method in resolved:
            method_start = time.perf_counter()
            result = method.run(self.problem, config=config,
                                strategy=strategy, budget=budget,
                                mitigation=mitigation)
            results[method.name] = result
            evaluation = (evaluate_initial_point(result,
                                                 mitigation=mitigation)
                          if evaluate_tiers else None)
            trace = None
            if vqe_iterations > 0:
                trace = run_vqe(result, maxiter=vqe_iterations,
                                shots=vqe_shots, seed=seed,
                                mitigation=mitigation)
            search = result.search
            runs[method.name] = MethodRun(
                method=method.name,
                genome=result.genome,
                loss=result.loss,
                evaluation=evaluation,
                engine_rounds=search.num_rounds,
                engine_evaluations=search.num_evaluations,
                engine_seconds=search.total_seconds,
                seconds=time.perf_counter() - method_start,
                vqe=trace,
                strategy=search.strategy,
                mitigation=mitigation.name,
                search_trace=search.trace_dicts(),
                cache_stats=search.cache_stats,
            )
        return ExperimentResult(
            benchmark=self.name,
            e0=e0,
            e_mixed=self.hamiltonian.mixed_state_energy(),
            runs=runs,
            total_seconds=time.perf_counter() - start,
            results=results,
        )
