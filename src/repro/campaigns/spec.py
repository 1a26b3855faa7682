"""Declarative campaign specs: a sweep grid and its expansion into tasks.

A :class:`CampaignSpec` describes one of the paper's figure grids --
benchmarks x qubit sizes x evaluation settings (device backends and/or
uniform-noise scale factors) x initialization methods x seeds -- plus the
engine/VQE configuration every cell shares.  ``CampaignSpec.tasks()``
expands the grid *deterministically* (nested loops in declared order) into
:class:`TaskSpec` work units, one method per unit, each carrying a stable
content-hash ``task_id``: the same spec always expands to the same ids, so
a restarted campaign can skip exactly the cells a previous run completed.

Both classes are plain-JSON round-trippable (``to_dict``/``from_dict``,
``save``/``load``), which is what lets a :class:`~repro.campaigns.runner.
CampaignRunner` ship tasks to process-pool workers and a
:class:`~repro.campaigns.store.ResultStore` persist them next to results.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
from dataclasses import asdict, dataclass, field, replace
from functools import cached_property
from pathlib import Path

from ..hamiltonians.registry import expand_benchmarks
from ..methods import DEFAULT_METHODS, resolve_methods
from ..mitigation import DEFAULT_MITIGATION, resolve_mitigation
from ..optim.engine import EngineConfig
from ..optim.genetic import GAConfig
from ..search import DEFAULT_STRATEGY, get_strategy

#: When True (see :func:`lenient_methods`), specs naming unregistered
#: methods or strategies construct instead of raising -- required so
#: ``repro status`` / ``repro report`` can open a store whose campaign
#: used a method/strategy that was registered in the producing process
#: but not in this one.
_LENIENT_METHODS = False


@contextlib.contextmanager
def lenient_methods():
    """Temporarily allow specs to name unregistered methods (store
    reads; never used on the declaration/run path)."""
    global _LENIENT_METHODS
    previous = _LENIENT_METHODS
    _LENIENT_METHODS = True
    try:
        yield
    finally:
        _LENIENT_METHODS = previous

#: Uniform-noise parameters at scale 1.0 (the Fig. 7/8 working point).
DEFAULT_BASE_NOISE = {
    "depol_1q": 1e-3,
    "depol_2q": 1e-2,
    "readout": 2e-2,
    "t1": 100e-6,
}

#: Engine presets addressable from a spec file.
ENGINE_PRESETS = ("paper", "fast", "smoke")


# ----------------------------------------------------------------------
# EngineConfig <-> dict
# ----------------------------------------------------------------------
def engine_to_dict(config: EngineConfig) -> dict:
    """JSON form of an :class:`EngineConfig` (nested ``ga`` included)."""
    return asdict(config)


def engine_from_dict(data: dict) -> EngineConfig:
    ga = GAConfig(**data.get("ga", {}))
    fields = {k: v for k, v in data.items() if k != "ga"}
    return EngineConfig(ga=ga, **fields)


def _preset_engine(name: str) -> EngineConfig:
    from ..experiments.config import FAST_ENGINE, PAPER_ENGINE, SMOKE_ENGINE

    presets = {"paper": PAPER_ENGINE, "fast": FAST_ENGINE,
               "smoke": SMOKE_ENGINE}
    if name not in presets:
        raise ValueError(f"unknown engine preset {name!r}; "
                         f"expected one of {ENGINE_PRESETS}")
    return presets[name]


# ----------------------------------------------------------------------
# Settings: one evaluation environment of the grid
# ----------------------------------------------------------------------
def setting_label(setting: dict) -> str:
    """Short human label for one setting (report axes, CSV columns)."""
    kind = setting["kind"]
    if kind == "backend":
        return setting["backend"]
    if kind == "noise":
        return f"noise_x{setting['scale']:g}"
    if kind == "noise_model":
        digest = hashlib.sha256(
            _canonical(setting["model"]).encode()).hexdigest()[:8]
        return f"noise_model_{digest}"
    if kind == "noiseless":
        return "noiseless"
    raise ValueError(f"unknown setting kind {kind!r}")


def _scaled_noise(setting: dict, num_qubits: int):
    """Uniform noise model at a scale factor: error rates scale up,
    coherence times scale down."""
    from ..noise.model import NoiseModel

    base = dict(DEFAULT_BASE_NOISE, **setting.get("base", {}))
    scale = float(setting["scale"])
    t1 = base.get("t1")
    return NoiseModel.uniform(
        num_qubits,
        depol_1q=min(1.0, base["depol_1q"] * scale),
        depol_2q=min(1.0, base["depol_2q"] * scale),
        readout=min(0.5, base["readout"] * scale),
        t1=(None if t1 is None or scale == 0 else t1 / scale),
    )


# ----------------------------------------------------------------------
# TaskSpec
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class TaskSpec:
    """One campaign work unit: one method on one problem cell.

    Attributes:
        benchmark: Registry name or parameterized spec
            (``repro.hamiltonians.get_benchmark``), or a free label when
            ``hamiltonian`` is given explicitly.
        num_qubits: Physics-model width (chemistry and parameterized
            benchmarks ignore it).
        method: Any registered method name (``repro methods``).
        strategy: Any registered search-strategy name
            (``repro strategies``); the default is the Figure-4 engine.
        mitigation: Mitigation name or composed ``"zne:folds=3|readout"``
            spec (``repro mitigations``) applied to the task's noisy
            evaluation tiers; the default ``"none"`` leaves estimates
            raw (and the payload shape unchanged).
        seed: Cell seed; folded into the engine seed and the VQE seed by
            :meth:`CampaignSpec.tasks` (explicitly constructed tasks may
            decouple them via ``engine["seed"]``).
        setting: Evaluation environment, one of
            ``{"kind": "backend", "backend": name}``,
            ``{"kind": "noise", "scale": s, "base": {...}}``,
            ``{"kind": "noise_model", "model": NoiseModel.to_dict()}``,
            ``{"kind": "noiseless"}``.
        engine: ``EngineConfig`` payload (:func:`engine_to_dict`).
        vqe_iterations / vqe_shots: Online-phase budget (0 skips VQE).
        entanglement: Ansatz entanglement pattern.
        hamiltonian: Optional explicit PauliSum payload
            (:func:`~repro.paulis.serialization.pauli_sum_to_dict`);
            overrides the registry lookup.
        e0: Optional precomputed exact ground energy (skips the per-task
            eigensolve when many settings share one Hamiltonian).
    """

    benchmark: str
    num_qubits: int
    method: str
    seed: int
    setting: dict
    engine: dict
    strategy: str = DEFAULT_STRATEGY
    mitigation: str = DEFAULT_MITIGATION
    vqe_iterations: int = 0
    vqe_shots: int | None = None
    entanglement: str = "circular"
    hamiltonian: dict | None = None
    e0: float | None = None

    # -- identity ------------------------------------------------------
    @cached_property
    def task_id(self) -> str:
        """Stable content hash: identical payloads -> identical ids.

        Cached (the hash covers an immutable payload that may embed a
        full Hamiltonian); ``cached_property`` writes through
        ``__dict__``, which frozen dataclasses permit.
        """
        digest = hashlib.sha256(_canonical(self.to_dict()).encode())
        return f"t{digest.hexdigest()[:16]}"

    @property
    def label(self) -> str:
        # the strategy/mitigation segments appear only off the default,
        # so labels (and everything keyed on them) are unchanged for
        # plain GA campaigns
        strategy = ("" if self.strategy == DEFAULT_STRATEGY
                    else f"/{self.strategy}")
        mitigation = ("" if self.mitigation == DEFAULT_MITIGATION
                      else f"/{self.mitigation}")
        return (f"{self.benchmark}/{self.num_qubits}q/"
                f"{setting_label(self.setting)}/{self.method}"
                f"{strategy}{mitigation}/s{self.seed}")

    # -- JSON ----------------------------------------------------------
    def to_dict(self) -> dict:
        out = asdict(self)
        if out["strategy"] == DEFAULT_STRATEGY:
            # default-strategy payloads keep the pre-axis shape, so
            # their content-hash task ids (and hence resume/status
            # against stores recorded before the axis existed) are
            # byte-identical; from_dict restores the default
            del out["strategy"]
        if out["mitigation"] == DEFAULT_MITIGATION:
            # same contract for the mitigation axis
            del out["mitigation"]
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "TaskSpec":
        return cls(**data)

    # -- execution -----------------------------------------------------
    def build_experiment(self):
        """Materialize the :class:`~repro.experiments.Experiment`."""
        from ..backends.fake import ALL_BACKENDS
        from ..experiments.experiment import Experiment
        from ..hamiltonians.registry import get_benchmark
        from ..noise.model import NoiseModel
        from ..paulis.serialization import pauli_sum_from_dict

        if self.hamiltonian is not None:
            h = pauli_sum_from_dict(self.hamiltonian)
        else:
            h = get_benchmark(self.benchmark, self.num_qubits).hamiltonian()
        kind = self.setting["kind"]
        if kind == "backend":
            name = self.setting["backend"]
            if name not in ALL_BACKENDS:
                raise ValueError(f"unknown backend {name!r}; "
                                 f"known: {sorted(ALL_BACKENDS)}")
            return Experiment(h, backend=ALL_BACKENDS[name](),
                              entanglement=self.entanglement,
                              name=self.benchmark, e0=self.e0)
        if kind == "noise":
            noise = _scaled_noise(self.setting, h.num_qubits)
        elif kind == "noise_model":
            noise = NoiseModel.from_dict(self.setting["model"])
        elif kind == "noiseless":
            noise = None
        else:
            raise ValueError(f"unknown setting kind {kind!r}")
        return Experiment(h, noise_model=noise,
                          entanglement=self.entanglement,
                          name=self.benchmark, e0=self.e0)

    def run(self) -> dict:
        """Execute this task and return the ExperimentResult payload.

        The engine runs *serially inside* the task -- campaign-level
        sharding is the parallel axis -- so a sharded campaign produces
        bit-identical numbers to a serial one.
        """
        experiment = self.build_experiment()
        result = experiment.run(
            methods=(self.method,),
            config=engine_from_dict(self.engine),
            vqe_iterations=self.vqe_iterations,
            vqe_shots=self.vqe_shots,
            seed=self.seed,
            strategy=self.strategy,
            mitigation=self.mitigation,
        )
        return result.to_dict()


# ----------------------------------------------------------------------
# CampaignSpec
# ----------------------------------------------------------------------
@dataclass
class CampaignSpec:
    """A declarative sweep grid plus shared run configuration.

    The grid axes expand in declared order (benchmarks, then qubit sizes,
    then settings -- backends before noise scales -- then methods, then
    search strategies, then mitigations, then seeds), so ``tasks()`` is a
    pure function of the spec.

    Attributes:
        name: Campaign label (store headers, reports).
        benchmarks: Registry names, parameterized ``family:key=value``
            specs, and/or ``suite:<name>`` entries (``repro benchmarks``);
            suites expand in place, in declared order.
        qubit_sizes: Physics-model widths (chemistry is always 10q).
        backends: Named device backends (``toronto``, ``nairobi``, ...).
        noise_scales: Uniform-noise scale factors applied to
            ``base_noise`` (errors multiplied, T1 divided).
        base_noise: Scale-1.0 uniform noise parameters; merged over
            :data:`DEFAULT_BASE_NOISE`.
        methods: Registered method names (``repro methods``); defaults to
            the built-in trio.
        strategies: Registered search-strategy names
            (``repro strategies``); defaults to the Figure-4
            ``multi_ga`` engine alone, so pre-axis specs expand to the
            same grid.
        mitigations: Mitigation names and/or composed
            ``"zne:folds=3|readout"`` specs (``repro mitigations``);
            defaults to ``["none"]`` alone, so pre-axis specs expand to
            the same grid with unchanged task ids.
        seeds: Cell seeds; each becomes the engine *and* VQE seed.
        engine_preset / engine_overrides: Base :class:`EngineConfig`
            preset name plus field overrides (e.g. ``{"num_instances":
            2}``).
        vqe_iterations / vqe_shots: Online-phase budget per task.
        entanglement: Ansatz entanglement pattern.
    """

    name: str
    benchmarks: list[str]
    qubit_sizes: list[int] = field(default_factory=lambda: [10])
    backends: list[str] = field(default_factory=list)
    noise_scales: list[float] = field(default_factory=list)
    base_noise: dict = field(default_factory=dict)
    methods: list[str] = field(default_factory=lambda: list(DEFAULT_METHODS))
    strategies: list[str] = field(
        default_factory=lambda: [DEFAULT_STRATEGY])
    mitigations: list[str] = field(
        default_factory=lambda: [DEFAULT_MITIGATION])
    seeds: list[int] = field(default_factory=lambda: [0])
    engine_preset: str = "fast"
    engine_overrides: dict = field(default_factory=dict)
    vqe_iterations: int = 0
    vqe_shots: int | None = None
    entanglement: str = "circular"

    def __post_init__(self):
        if not _LENIENT_METHODS:
            # same did-you-mean ValueError contract as Experiment.run
            resolve_methods(self.methods)
            if not self.strategies:
                raise ValueError("strategies must name at least one "
                                 "registered search strategy")
            for name in self.strategies:
                try:
                    get_strategy(name)
                except KeyError as exc:  # did-you-mean, at declaration
                    raise ValueError(str(exc.args[0])) from None
            if not self.mitigations:
                raise ValueError("mitigations must name at least one "
                                 "registered mitigation strategy")
            for name in self.mitigations:
                try:
                    resolve_mitigation(name)
                except KeyError as exc:  # did-you-mean, at declaration
                    raise ValueError(str(exc.args[0])) from None
            try:
                self.expanded_benchmarks()
            except KeyError as exc:  # unknown suite: fail at declaration
                raise ValueError(str(exc.args[0])) from None
        for axis, values in (
                ("benchmarks", self.expanded_benchmarks(lenient=True)),
                *((a, getattr(self, a)) for a in
                  ("qubit_sizes", "backends", "noise_scales", "methods",
                   "strategies", "mitigations", "seeds"))):
            if len(set(values)) != len(values):
                # duplicates would expand to colliding task ids, leaving
                # phantom forever-pending tasks in every status count
                raise ValueError(f"duplicate values in {axis}: {values}")
        if "num_processes" in self.engine_overrides:
            raise ValueError(
                "engine_overrides cannot set num_processes: campaigns "
                "parallelize by sharding tasks (`repro sweep --jobs N`)")
        bad_noise = set(self.base_noise) - set(DEFAULT_BASE_NOISE)
        if bad_noise:
            # a typo'd key would silently run the default noise point
            raise ValueError(
                f"unknown base_noise keys {sorted(bad_noise)}; "
                f"expected a subset of {sorted(DEFAULT_BASE_NOISE)}")
        if self.backends:
            from ..backends.fake import ALL_BACKENDS

            bad = [b for b in self.backends if b not in ALL_BACKENDS]
            if bad:
                raise ValueError(f"unknown backends {bad}; "
                                 f"known: {sorted(ALL_BACKENDS)}")
        _preset_engine(self.engine_preset)  # an unknown preset names itself
        try:
            self.engine_config().validate()  # override keys and values
        except (TypeError, ValueError) as exc:
            raise ValueError(
                f"bad engine_overrides {self.engine_overrides}: "
                f"{exc}") from None

    # -- grid ----------------------------------------------------------
    def expanded_benchmarks(self, lenient: bool = False) -> list[str]:
        """The benchmark axis with ``suite:*`` entries expanded in place.

        ``lenient=True`` (store-read paths) passes unknown suites through
        unexpanded instead of raising.
        """
        return expand_benchmarks(self.benchmarks, lenient=lenient)

    def unresolved_suites(self) -> list[str]:
        """``suite:*`` entries this process cannot expand (not registered
        here); non-empty means grid-derived counts are lower bounds."""
        return [b for b in self.expanded_benchmarks(lenient=True)
                if b.startswith("suite:")]

    def settings(self) -> list[dict]:
        """The evaluation-environment axis, in expansion order."""
        out: list[dict] = [{"kind": "backend", "backend": b}
                           for b in self.backends]
        for scale in self.noise_scales:
            setting = {"kind": "noise", "scale": float(scale)}
            if self.base_noise:
                setting["base"] = dict(self.base_noise)
            out.append(setting)
        if not out:
            out.append({"kind": "noiseless"})
        return out

    def engine_config(self, seed: int | None = None) -> EngineConfig:
        """Preset + overrides, optionally reseeded."""
        config = replace(_preset_engine(self.engine_preset),
                         **self.engine_overrides)
        if seed is not None:
            config = replace(config, seed=seed)
        return config

    def tasks(self) -> list[TaskSpec]:
        """Deterministic grid expansion into ordered work units."""
        out: list[TaskSpec] = []
        settings = self.settings()
        for benchmark in self.expanded_benchmarks():
            for num_qubits in self.qubit_sizes:
                for setting in settings:
                    for method in self.methods:
                        for strategy in self.strategies:
                            for mitigation in self.mitigations:
                                for seed in self.seeds:
                                    out.append(TaskSpec(
                                        benchmark=benchmark,
                                        num_qubits=num_qubits,
                                        method=method,
                                        strategy=strategy,
                                        mitigation=mitigation,
                                        seed=seed,
                                        setting=setting,
                                        engine=engine_to_dict(
                                            self.engine_config(seed)),
                                        vqe_iterations=self.vqe_iterations,
                                        vqe_shots=self.vqe_shots,
                                        entanglement=self.entanglement,
                                    ))
        return out

    @property
    def num_tasks(self) -> int:
        # lenient: store reads (counts/status) must survive suites this
        # process never registered; tasks() stays strict for the run path
        return (len(self.expanded_benchmarks(lenient=True))
                * len(self.qubit_sizes)
                * len(self.settings()) * len(self.methods)
                * len(self.strategies) * len(self.mitigations)
                * len(self.seeds))

    # -- JSON ----------------------------------------------------------
    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "CampaignSpec":
        return cls(**data)

    def save(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.to_dict(), indent=2) + "\n")

    @classmethod
    def load(cls, path: str | Path) -> "CampaignSpec":
        return cls.from_dict(json.loads(Path(path).read_text()))


def _canonical(payload: dict) -> str:
    """Canonical JSON for hashing: sorted keys, no whitespace drift."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))
