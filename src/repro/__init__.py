"""repro: a full reproduction of Clapton (ASPLOS 2024).

Clifford-Assisted Problem Transformation for Error Mitigation in Variational
Quantum Algorithms -- built from scratch on this package's own stabilizer
engine, density-matrix simulator, device models, transpiler, optimizers, and
quantum-chemistry pipeline.

Quickstart (the ``Experiment`` façade runs methods end to end)::

    from repro import Experiment, FakeToronto, xxz_model
    from repro.experiments import FAST_ENGINE

    result = Experiment(xxz_model(10, 0.5), backend=FakeToronto()) \\
        .run(methods=("cafqa", "clapton"), config=FAST_ENGINE)
    print(result.runs["clapton"].evaluation.device_model)
    print(result.eta_initial("cafqa"))

Energy estimation goes through one batched protocol::

    from repro import make_estimator

    estimator = make_estimator(problem, observable, mode="exact")
    batch = estimator.estimate_many(thetas)       # shares circuit setup
    print(batch.values)

and round-level parallelism everywhere is a one-argument switch::

    from repro import ProcessExecutor

    Experiment(...).run(config=..., executor=ProcessExecutor(8))
"""

from .paulis import PauliString, PauliSum, PauliTable
from .circuits import (
    Circuit,
    Parameter,
    clapton_transformation_circuit,
    hardware_efficient_ansatz,
)
from .stabilizer import CliffordTableau, StabilizerSimulator, clifford_state_expectation
from .densesim import DensityMatrixSimulator, noiseless_energy, noisy_energy, simulate_statevector
from .noise import CliffordNoiseModel, NoiseModel
from .backends import Backend, FakeHanoi, FakeLine, FakeMumbai, FakeNairobi, FakeToronto
from .transpiler import TranspileResult, transpile
from .execution import (
    BatchResult,
    CliffordEstimator,
    EstimateResult,
    Estimator,
    ExactEstimator,
    Executor,
    ProcessExecutor,
    SerialExecutor,
    ShotSamplingEstimator,
    ThreadExecutor,
    make_estimator,
    memoize_loss,
)
from .optim import EngineConfig, GAConfig, SPSAConfig, minimize_spsa, multi_ga_minimize
from .core import (
    InitializationResult,
    VQEProblem,
    cafqa,
    clapton,
    evaluate_initial_point,
    ncafqa,
    transform_hamiltonian,
)
from .methods import (
    DEFAULT_METHODS,
    InitializationMethod,
    get_method,
    method_names,
    register_method,
)
from .search import (
    SearchBudget,
    SearchResult,
    SearchStrategy,
    SearchTrace,
    get_strategy,
    register_strategy,
    strategy_names,
)
from .vqe import VQETrace, run_vqe
from .experiments import Experiment, ExperimentResult
from .campaigns import (
    CampaignAggregate,
    CampaignRunner,
    CampaignSpec,
    ResultStore,
    TaskSpec,
    render_report,
)
from .hamiltonians import (
    expand_benchmarks,
    get_benchmark,
    ground_state_energy,
    ising_model,
    paper_benchmarks,
    register_benchmark,
    register_suite,
    xxz_model,
)
from .metrics import geometric_mean, normalized_energy, relative_improvement

__version__ = "1.1.0"

__all__ = [
    "Backend", "BatchResult", "CampaignAggregate", "CampaignRunner",
    "CampaignSpec", "Circuit", "CliffordEstimator",
    "CliffordNoiseModel", "CliffordTableau", "DEFAULT_METHODS",
    "DensityMatrixSimulator",
    "EngineConfig", "EstimateResult", "Estimator",
    "ExactEstimator", "Executor", "Experiment", "ExperimentResult",
    "FakeHanoi", "FakeLine", "FakeMumbai", "FakeNairobi", "FakeToronto",
    "GAConfig", "InitializationMethod", "InitializationResult",
    "NoiseModel", "Parameter",
    "PauliString", "PauliSum", "PauliTable", "ProcessExecutor",
    "ResultStore", "SPSAConfig", "SearchBudget", "SearchResult",
    "SearchStrategy", "SearchTrace", "SerialExecutor",
    "ShotSamplingEstimator", "StabilizerSimulator", "TaskSpec",
    "ThreadExecutor", "TranspileResult",
    "VQEProblem", "VQETrace", "cafqa", "clapton",
    "clapton_transformation_circuit", "clifford_state_expectation",
    "evaluate_initial_point", "expand_benchmarks", "geometric_mean",
    "get_benchmark", "get_method", "get_strategy", "ground_state_energy",
    "hardware_efficient_ansatz", "ising_model", "make_estimator",
    "memoize_loss", "method_names", "minimize_spsa", "multi_ga_minimize",
    "ncafqa", "noiseless_energy", "noisy_energy", "normalized_energy",
    "paper_benchmarks", "register_benchmark", "register_method",
    "register_strategy", "register_suite", "relative_improvement",
    "render_report", "run_vqe", "simulate_statevector", "strategy_names",
    "transform_hamiltonian", "transpile", "xxz_model",
]
