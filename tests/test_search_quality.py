"""Multi-seed search-quality gate for the Figure-4 engine.

A change that moves GA trajectories (breeding draws, the round schedule)
is judged here against the committed baseline
``benchmarks/bench_results/search_quality_baseline.json``, over many
seeds rather than one:

* **reach** -- ``multi_ga`` on CAFQA's noiseless cost of 6-qubit Ising at
  the ``fast`` engine preset, seeds 0-19, stopped at the target of
  ``benchmarks/test_search_strategies.py`` (the converged engine's -6.0
  plus 2% of the E0 -> mixed-state span).  Recorded: how many seeds reach
  it, and the median distinct evaluations-to-target (a seed that does
  not reach counts as infinitely many).
* **best loss** -- the mean best loss over seeds 0-11 of clapton, cafqa
  and ncafqa at perfbench's ``fig4-ising12`` shape: 12-qubit Ising with
  uniform noise, ``s = 2``, ``m = 10``, two fixed rounds, ``|S| = 100``.

The bound rule, one for every measurement:

* the reach count may drop by at most one seed;
* the median evaluations-to-target may rise by at most 1.5x;
* a method's mean best loss may rise by at most two standard errors of
  the baseline's per-seed spread (``std / sqrt(seeds)``).

The self-check runs the reach half with a GA that cannot mutate
(``mutation_rate = 0``) and requires the rule to reject it, so a gate
that passes everything fails here.

Re-record the baseline only for a change meant to move search quality::

    PYTHONPATH=src python tests/test_search_quality.py --record
"""

import json
import math
import statistics
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from repro.core import CafqaLoss, VQEProblem
from repro.experiments.config import FAST_ENGINE
from repro.hamiltonians import ground_state_energy, ising_model
from repro.methods import get_method
from repro.noise import NoiseModel
from repro.optim import EngineConfig, GAConfig
from repro.search import SearchBudget, get_strategy

BASELINE = (Path(__file__).resolve().parents[1] / "benchmarks"
            / "bench_results" / "search_quality_baseline.json")

REACH_QUBITS = 6
REACH_SEEDS = range(20)
#: The converged engine's loss on the reach problem (the reference of
#: benchmarks/test_search_strategies.py, bench_results/search_baseline.json).
REACH_REFERENCE = -6.0
#: Slack around the reference, as a fraction of the E0 -> mixed span.
SLACK_FRACTION = 0.02

LOSS_QUBITS = 12
LOSS_SEEDS = range(12)
LOSS_METHODS = ("clapton", "cafqa", "ncafqa")

MAX_REACH_DROP = 1
MAX_MEDIAN_RATIO = 1.5
MAX_MEAN_RISE_SE = 2.0


def measure_reach(ga: GAConfig | None = None) -> dict:
    """Evaluations-to-target of ``multi_ga`` per seed (None: not reached)."""
    hamiltonian = ising_model(REACH_QUBITS, 1.0)
    problem = VQEProblem.logical(hamiltonian)
    span = hamiltonian.mixed_state_energy() - ground_state_energy(hamiltonian)
    target = REACH_REFERENCE + SLACK_FRACTION * span
    config = FAST_ENGINE if ga is None else replace(FAST_ENGINE, ga=ga)
    budget = replace(SearchBudget.from_engine(config), target_loss=target)
    evaluations = []
    for seed in REACH_SEEDS:
        result = get_strategy("multi_ga").minimize(
            CafqaLoss(problem),
            problem.num_vqe_parameters, budget=budget,
            config=replace(config, seed=seed))
        reached = result.best_loss <= target + 1e-12
        evaluations.append(result.num_evaluations if reached else None)
    reached = [e for e in evaluations if e is not None]
    ranked = sorted(reached) + [math.inf] * (len(evaluations) - len(reached))
    return {"target": target, "evaluations": evaluations,
            "reached": len(reached), "median": statistics.median(ranked)}


def measure_best_loss() -> dict:
    """Per-method best losses over the seeds at the fig4-ising12 shape."""
    problem = VQEProblem.logical(ising_model(LOSS_QUBITS, 1.0),
                                 NoiseModel.uniform(LOSS_QUBITS))
    out = {}
    for name in LOSS_METHODS:
        method = get_method(name)
        losses = [float(method.search(problem, config=EngineConfig(
            num_instances=2, generations_per_round=10, population_size=100,
            max_rounds=2, retry_rounds=2, seed=seed)).best_loss)
            for seed in LOSS_SEEDS]
        out[name] = {"losses": losses, "mean": float(np.mean(losses)),
                     "std": float(np.std(losses, ddof=1))}
    return out


def reach_failures(measured: dict, baseline: dict) -> list[str]:
    failures = []
    if measured["reached"] < baseline["reached"] - MAX_REACH_DROP:
        failures.append(f"reach {measured['reached']}/{len(REACH_SEEDS)} "
                        f"< baseline {baseline['reached']} - "
                        f"{MAX_REACH_DROP}")
    if measured["median"] > MAX_MEDIAN_RATIO * baseline["median"]:
        failures.append(f"median evaluations-to-target "
                        f"{measured['median']} > {MAX_MEDIAN_RATIO} x "
                        f"baseline {baseline['median']}")
    return failures


def best_loss_failures(measured: dict, baseline: dict) -> list[str]:
    failures = []
    for name, base in baseline.items():
        bound = (base["mean"] + MAX_MEAN_RISE_SE * base["std"]
                 / math.sqrt(len(base["losses"])))
        if measured[name]["mean"] > bound:
            failures.append(f"{name} mean best loss "
                            f"{measured[name]['mean']:.4f} > "
                            f"{bound:.4f} (baseline {base['mean']:.4f} "
                            f"+ {MAX_MEAN_RISE_SE} standard errors)")
    return failures


def load_baseline() -> dict:
    return json.loads(BASELINE.read_text())


def test_reach_holds_baseline():
    measured = measure_reach()
    assert reach_failures(measured, load_baseline()["reach"]) == []


def test_best_loss_holds_baseline():
    measured = measure_best_loss()
    assert best_loss_failures(measured, load_baseline()["best_loss"]) == []


def test_gate_rejects_a_ga_that_cannot_mutate():
    measured = measure_reach(GAConfig(mutation_rate=0.0))
    assert reach_failures(measured, load_baseline()["reach"])


def _record() -> None:
    payload = {
        "rule": (f"reach may drop by at most {MAX_REACH_DROP} seed; the "
                 f"median evaluations-to-target may rise by at most "
                 f"{MAX_MEDIAN_RATIO}x; a mean best loss may rise by at "
                 f"most {MAX_MEAN_RISE_SE} standard errors"),
        "reach": measure_reach(),
        "best_loss": measure_best_loss(),
    }
    BASELINE.write_text(json.dumps(payload, indent=2) + "\n")
    print(json.dumps(payload, indent=2))


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit(f"usage: {sys.argv[0]} --record")
    _record()
