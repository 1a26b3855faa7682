"""Search-strategy shoot-out: evaluations-to-target at the Figure-4 point.

Runs every built-in search strategy on the same noiseless Clifford loss
(CAFQA's cost: the noiseless stabilizer energy) and records how many
*distinct* loss evaluations each needs to match the reference searcher --
the converged Figure-4 engine -- to within a small slack (2% of the
E0 -> mixed-state span; the exact ground state is not a stabilizer state,
so a target relative to E0 would be unreachable for *every* Clifford
search).  All strategies share one evaluation envelope, the engine
preset's own ceiling.  The committed trajectory baseline is
``benchmarks/bench_results/search_baseline.json``; per-run JSON lands at
``CLAPTON_BENCH_JSON`` (default
``benchmarks/bench_results/search_strategies.json``).

Engine preset: ``CLAPTON_BENCH_PRESET`` (``smoke`` shrinks the problem
for CI; ``paper`` runs the full Figure-4 working point).
"""

import json
import os
import time
from pathlib import Path

import numpy as np
from conftest import print_banner

from repro.core import CafqaLoss, VQEProblem
from repro.experiments import bench_engine
from repro.hamiltonians import ground_state_energy, ising_model
from repro.search import SearchBudget, get_strategy, strategy_names

SMOKE = os.environ.get("CLAPTON_BENCH_PRESET", "fast").lower() == "smoke"
NUM_QUBITS = 4 if SMOKE else 6
#: Slack around the reference loss, as a fraction of the E0 -> e_mixed
#: span.
SLACK_FRACTION = 0.02


def _setup():
    hamiltonian = ising_model(NUM_QUBITS, 1.0)
    problem = VQEProblem.logical(hamiltonian)
    e0 = ground_state_energy(hamiltonian)
    e_mixed = hamiltonian.mixed_state_energy()
    return problem, e0, e_mixed


def _emit_bench_json(rows, e0, reference, target):
    payload = {
        "bench": "search_strategies",
        "preset": os.environ.get("CLAPTON_BENCH_PRESET", "fast"),
        "num_qubits": NUM_QUBITS,
        "e0": round(e0, 6),
        "reference_loss": round(reference, 6),
        "target_loss": round(target, 6),
        "strategies": {
            name: {
                "evaluations": evaluations,
                "reached_target": reached,
                "best_loss": round(best, 6),
                "rounds": rounds,
                "stopped_by": stopped_by,
                "seconds": round(seconds, 4),
            }
            for name, evaluations, reached, best, rounds, stopped_by,
            seconds in rows
        },
    }
    path = Path(os.environ.get(
        "CLAPTON_BENCH_JSON",
        Path(__file__).parent / "bench_results" / "search_strategies.json"))
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"BENCH {json.dumps(payload)}")
    return path


def test_evaluations_to_target():
    from dataclasses import replace

    problem, e0, e_mixed = _setup()
    config = bench_engine()
    envelope = SearchBudget.from_engine(config)
    # reference: the converged Figure-4 engine defines "the answer"
    reference = get_strategy("multi_ga").minimize(
        CafqaLoss(problem),
        problem.num_vqe_parameters, budget=envelope, config=config)
    target = reference.best_loss + SLACK_FRACTION * (e_mixed - e0)
    budget = replace(envelope, target_loss=target)
    print_banner(
        f"Search strategies: evaluations to reach {target:.4f} "
        f"(engine reference {reference.best_loss:.4f} in "
        f"{reference.num_evaluations} evaluations; E0 = {e0:.4f}, "
        f"{NUM_QUBITS}q ising)")
    rows = []
    for name in strategy_names():
        loss = CafqaLoss(problem)
        start = time.perf_counter()
        result = get_strategy(name).minimize(
            loss, problem.num_vqe_parameters, budget=budget, config=config)
        seconds = time.perf_counter() - start
        reached = bool(result.best_loss <= target + 1e-12)
        rows.append((name, int(result.num_evaluations), reached,
                     float(result.best_loss), result.num_rounds,
                     result.stopped_by, seconds))
        print(f"{name:>14}: {result.num_evaluations:>6} evaluations, "
              f"best {result.best_loss:+.4f} "
              f"({'target reached' if reached else result.stopped_by}), "
              f"{seconds:.2f}s")
        # contract half: the budget envelope is never exceeded
        assert result.num_evaluations <= budget.max_evaluations
        assert np.isfinite(result.best_loss)
    _emit_bench_json(rows, e0, reference.best_loss, target)
    # the reference searcher must reproduce its own answer
    multi_ga = next(r for r in rows if r[0] == "multi_ga")
    assert multi_ga[2], "multi_ga failed to re-reach its reference loss"
