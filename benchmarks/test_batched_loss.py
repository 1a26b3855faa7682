"""Micro-benchmark: population-batched Clifford losses vs the per-genome loop.

The Figure-4 engine spends nearly all of its runtime evaluating GA
populations against the Clifford losses.  This bench times one population
evaluation -- the paper's working point, |S| = 100 genomes -- through the
batched ``evaluate_many`` seam against a loop of single-genome calls (each
a batch of one) for all three losses, asserts the batch wins by at least the 3x the
acceptance bar demands on Clapton's loss (the engine hot path), checks the
numbers are **bit-identical**, and records the measurement as a BENCH JSON
artifact so the perf trajectory has a baseline to compare against.

Reduced working point: ``CLAPTON_BENCH_PRESET=smoke`` shrinks the problem
(CI runs this).  The JSON lands at ``CLAPTON_BENCH_JSON`` (default
``benchmarks/bench_results/batched_loss.json``, gitignored); the committed
trajectory baseline is ``benchmarks/bench_results/baseline.json``.
"""

import json
import os
import time
from pathlib import Path

import numpy as np
from conftest import print_banner, run_once

from repro.core import CafqaLoss, ClaptonLoss, NcafqaLoss, VQEProblem
from repro.hamiltonians import ising_model
from repro.noise import NoiseModel

#: The paper's GA population size |S| (Figure 4); the smoke preset shrinks
#: the problem, not the batch semantics.
POPULATION = 100
SMOKE = os.environ.get("CLAPTON_BENCH_PRESET", "fast").lower() == "smoke"
NUM_QUBITS = 6 if SMOKE else 12
SPEEDUP_FLOOR = 3.0

#: Qubit-scaling axis of the packed losses (timings recorded only); the
#: fast preset crosses the 64-qubit word boundary.
SCALING_SIZES = [8, 16] if SMOKE else [8, 16, 32, 48, 64, 65, 100, 128]


def _setup():
    hamiltonian = ising_model(NUM_QUBITS, 1.0)
    noise = NoiseModel.uniform(NUM_QUBITS, depol_1q=1e-3, depol_2q=8e-3,
                               readout=2e-2, t1=80e-6)
    return VQEProblem.logical(hamiltonian, noise_model=noise)


def _time_paths(loss, genomes):
    loss.evaluate_many(genomes[:2])  # warm plans and LUT caches
    loss(genomes[0])
    start = time.perf_counter()
    serial = np.array([loss(g) for g in genomes])
    serial_seconds = time.perf_counter() - start
    start = time.perf_counter()
    batched = loss.evaluate_many(genomes)
    batched_seconds = time.perf_counter() - start
    return serial, serial_seconds, batched, batched_seconds


def _emit_bench_json(rows):
    payload = {
        "bench": "batched_loss",
        "preset": os.environ.get("CLAPTON_BENCH_PRESET", "fast"),
        "population": POPULATION,
        "num_qubits": NUM_QUBITS,
        "losses": {
            name: {
                "serial_seconds": round(serial_seconds, 6),
                "batched_seconds": round(batched_seconds, 6),
                "speedup": round(serial_seconds / batched_seconds, 2),
            }
            for name, serial_seconds, batched_seconds in rows
        },
    }
    path = Path(os.environ.get(
        "CLAPTON_BENCH_JSON",
        Path(__file__).parent / "bench_results" / "batched_loss.json"))
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"BENCH {json.dumps(payload)}")
    return path


def test_batched_population_beats_per_genome_loop(benchmark):
    problem = _setup()
    rng = np.random.default_rng(0)
    cases = [
        ("clapton", ClaptonLoss(problem),
         problem.num_transformation_parameters),
        ("cafqa", CafqaLoss(problem), problem.num_vqe_parameters),
        ("ncafqa", NcafqaLoss(problem), problem.num_vqe_parameters),
    ]

    def experiment():
        rows = []
        for name, loss, genome_length in cases:
            genomes = rng.integers(0, 4, size=(POPULATION, genome_length))
            rows.append((name,) + _time_paths(loss, genomes))
        return rows

    rows = run_once(benchmark, experiment)

    print_banner(f"Population-batched losses | |S| = {POPULATION} | "
                 f"{NUM_QUBITS}-qubit ising")
    print(f"{'loss':>8} {'per-genome[s]':>14} {'evaluate_many[s]':>17} "
          f"{'speedup':>8}")
    timing_rows = []
    for name, serial, serial_seconds, batched, batched_seconds in rows:
        print(f"{name:>8} {serial_seconds:>14.3f} {batched_seconds:>17.3f} "
              f"{serial_seconds / batched_seconds:>7.1f}x")
        timing_rows.append((name, serial_seconds, batched_seconds))
    _emit_bench_json(timing_rows)

    for name, serial, serial_seconds, batched, batched_seconds in rows:
        # the contract: batching moves no number at all
        np.testing.assert_array_equal(batched, serial, err_msg=name)
    speedups = {name: serial_seconds / batched_seconds
                for name, serial_seconds, batched_seconds in timing_rows}
    assert speedups["clapton"] >= SPEEDUP_FLOOR, (
        f"batched Clapton loss only {speedups['clapton']:.1f}x faster "
        f"(floor {SPEEDUP_FLOOR}x)")


def _scaling_setup(num_qubits):
    hamiltonian = ising_model(num_qubits, 1.0)
    noise = NoiseModel.uniform(num_qubits, depol_1q=1e-3, depol_2q=8e-3,
                               readout=2e-2, t1=80e-6)
    return VQEProblem.logical(hamiltonian, noise_model=noise)


def _best_of(fn, reps=3):
    best = float("inf")
    for _ in range(reps):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _emit_scaling_json(rows):
    # ``packed_seconds`` keeps the Clapton loss's key of older runs, so
    # they still compare against this one
    payload = {
        "bench": "packed_qubit_scaling",
        "preset": os.environ.get("CLAPTON_BENCH_PRESET", "fast"),
        "population": POPULATION,
        "loss": "clapton",
        "sizes": [
            {"num_qubits": n,
             "packed_seconds": round(seconds["clapton"], 6),
             "cafqa_seconds": round(seconds["cafqa"], 6),
             "ncafqa_seconds": round(seconds["ncafqa"], 6)}
            for n, seconds in rows
        ],
    }
    path = Path(os.environ.get(
        "CLAPTON_BENCH_SCALING_JSON",
        Path(__file__).parent / "bench_results" / "qubit_scaling.json"))
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"BENCH {json.dumps(payload)}")
    return path


def test_packed_qubit_scaling(benchmark):
    """The packed losses across the qubit-scaling axis.

    One full-population ``evaluate_many`` of each loss at the Figure-4
    working point (|S| = 100) per size, best of 3, recorded as a BENCH
    JSON.  There is no floor: the batched boolean layout it was once
    compared against is gone, and the values' bit-identity is pinned in
    tier-1 against the serial boolean oracle (``tests/pauli_oracle.py``).
    """

    def experiment():
        rows = []
        for n in SCALING_SIZES:
            problem = _scaling_setup(n)
            rng = np.random.default_rng(0)
            seconds = {}
            for name, loss, genome_length in (
                    ("clapton", ClaptonLoss(problem),
                     problem.num_transformation_parameters),
                    ("cafqa", CafqaLoss(problem), problem.num_vqe_parameters),
                    ("ncafqa", NcafqaLoss(problem),
                     problem.num_vqe_parameters)):
                genomes = rng.integers(0, 4,
                                       size=(POPULATION, genome_length))
                loss.evaluate_many(genomes)  # warm
                seconds[name] = _best_of(lambda: loss.evaluate_many(genomes))
            rows.append((n, seconds))
        return rows

    rows = run_once(benchmark, experiment)

    print_banner(f"Packed losses | |S| = {POPULATION} | "
                 f"ising, sizes {SCALING_SIZES}")
    print(f"{'N':>4} {'clapton[s]':>11} {'cafqa[s]':>9} {'ncafqa[s]':>10}")
    for n, seconds in rows:
        print(f"{n:>4} {seconds['clapton']:>11.3f} {seconds['cafqa']:>9.3f} "
              f"{seconds['ncafqa']:>10.3f}")
    _emit_scaling_json(rows)
