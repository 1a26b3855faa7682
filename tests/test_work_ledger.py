"""The work ledger: exact work counts of small seeded searches, as a golden.

Timing bounds (perfbench) are 20-25% wide, so a change that doubles the
kernel passes of one layer can hide inside them.  Work counts cannot: for
a fixed seed and numpy version they do not depend on the machine.  One
small search per method (clapton / cafqa / ncafqa), strategy (GA, tabu)
and problem (logical 6-qubit Ising, the same Ising transpiled onto
FakeNairobi) is run, and its evaluations, memo accounting and packed-
kernel counter advance must equal ``work_ledger.json`` exactly.

What a search costs depends on the process's lookup-table caches: a LUT
build conjugates through the table kernel and so advances the row and
word counters too.  Each search therefore runs twice and the second,
fully cached run is measured; the LUT cache counters themselves
(``lut_hits`` / ``lut_misses``) are left out.

A change that alters the work re-records the golden on purpose::

    PYTHONPATH=src python tests/test_work_ledger.py --record

and quotes the delta in its change notes.
"""

from __future__ import annotations

import json
import pathlib
import sys

import pytest

GOLDEN_PATH = pathlib.Path(__file__).with_name("work_ledger.json")

METHODS = ("clapton", "cafqa", "ncafqa")
STRATEGIES = ("multi_ga", "tabu")
PROBLEMS = ("logical6", "nairobi6")
KERNEL_FIELDS = ("rows", "words", "fused_passes")
SEED = 3


def build_problem(name: str):
    from repro.backends import FakeNairobi
    from repro.core import VQEProblem
    from repro.hamiltonians import ising_model
    from repro.noise import NoiseModel

    hamiltonian = ising_model(6, 1.0)
    if name == "nairobi6":
        return VQEProblem.from_backend(hamiltonian, FakeNairobi())
    return VQEProblem.logical(hamiltonian, NoiseModel.uniform(6))


def search_args(strategy: str) -> dict:
    from repro.execution import SerialExecutor
    from repro.optim import EngineConfig
    from repro.search import SearchBudget

    config = EngineConfig(num_instances=1, generations_per_round=3,
                          population_size=12, max_rounds=1, retry_rounds=1,
                          seed=SEED)
    args = {"config": config, "executor": SerialExecutor(),
            "strategy": strategy}
    if strategy == "tabu":
        args["budget"] = SearchBudget(max_rounds=3)
    return args


def ledger_entry(problem, method: str, strategy: str) -> dict:
    """The exact work one seeded search does, with warm LUT caches."""
    from repro.methods import get_method
    from repro.obs.kernel import KERNEL

    search = get_method(method).search
    search(problem, **search_args(strategy))
    before = KERNEL.snapshot()
    result = search(problem, **search_args(strategy))
    delta = KERNEL.delta(before)
    entry = {"evaluations": int(result.num_evaluations)}
    for key in ("hits", "misses", "dedups"):
        entry[f"memo_{key}"] = int(result.cache_stats[key])
    for key in KERNEL_FIELDS:
        entry[f"kernel_{key}"] = int(delta[key])
    return entry


def ledger() -> dict:
    out = {}
    for problem_name in PROBLEMS:
        problem = build_problem(problem_name)
        for strategy in STRATEGIES:
            for method in METHODS:
                out[f"{problem_name}/{strategy}/{method}"] = ledger_entry(
                    problem, method, strategy)
    return out


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


@pytest.mark.parametrize("problem_name", PROBLEMS)
def test_work_matches_golden(problem_name, golden):
    problem = build_problem(problem_name)
    for strategy in STRATEGIES:
        for method in METHODS:
            key = f"{problem_name}/{strategy}/{method}"
            assert ledger_entry(problem, method, strategy) == golden[key], key


def test_golden_covers_every_cell(golden):
    assert sorted(golden) == sorted(
        f"{p}/{s}/{m}" for p in PROBLEMS for s in STRATEGIES for m in METHODS)


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: python tests/test_work_ledger.py --record")
    GOLDEN_PATH.write_text(json.dumps(ledger(), indent=1, sort_keys=True)
                           + "\n")
    print(f"wrote {GOLDEN_PATH}")
