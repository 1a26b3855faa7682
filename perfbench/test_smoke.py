"""Smoke test of the benchmark at tiny problem sizes.

Run from the repository root::

    python -m pytest perfbench/test_smoke.py -q
"""

import json
import os
import subprocess
import sys

import pytest

import run
from repro.methods.builtin import CafqaMethod

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

with open(os.path.join(ROOT, "BENCHMARK.json")) as _spec_file:
    SPEC = json.load(_spec_file)


def run_benchmark(workload: str, trace: int) -> dict:
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0.2", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_printed_with_its_unit(workload, trace):
    result = run_benchmark(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 3
    expected = {m["name"]: m["unit"]
                for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} \
        == expected


class _OffByOne:
    """A loss whose batched path drifts from its single-genome path."""

    def __init__(self, loss):
        self.loss = loss

    def __call__(self, genome):
        return self.loss(genome)

    def evaluate_many(self, genomes):
        return self.loss.evaluate_many(genomes) + 1e-9


class _CorruptedCafqa(CafqaMethod):
    def make_loss(self, problem):
        return _OffByOne(super().make_loss(problem))


def test_corrupted_loss_counts_as_failed_search():
    workload = run.SMOKE["fig4-ising12"]
    problem, methods, _ = run.set_up(workload, seed=5)
    methods["cafqa"] = _CorruptedCafqa()
    records = run.Runner(workload, problem, methods, seed=5).measure(0.0)
    run.check_records(problem, records)
    assert [r["method"] for r in records if r["error"] is not None] \
        == ["cafqa"]
