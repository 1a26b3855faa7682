"""Fault gate: a steady-state loss batch does not fault its heap back in.

Every batch allocates and frees its temporaries.  glibc trims the heap
top on ``free`` once the free space there passes its trim threshold
(twice the largest mmapped chunk freed so far), and the next batch then
faults the same pages back in: at 32 qubits that costs hundreds of
minor faults per batch, visible in wall clock.  The program keeps each
batch's transient heap small (the block pass and the noise walk's
factor pass work in bounded buffers, and the walk derives location bits
for its live rows only), so a batch reuses the pages the previous one
freed.

The gate runs in a fresh interpreter, so no other test's heap history
moves the thresholds: it builds the 32-qubit logical Ising problem
(P = 100 genomes a batch, as perfbench's ``large-ising32``), then per
loss runs warm-up batches and counts ``ru_minflt`` over ten more
seeded batches.  A fault count does not depend on machine load the way
wall time does, so the bound is hard.  glibc only: other allocators
trim by other rules.

Run it directly to print the counts::

    PYTHONPATH=src python benchmarks/test_batch_faults.py
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import pytest

NUM_QUBITS = 32
POPULATION = 100
WARMUP_BATCHES = 3
MEASURED_BATCHES = 10

#: Minor faults per steady-state batch, at most, for every loss.
#: Measured here on glibc 2.36, numpy 2.4, Python 3.11 (2-vCPU VM):
#: 0.0-0.3 per batch for each loss, where the code before the bounded
#: buffers ran at 348 (clapton), 0 (cafqa) and 312 (ncafqa).  A batch
#: that trims at today's footprint faults 100-200 pages back in, so the
#: bound catches that too.
MAX_FAULTS_PER_BATCH = 50


def count_faults() -> dict:
    """Minor faults per batch of each loss, after its warm-up."""
    import resource

    import numpy as np

    from repro.core import VQEProblem
    from repro.core.loss import CafqaLoss, ClaptonLoss
    from repro.hamiltonians import ising_model
    from repro.noise import NoiseModel

    problem = VQEProblem.logical(ising_model(NUM_QUBITS, 1.0),
                                 NoiseModel.uniform(NUM_QUBITS))
    losses = {
        "clapton": (ClaptonLoss(problem),
                    problem.num_transformation_parameters),
        "cafqa": (CafqaLoss(problem), 4 * NUM_QUBITS),
        "ncafqa": (CafqaLoss(problem, noise_aware=True), 4 * NUM_QUBITS),
    }
    rng = np.random.default_rng(2024)
    faults = {}
    for name, (loss, length) in losses.items():
        batches = [rng.integers(0, 4, size=(POPULATION, length))
                   for _ in range(WARMUP_BATCHES + MEASURED_BATCHES)]
        for genomes in batches[:WARMUP_BATCHES]:
            loss.evaluate_many(genomes)
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        for genomes in batches[WARMUP_BATCHES:]:
            loss.evaluate_many(genomes)
        faults[name] = (resource.getrusage(resource.RUSAGE_SELF).ru_minflt
                        - before) / MEASURED_BATCHES
    return faults


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                    reason="the bounds are glibc's heap-trim behavior")
def test_steady_state_batches_do_not_fault():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, __file__], env=env,
                          capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stderr
    faults = json.loads(done.stdout.splitlines()[-1])
    print(f"\nminor faults per batch: {faults}")
    over = {name: count for name, count in faults.items()
            if count > MAX_FAULTS_PER_BATCH}
    assert not over, (f"minor faults per batch {over} above "
                      f"{MAX_FAULTS_PER_BATCH}")


if __name__ == "__main__":
    print(json.dumps(count_faults()))
