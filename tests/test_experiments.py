"""Tests for the experiment presets and runners."""

import numpy as np
import pytest

from repro.core import VQEProblem
from repro.experiments import (
    FAST_ENGINE,
    PAPER_ENGINE,
    SMOKE_ENGINE,
    bench_engine,
    compare_initializations,
    convergence_traces,
    format_comparison_table,
    sweep_relative_improvement,
)
from repro.hamiltonians import ising_model
from repro.noise import NoiseModel
from repro.optim import EngineConfig

TINY = EngineConfig(num_instances=1, generations_per_round=6, top_k=3,
                    population_size=10, retry_rounds=0, seed=0)


class TestPresets:
    def test_paper_preset_matches_section_4_1(self):
        assert PAPER_ENGINE.num_instances == 10
        assert PAPER_ENGINE.generations_per_round == 100
        assert PAPER_ENGINE.top_k == 20
        assert PAPER_ENGINE.population_size == 100
        assert PAPER_ENGINE.retry_rounds == 2

    def test_bench_engine_env_switch(self, monkeypatch):
        monkeypatch.setenv("CLAPTON_BENCH_PRESET", "paper")
        assert bench_engine() is PAPER_ENGINE
        monkeypatch.setenv("CLAPTON_BENCH_PRESET", "smoke")
        assert bench_engine() is SMOKE_ENGINE
        monkeypatch.delenv("CLAPTON_BENCH_PRESET")
        assert bench_engine() is FAST_ENGINE
        monkeypatch.setenv("CLAPTON_BENCH_PRESET", "bogus")
        with pytest.raises(ValueError):
            bench_engine()


class TestRunners:
    def make_problem(self):
        h = ising_model(3, 1.0)
        nm = NoiseModel.uniform(3, depol_1q=1e-3, depol_2q=1e-2,
                                readout=0.02, t1=80e-6)
        return h, VQEProblem.logical(h, noise_model=nm)

    def test_compare_initializations_row(self):
        h, problem = self.make_problem()
        row = compare_initializations("ising3", h, problem, config=TINY)
        assert set(row.evaluations) == {"cafqa", "ncafqa", "clapton"}
        assert np.isfinite(row.eta_initial("cafqa"))
        assert row.e_mixed == pytest.approx(h.mixed_state_energy())
        table = format_comparison_table([row])
        assert "ising3" in table and "eta_vs_cafqa" in table

    def test_compare_with_subset_of_methods(self):
        h, problem = self.make_problem()
        row = compare_initializations("ising3", h, problem, config=TINY,
                                      methods=("cafqa", "clapton"))
        assert set(row.evaluations) == {"cafqa", "clapton"}

    def test_convergence_traces(self):
        h, problem = self.make_problem()
        traces = convergence_traces(h, problem, TINY, vqe_iterations=5,
                                    methods=("cafqa", "clapton"))
        assert set(traces) == {"cafqa", "clapton"}
        for trace in traces.values():
            assert len(trace.history) == 5

    def test_sweep_relative_improvement(self):
        h, _ = self.make_problem()
        models = [NoiseModel.uniform(3, depol_1q=p, depol_2q=10 * p,
                                     readout=0.02, t1=100e-6)
                  for p in (1e-3, 3e-3)]
        etas = sweep_relative_improvement(h, models, config=TINY)
        assert len(etas) == 2
        assert all(np.isfinite(e) and e > 0 for e in etas)
