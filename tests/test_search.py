"""Tests for the pluggable search subsystem.

The acceptance-critical behaviors live here: every registered strategy
reproduces itself under a fixed seed and respects
``SearchBudget.max_evaluations`` *exactly*; the ``multi_ga`` adapter is
bit-identical to a direct ``multi_ga_minimize`` call (so the PR-3 goldens
cannot move); and the strategy axis flows through ``Experiment``,
campaign grids/reports, and the CLI.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.campaigns import (
    CampaignAggregate,
    CampaignRunner,
    CampaignSpec,
    ResultStore,
    render_report,
)
from repro.cli import main
from repro.experiments import Experiment, ExperimentResult
from repro.hamiltonians import ising_model
from repro.noise import NoiseModel
from repro.optim import EngineConfig, GAConfig, multi_ga_minimize
from repro.search import (
    BudgetedLoss,
    BudgetExhausted,
    SearchBudget,
    SearchResult,
    SearchStrategy,
    SearchTrace,
    available_strategies,
    get_strategy,
    register_strategy,
    resolve_strategy,
    strategy_names,
    unregister_strategy,
)

BUILTIN_STRATEGIES = ("multi_ga", "annealing", "tabu", "restart_climb")

TINY_OVERRIDES = {"num_instances": 2, "generations_per_round": 6,
                  "top_k": 3, "population_size": 10, "retry_rounds": 0}
TINY = EngineConfig(seed=0, **TINY_OVERRIDES)


def quad_loss(genome) -> float:
    """Cheap synthetic loss with a unique minimum at all-ones."""
    g = np.asarray(genome, dtype=float)
    return float(np.sum((g - 1.0) ** 2) + 0.1 * g[0])


def assert_accounting_adds_up(result):
    """Memo misses, the evaluation count and the trace agree, a budget
    stop included."""
    assert result.cache_stats["misses"] == result.num_evaluations == \
        sum(t.num_evaluations for t in result.trace)


def tiny_problem(n=3):
    from repro.core import VQEProblem

    h = ising_model(n, 1.0)
    nm = NoiseModel.uniform(n, depol_1q=1e-3, depol_2q=1e-2,
                            readout=0.02, t1=80e-6)
    return h, VQEProblem.logical(h, noise_model=nm)


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
class FixedZeroStrategy(SearchStrategy):
    """User-defined strategy: evaluate the zero genome once (no core
    edits)."""

    name = "fixed_zero"
    description = "deterministic test strategy: the all-zero genome"

    def minimize(self, loss_fn, num_parameters, num_values=4, *,
                 budget=None, config=None, rng=None, executor=None):
        genome = np.zeros(num_parameters, dtype=np.int64)
        value = float(loss_fn(genome))
        trace = [SearchTrace(round_index=0, best_loss=value,
                             num_evaluations=1, duration_seconds=0.0)]
        return SearchResult(strategy=self.name, best_genome=genome,
                            best_loss=value, trace=trace,
                            num_evaluations=1, total_seconds=0.0)


@pytest.fixture()
def custom_strategy():
    register_strategy(FixedZeroStrategy)
    yield "fixed_zero"
    unregister_strategy("fixed_zero")


class TestRegistry:
    def test_builtins_registered_in_order(self):
        assert strategy_names()[:4] == BUILTIN_STRATEGIES
        for name, strategy in available_strategies().items():
            assert strategy.name == name and strategy.description

    def test_get_strategy_did_you_mean(self):
        with pytest.raises(KeyError, match="did you mean 'annealing'"):
            get_strategy("anealing")

    def test_resolve_strategy_defaults_and_errors(self):
        assert resolve_strategy().name == "multi_ga"
        assert resolve_strategy("tabu").name == "tabu"
        instance = get_strategy("annealing")
        assert resolve_strategy(instance) is instance
        with pytest.raises(TypeError):
            resolve_strategy(42)

    def test_duplicate_registration_rejected(self, custom_strategy):
        with pytest.raises(ValueError, match="already registered"):
            register_strategy(FixedZeroStrategy)
        register_strategy(FixedZeroStrategy(), replace=True)


# ----------------------------------------------------------------------
# Determinism + budget contracts (every registered strategy)
# ----------------------------------------------------------------------
class TestContracts:
    @pytest.mark.parametrize("name", BUILTIN_STRATEGIES)
    def test_fixed_seed_reproduces_itself(self, name):
        strategy = get_strategy(name)
        first = strategy.minimize(quad_loss, 10, config=TINY)
        second = strategy.minimize(quad_loss, 10, config=TINY)
        assert np.array_equal(first.best_genome, second.best_genome)
        assert first.best_loss == second.best_loss
        assert first.num_evaluations == second.num_evaluations
        assert [t.best_loss for t in first.trace] == \
            [t.best_loss for t in second.trace]

    @pytest.mark.parametrize("name", BUILTIN_STRATEGIES)
    def test_max_evaluations_respected_exactly(self, name):
        budget = SearchBudget(max_evaluations=37, max_rounds=5000)
        result = get_strategy(name).minimize(quad_loss, 12, config=TINY,
                                             budget=budget)
        assert result.num_evaluations == 37
        assert result.stopped_by == "evaluations"
        assert np.isfinite(result.best_loss)
        assert_accounting_adds_up(result)

    @pytest.mark.parametrize("name", BUILTIN_STRATEGIES)
    def test_target_loss_stops_the_search(self, name):
        budget = SearchBudget(max_evaluations=100_000, max_rounds=5000,
                              target_loss=5.0)
        # enough search capacity that every strategy can reach the target
        config = EngineConfig(seed=0, num_instances=4,
                              generations_per_round=60, top_k=3,
                              population_size=10, retry_rounds=0)
        result = get_strategy(name).minimize(quad_loss, 12, config=config,
                                             budget=budget)
        assert result.best_loss <= 5.0
        assert result.stopped_by == "target"
        assert_accounting_adds_up(result)

    @pytest.mark.parametrize("name", BUILTIN_STRATEGIES)
    def test_trace_accounts_for_every_evaluation(self, name):
        result = get_strategy(name).minimize(quad_loss, 8, config=TINY)
        assert result.num_rounds == len(result.trace)
        assert sum(t.num_evaluations for t in result.trace) == \
            result.num_evaluations
        # best_loss is monotone along the trace
        bests = [t.best_loss for t in result.trace]
        assert bests == sorted(bests, reverse=True)

    def test_restart_climb_cut_by_max_rounds_reports_rounds(self):
        config = EngineConfig(seed=0, **{**TINY_OVERRIDES,
                                         "num_instances": 10})
        result = get_strategy("restart_climb").minimize(
            quad_loss, 8, config=config, budget=SearchBudget(max_rounds=2))
        assert result.num_rounds == 2
        assert result.stopped_by == "rounds"
        full = get_strategy("restart_climb").minimize(quad_loss, 8,
                                                      config=config)
        assert full.stopped_by == "converged"

    def test_annealing_never_overflows_on_improving_moves(self):
        """A cold schedule makes ``-delta / T`` huge for improving
        moves; only the uphill part may be exponentiated."""
        from repro.search.strategies import AnnealingStrategy

        def steep_loss(genome) -> float:
            return 10.0 * quad_loss(genome)

        strategy = AnnealingStrategy(initial_temperature=1e-3)
        with np.errstate(over="raise"):
            result = strategy.minimize(steep_loss, 8, config=TINY)
        assert np.isfinite(result.best_loss)

    def test_multi_ga_bit_identical_to_direct_engine(self):
        direct = multi_ga_minimize(quad_loss, 10, config=TINY)
        adapted = get_strategy("multi_ga").minimize(quad_loss, 10,
                                                    config=TINY)
        assert np.array_equal(direct.best_genome, adapted.best_genome)
        assert direct.best_loss == adapted.best_loss
        assert direct.num_evaluations == adapted.num_evaluations
        assert [t.best_loss for t in direct.trace] == \
            [t.best_loss for t in adapted.trace]
        assert direct.strategy == adapted.strategy == "multi_ga"
        assert direct.stopped_by == adapted.stopped_by
        assert direct.cache_stats == adapted.cache_stats

    def test_multi_ga_explicit_rng_equals_config_seed(self):
        strategy = get_strategy("multi_ga")
        unseeded = EngineConfig(**TINY_OVERRIDES)
        for seed in (0, 3):
            by_rng = strategy.minimize(quad_loss, 10, config=unseeded,
                                       rng=np.random.default_rng(seed))
            by_seed = strategy.minimize(quad_loss, 10, config=EngineConfig(
                seed=seed, **TINY_OVERRIDES))
            assert np.array_equal(by_rng.best_genome, by_seed.best_genome)
            assert by_rng.best_loss == by_seed.best_loss
            assert by_rng.num_evaluations == by_seed.num_evaluations
            assert [t.best_loss for t in by_rng.trace] == \
                [t.best_loss for t in by_seed.trace]

    def test_multi_ga_reports_the_best_genome_it_evaluated(self):
        """Without elitism the final populations can lose the best genome
        a round evaluated; the result still reports it."""
        recorded = []

        def recording_loss(genome):
            value = quad_loss(genome)
            recorded.append(value)
            return value

        config = EngineConfig(seed=0, num_instances=2,
                              generations_per_round=4, top_k=3,
                              population_size=10, retry_rounds=1,
                              max_rounds=4, ga=GAConfig(elite_count=0))
        result = get_strategy("multi_ga").minimize(recording_loss, 12,
                                                   config=config)
        assert result.best_loss == min(recorded)
        assert quad_loss(result.best_genome) == result.best_loss

    @pytest.mark.parametrize("name", BUILTIN_STRATEGIES)
    def test_executor_sharding_is_bit_identical(self, name):
        from repro.execution import ThreadExecutor

        serial = get_strategy(name).minimize(quad_loss, 8, config=TINY)
        with ThreadExecutor(2) as executor:
            sharded = get_strategy(name).minimize(quad_loss, 8,
                                                  config=TINY,
                                                  executor=executor)
        assert np.array_equal(serial.best_genome, sharded.best_genome)
        assert serial.best_loss == sharded.best_loss
        assert serial.num_evaluations == sharded.num_evaluations

    def test_budgeted_multi_ga_is_exact_under_every_executor(self):
        """The budget tracker wraps the sharded loss in the driving
        process, so the cap binds exactly, on the same genome, whether
        the batches run inline, on threads or in worker processes."""
        from repro.execution import (
            ProcessExecutor,
            SerialExecutor,
            ThreadExecutor,
        )

        budget = SearchBudget(max_evaluations=50)
        outcomes = []
        for executor in (SerialExecutor(), ThreadExecutor(2),
                         ProcessExecutor(2)):
            with executor:
                result = get_strategy("multi_ga").minimize(
                    quad_loss, 10, config=TINY, budget=budget,
                    executor=executor)
            assert result.num_evaluations == 50, executor
            assert result.stopped_by == "evaluations", executor
            outcomes.append((result.best_genome.tolist(), result.best_loss))
        assert outcomes[1] == outcomes[0] and outcomes[2] == outcomes[0]


@pytest.mark.parametrize("module",
                         ("repro.optim.engine", "repro.search", "repro"))
def test_imports_cleanly_in_a_fresh_interpreter(module):
    """``repro.search`` imports the engine at module level and the engine
    imports ``repro.search.strategies`` at call time; a module-level
    import there would close a cycle that only a fresh interpreter
    sees."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    done = subprocess.run([sys.executable, "-c", f"import {module}"],
                          env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


class TestBudget:
    def test_validate_rejects_nonpositive_caps(self):
        with pytest.raises(ValueError, match="max_evaluations"):
            SearchBudget(max_evaluations=0).validate()
        with pytest.raises(ValueError, match="max_rounds"):
            SearchBudget(max_rounds=0).validate()

    def test_engine_default_budget_matches_the_ga_ceiling(self):
        budget = SearchBudget.from_engine(TINY)
        per_round = (TINY.num_instances * TINY.population_size
                     * (TINY.generations_per_round + 1))
        assert budget.max_evaluations == per_round * TINY.max_rounds
        # measured in population batches: one engine round is m+1 of them
        assert budget.max_rounds == TINY.max_rounds * \
            (TINY.generations_per_round + 1)

    def test_budgeted_loss_trims_the_final_batch(self):
        tracked = BudgetedLoss(quad_loss, SearchBudget(max_evaluations=5))
        genomes = np.arange(32).reshape(8, 4) % 4
        with pytest.raises(BudgetExhausted):
            tracked.evaluate_many(genomes)
        assert tracked.evaluations == 5
        expected = min(quad_loss(g) for g in genomes[:5])
        assert tracked.best_loss == expected
        with pytest.raises(BudgetExhausted):
            tracked(genomes[6])  # cap already reached


# ----------------------------------------------------------------------
# Experiment integration
# ----------------------------------------------------------------------
class TestExperimentIntegration:
    def test_default_run_is_bit_identical_to_explicit_multi_ga(self):
        h, problem = tiny_problem()
        default = Experiment(h, problem=problem, name="t").run(
            methods="cafqa", config=TINY)
        explicit = Experiment(h, problem=problem, name="t").run(
            methods="cafqa", config=TINY, strategy="multi_ga")
        a, b = default.runs["cafqa"], explicit.runs["cafqa"]
        assert np.array_equal(a.genome, b.genome)
        assert a.loss == b.loss
        assert a.engine_evaluations == b.engine_evaluations
        assert a.strategy == b.strategy == "multi_ga"

    @pytest.mark.parametrize("name", ("annealing", "tabu",
                                      "restart_climb"))
    def test_alternative_strategies_run_end_to_end(self, name):
        h, problem = tiny_problem()
        result = Experiment(h, problem=problem, name="t").run(
            methods="cafqa", config=TINY, strategy=name)
        run = result.runs["cafqa"]
        assert run.strategy == name
        assert run.search_trace  # per-round records survive
        assert run.engine_evaluations == sum(
            t["num_evaluations"] for t in run.search_trace)
        assert run.evaluation is not None  # three-tier evaluation ran

    def test_strategy_and_trace_round_trip_through_json(self):
        h, problem = tiny_problem()
        result = Experiment(h, problem=problem, name="t").run(
            methods="cafqa", config=TINY, strategy="annealing")
        reloaded = ExperimentResult.from_dict(result.to_dict())
        run = reloaded.runs["cafqa"]
        assert run.strategy == "annealing"
        assert run.search_trace == result.runs["cafqa"].search_trace

    def test_unknown_strategy_fails_with_did_you_mean(self):
        h, problem = tiny_problem()
        with pytest.raises(KeyError, match="did you mean"):
            Experiment(h, problem=problem).run(methods="cafqa",
                                               config=TINY,
                                               strategy="anealing")

    def test_custom_strategy_runs_through_experiment(self,
                                                     custom_strategy):
        h, problem = tiny_problem()
        result = Experiment(h, problem=problem, name="t").run(
            methods="cafqa", config=TINY, strategy=custom_strategy)
        run = result.runs["cafqa"]
        assert run.strategy == "fixed_zero"
        assert np.array_equal(run.genome,
                              np.zeros(len(run.genome), dtype=np.int64))

    def test_own_search_shape_methods_ignore_the_axis(self):
        h, problem = tiny_problem()
        result = Experiment(h, problem=problem, name="t").run(
            methods=("vanilla", "random_clifford"), config=TINY,
            strategy="annealing")
        assert result.runs["vanilla"].strategy == "none"
        assert result.runs["random_clifford"].strategy == "best_of_k"

    def test_budget_flows_through_experiment(self):
        h, problem = tiny_problem()
        budget = SearchBudget(max_evaluations=23, max_rounds=5000)
        result = Experiment(h, problem=problem, name="t").run(
            methods="cafqa", config=TINY, strategy="tabu", budget=budget)
        assert result.runs["cafqa"].engine_evaluations == 23


# ----------------------------------------------------------------------
# Campaigns
# ----------------------------------------------------------------------
def strategy_spec(**kwargs) -> CampaignSpec:
    defaults = dict(name="strategy-grid", benchmarks=["ising_J1.00"],
                    qubit_sizes=[3], noise_scales=[1.0],
                    methods=["cafqa"],
                    strategies=["annealing", "restart_climb"], seeds=[0],
                    engine_preset="smoke", engine_overrides=TINY_OVERRIDES)
    defaults.update(kwargs)
    return CampaignSpec(**defaults)


class TestCampaignAxis:
    def test_grid_expands_the_strategy_axis(self):
        spec = strategy_spec(seeds=[0, 1])
        tasks = spec.tasks()
        assert len(tasks) == spec.num_tasks == 4
        assert [(t.strategy, t.seed) for t in tasks] == [
            ("annealing", 0), ("annealing", 1),
            ("restart_climb", 0), ("restart_climb", 1)]
        # non-default strategies appear in the task label
        assert tasks[0].label == \
            "ising_J1.00/3q/noise_x1/cafqa/annealing/s0"

    def test_default_axis_keeps_legacy_labels_and_ids(self):
        spec = strategy_spec(strategies=["multi_ga"])
        task = spec.tasks()[0]
        assert task.label == "ising_J1.00/3q/noise_x1/cafqa/s0"

    def test_spec_rejects_unknown_and_duplicate_strategies(self):
        with pytest.raises(ValueError, match="did you mean"):
            strategy_spec(strategies=["anealing"])
        with pytest.raises(ValueError, match="duplicate"):
            strategy_spec(strategies=["tabu", "tabu"])
        with pytest.raises(ValueError, match="at least one"):
            strategy_spec(strategies=[])

    def test_campaign_runs_and_reports_the_strategy_column(self):
        spec = strategy_spec()
        store = ResultStore.ephemeral(spec)
        progress = CampaignRunner(spec, store).run()
        assert progress.failed == 0 and progress.ran == 2
        aggregate = CampaignAggregate.from_store(store)
        assert {r["strategy"] for r in aggregate.rows} == \
            {"annealing", "restart_climb"}
        report = render_report(store)
        assert "| strategy |" in report or "| setting | method | " \
            "strategy |" in report
        assert "annealing" in report and "restart_climb" in report

    def test_eta_join_never_crosses_strategies(self):
        spec = strategy_spec(methods=["ncafqa", "clapton"],
                             strategies=["multi_ga", "annealing"])
        store = ResultStore.ephemeral(spec)
        CampaignRunner(spec, store).run()
        aggregate = CampaignAggregate.from_store(store)
        rows = aggregate.eta_rows("ncafqa")
        assert len(rows) == 2  # one per strategy, never mixed
        assert {r["strategy"] for r in rows} == {"multi_ga", "annealing"}

    def test_spec_round_trip_preserves_strategies(self, tmp_path):
        spec = strategy_spec()
        path = tmp_path / "spec.json"
        spec.save(path)
        reloaded = CampaignSpec.load(path)
        assert reloaded.strategies == spec.strategies
        assert [t.task_id for t in reloaded.tasks()] == \
            [t.task_id for t in spec.tasks()]

    def test_default_strategy_payloads_keep_the_pre_axis_shape(self):
        """Default-strategy task ids (and store payloads) are
        byte-identical to pre-axis ones, so old stores resume."""
        from repro.campaigns import TaskSpec

        task = strategy_spec(strategies=["multi_ga"]).tasks()[0]
        payload = task.to_dict()
        assert "strategy" not in payload  # the PR-4-era record shape
        assert TaskSpec.from_dict(payload).strategy == "multi_ga"
        assert TaskSpec.from_dict(payload).task_id == task.task_id
        off_default = strategy_spec(strategies=["tabu"]).tasks()[0]
        assert off_default.to_dict()["strategy"] == "tabu"
        assert off_default.task_id != task.task_id

    def test_own_search_shape_methods_stay_in_their_grid_cell(self):
        """vanilla reports strategy label "none", but aggregation keys
        on the grid axis, so eta joins against it still find the cell."""
        spec = strategy_spec(methods=["vanilla", "clapton"],
                             strategies=["multi_ga"])
        store = ResultStore.ephemeral(spec)
        CampaignRunner(spec, store).run()
        aggregate = CampaignAggregate.from_store(store)
        assert {r["strategy"] for r in aggregate.rows} == {"multi_ga"}
        assert len(aggregate.eta_rows("vanilla")) == 1


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
class TestCli:
    def test_strategies_verb_lists_registry(self, capsys):
        assert main(["strategies"]) == 0
        out = capsys.readouterr().out
        for name in BUILTIN_STRATEGIES:
            assert name in out

    def test_run_with_strategy_and_engine_flags(self, capsys,
                                                monkeypatch):
        monkeypatch.setenv("CLAPTON_BENCH_PRESET", "smoke")
        code = main(["run", "ising_J1.00", "--backend", "nairobi",
                     "--method", "cafqa", "--qubits", "3",
                     "--strategy", "tabu", "--seed", "0",
                     "--engine-instances", "1",
                     "--engine-generations", "4",
                     "--engine-top-k", "2", "--engine-population", "8",
                     "--engine-retry-rounds", "0"])
        out = capsys.readouterr().out
        assert code == 0
        assert "strategy=tabu" in out
        assert "search: tabu" in out

    def test_run_did_you_mean_on_typoed_strategy(self, capsys):
        code = main(["run", "ising_J1.00", "--strategy", "anealing"])
        err = capsys.readouterr().err
        assert code == 2
        assert "did you mean 'annealing'" in err
        assert "repro strategies" in err

    def test_sweep_strategy_override_status_and_resume(self, capsys,
                                                       tmp_path):
        import json

        spec_path = tmp_path / "grid.json"
        spec_path.write_text(json.dumps({
            "name": "cli-strategies",
            "benchmarks": ["ising_J1.00"], "qubit_sizes": [3],
            "noise_scales": [1.0], "methods": ["cafqa"], "seeds": [0],
            "engine_preset": "smoke",
            "engine_overrides": TINY_OVERRIDES,
        }))
        store = str(tmp_path / "grid.campaign")
        code = main(["sweep", str(spec_path), "--store", store,
                     "--strategies", "annealing,restart_climb"])
        out = capsys.readouterr().out
        assert code == 0
        assert "2 tasks" in out
        # resume with the same overrides: everything skipped + reported
        code = main(["sweep", str(spec_path), "--store", store,
                     "--resume", "--strategies",
                     "annealing,restart_climb"])
        out = capsys.readouterr().out
        assert code == 0
        assert "resume: skipping 2 completed task id(s)" in out
        # status surfaces per-strategy progress for multi-strategy grids
        assert main(["status", store]) == 0
        out = capsys.readouterr().out
        assert "annealing" in out and "restart_climb" in out
        assert out.count("1 done") == 2
        # report carries the strategy column
        assert main(["report", store]) == 0
        out = capsys.readouterr().out
        assert "annealing" in out and "restart_climb" in out

    def test_sweep_rejects_unknown_strategy_override(self, capsys,
                                                     tmp_path):
        import json

        spec_path = tmp_path / "grid.json"
        spec_path.write_text(json.dumps({
            "name": "x", "benchmarks": ["ising_J1.00"],
            "qubit_sizes": [3], "noise_scales": [1.0],
            "methods": ["cafqa"], "seeds": [0],
            "engine_preset": "smoke",
            "engine_overrides": TINY_OVERRIDES,
        }))
        code = main(["sweep", str(spec_path), "--strategies", "tabuu"])
        err = capsys.readouterr().err
        assert code == 2
        assert "did you mean 'tabu'" in err
