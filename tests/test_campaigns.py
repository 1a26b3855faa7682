"""Tests for the campaign subsystem: specs, stores, runner, aggregation.

The acceptance-critical behaviors live here: deterministic grid expansion
with stable content-hash ids, crash-tolerant stores, resume semantics
(interrupted + resumed == uninterrupted, completed ids skipped), and
sharded runs matching serial runs record for record.
"""

import json

import numpy as np
import pytest

from repro.campaigns import (
    CampaignAggregate,
    CampaignRunner,
    CampaignSpec,
    ResultStore,
    RetryPolicy,
    StoreLockedError,
    TaskSpec,
    engine_from_dict,
    engine_to_dict,
    render_report,
    setting_label,
)
from repro.execution import ThreadExecutor
from repro.experiments import sweep_relative_improvement
from repro.hamiltonians import ising_model
from repro.noise import NoiseModel
from repro.optim import EngineConfig

#: Minimal engine so every campaign task runs in ~100 ms.
TINY_OVERRIDES = {"num_instances": 1, "generations_per_round": 6,
                  "top_k": 3, "population_size": 10, "retry_rounds": 0}
TINY = EngineConfig(seed=0, **{k: v for k, v in TINY_OVERRIDES.items()})


def tiny_spec(**kwargs) -> CampaignSpec:
    defaults = dict(name="tiny", benchmarks=["ising_J1.00"],
                    qubit_sizes=[3], noise_scales=[1.0, 2.0],
                    methods=["ncafqa", "clapton"], seeds=[0],
                    engine_preset="smoke", engine_overrides=TINY_OVERRIDES)
    defaults.update(kwargs)
    return CampaignSpec(**defaults)


def energies(store: ResultStore) -> dict[str, float]:
    """task_id -> device-model energy, for exact run comparisons."""
    out = {}
    for record in store.records():
        run = record["result"]["runs"][record["task"]["method"]]
        out[record["task_id"]] = run["evaluation"]["device_model"]
    return out


class TestSpec:
    def test_deterministic_expansion_order(self):
        spec = tiny_spec(seeds=[0, 1])
        tasks = spec.tasks()
        assert len(tasks) == spec.num_tasks == 8
        # declared nesting: setting varies slowest of the tested axes,
        # then method, then seed
        labels = [t.label for t in tasks[:4]]
        assert labels == [
            "ising_J1.00/3q/noise_x1/ncafqa/s0",
            "ising_J1.00/3q/noise_x1/ncafqa/s1",
            "ising_J1.00/3q/noise_x1/clapton/s0",
            "ising_J1.00/3q/noise_x1/clapton/s1",
        ]

    def test_task_ids_stable_across_round_trip(self, tmp_path):
        spec = tiny_spec()
        path = tmp_path / "spec.json"
        spec.save(path)
        reloaded = CampaignSpec.load(path)
        assert [t.task_id for t in reloaded.tasks()] == \
               [t.task_id for t in spec.tasks()]
        assert reloaded.to_dict() == spec.to_dict()

    def test_task_ids_distinguish_cells(self):
        ids = {t.task_id for t in tiny_spec(seeds=[0, 1, 2]).tasks()}
        assert len(ids) == 12  # 2 settings x 2 methods x 3 seeds

    def test_task_seed_feeds_engine_seed(self):
        tasks = tiny_spec(seeds=[7]).tasks()
        assert all(t.engine["seed"] == 7 and t.seed == 7 for t in tasks)

    def test_task_ids_are_pinned(self):
        # golden ids: a changed EngineConfig field, default or payload
        # shape would orphan every stored campaign, since resume skips
        # exactly the ids a store already holds
        ids = {t.label: t.task_id for t in tiny_spec().tasks()}
        assert ids == {
            "ising_J1.00/3q/noise_x1/ncafqa/s0": "t2709a21d924be6e4",
            "ising_J1.00/3q/noise_x1/clapton/s0": "t52660f7a0f7f61a5",
            "ising_J1.00/3q/noise_x2/ncafqa/s0": "t44b09ce05bb2f5ff",
            "ising_J1.00/3q/noise_x2/clapton/s0": "tde32dacb85b4ebfb",
        }

    def test_engine_round_trip(self):
        config = EngineConfig(num_instances=4, seed=3, pool_fraction=0.25)
        assert engine_from_dict(engine_to_dict(config)) == config

    def test_engine_from_dict_reads_old_payloads(self):
        payload = dict(engine_to_dict(TINY), parallel_axis="instances")
        assert engine_from_dict(payload) == TINY

    def test_backends_and_scales_compose(self):
        spec = tiny_spec(backends=["nairobi"], noise_scales=[2.0])
        labels = [setting_label(s) for s in spec.settings()]
        assert labels == ["nairobi", "noise_x2"]

    def test_empty_settings_mean_noiseless(self):
        spec = tiny_spec(backends=[], noise_scales=[])
        assert spec.settings() == [{"kind": "noiseless"}]

    def test_rejects_unknown_method_and_preset(self):
        with pytest.raises(ValueError, match="unknown methods"):
            tiny_spec(methods=["bogus"])
        with pytest.raises(ValueError, match="preset"):
            tiny_spec(engine_preset="bogus")

    def test_rejects_bad_engine_overrides_early(self):
        for overrides in ({"populaton_size": 10},  # typo
                          {"num_instances": 0}, {"pool_fraction": 2.0},
                          {"num_processes": 2}):
            with pytest.raises(ValueError, match="engine_overrides"):
                tiny_spec(engine_overrides=overrides)

    def test_rejects_bad_base_noise_and_backends(self):
        with pytest.raises(ValueError, match="base_noise"):
            tiny_spec(base_noise={"depol1q": 5e-3})  # typo
        with pytest.raises(ValueError, match="unknown backends"):
            tiny_spec(backends=["nairboi"])

    def test_rejects_duplicate_axis_values(self):
        with pytest.raises(ValueError, match="duplicate values in seeds"):
            tiny_spec(seeds=[0, 0])
        with pytest.raises(ValueError,
                           match="duplicate values in benchmarks"):
            tiny_spec(benchmarks=["ising_J1.00", "ising_J1.00"])

    def test_noise_model_setting_round_trips(self):
        model = NoiseModel.uniform(3, depol_1q=2e-3, depol_2q=1e-2,
                                   readout=0.03, t1=80e-6)
        restored = NoiseModel.from_dict(
            json.loads(json.dumps(model.to_dict())))
        np.testing.assert_allclose(restored.depol_1q, model.depol_1q)
        np.testing.assert_allclose(restored.t1, model.t1)
        np.testing.assert_allclose(restored.readout_p01, model.readout_p01)
        assert restored.depol_2q_default == model.depol_2q_default


class TestStore:
    def test_create_open_round_trip(self, tmp_path):
        spec = tiny_spec()
        store = ResultStore.create(tmp_path / "s", spec)
        store.append({"task_id": "t1", "status": "done", "seconds": 1.0})
        store.append({"task_id": "t2", "status": "failed", "error": "x"})
        reopened = ResultStore.open(tmp_path / "s")
        assert reopened.spec.name == "tiny"
        assert reopened.completed_ids() == {"t1"}
        assert reopened.failed_ids() == {"t2"}
        assert reopened.counts()["done"] == 1

    def test_latest_record_wins(self, tmp_path):
        store = ResultStore.create(tmp_path / "s", tiny_spec())
        store.append({"task_id": "t1", "status": "failed"})
        store.append({"task_id": "t1", "status": "done"})
        assert ResultStore.open(tmp_path / "s").completed_ids() == {"t1"}

    def test_torn_trailing_line_is_dropped(self, tmp_path):
        import warnings

        store = ResultStore.create(tmp_path / "s", tiny_spec())
        store.append({"task_id": "t1", "status": "done"})
        with open(tmp_path / "s" / "results.jsonl", "a") as fh:
            fh.write('{"task_id": "t2", "status": "do')  # crash mid-append
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # torn tail is normal: silent
            reopened = ResultStore.open(tmp_path / "s")
        assert reopened.completed_ids() == {"t1"}

    def test_mid_log_corruption_warns_with_line_number(self, tmp_path):
        store = ResultStore.create(tmp_path / "s", tiny_spec())
        store.append({"task_id": "t1", "status": "done"})
        store.close()
        with open(tmp_path / "s" / "results.jsonl", "a") as fh:
            fh.write("NOT JSON AT ALL\n")  # damage followed by a valid line
            fh.write('{"task_id": "t3", "status": "done"}\n')
        with pytest.warns(RuntimeWarning, match=r"corrupt record at .*:2 "):
            reopened = ResultStore.open(tmp_path / "s")
        assert reopened.completed_ids() == {"t1", "t3"}

    def test_second_writer_fails_fast(self, tmp_path):
        pytest.importorskip("fcntl")
        first = ResultStore.create(tmp_path / "s", tiny_spec())
        first.append({"task_id": "t1", "status": "done"})
        second = ResultStore.open(tmp_path / "s")
        with pytest.raises(StoreLockedError, match="already being written"):
            second.append({"task_id": "t2", "status": "done"})
        first.close()  # lock released with the handle...
        second.append({"task_id": "t2", "status": "done"})  # ...now fine
        second.close()
        assert ResultStore.open(
            tmp_path / "s").completed_ids() == {"t1", "t2"}

    def test_create_refuses_existing_store(self, tmp_path):
        ResultStore.create(tmp_path / "s", tiny_spec())
        with pytest.raises(FileExistsError):
            ResultStore.create(tmp_path / "s", tiny_spec())

    def test_open_missing_store(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            ResultStore.open(tmp_path / "nope")


class TestRunnerResume:
    def test_interrupted_campaign_resumes_and_matches(self, tmp_path):
        spec = tiny_spec()
        n = spec.num_tasks

        # uninterrupted reference run
        ref_store = ResultStore.create(tmp_path / "ref", spec)
        CampaignRunner(spec, ref_store).run()
        ref = energies(ref_store)
        assert len(ref) == n

        # crash after k of n tasks, then reopen and resume (a real crash
        # drops the write lock with the process; simulate that close)
        k = 2
        store = ResultStore.create(tmp_path / "crash", spec)
        progress = CampaignRunner(spec, store).run(max_tasks=k)
        store.close()
        assert progress.ran == k
        reopened = ResultStore.open(tmp_path / "crash")
        assert len(reopened.completed_ids()) == k
        progress = CampaignRunner(spec, reopened).run()
        assert progress.skipped == k          # completed ids are skipped
        assert progress.ran == n - k          # only the remainder runs
        assert energies(reopened) == ref      # same seeds -> same numbers

        # a further resume is a no-op
        progress = CampaignRunner(spec, reopened).run()
        assert progress.ran == 0 and progress.skipped == n

    def test_resumed_aggregate_equals_uninterrupted(self, tmp_path):
        spec = tiny_spec()
        ref_store = ResultStore.create(tmp_path / "ref", spec)
        CampaignRunner(spec, ref_store).run()

        store = ResultStore.create(tmp_path / "crash", spec)
        CampaignRunner(spec, store).run(max_tasks=3)
        store = ResultStore.open(tmp_path / "crash")
        CampaignRunner(spec, store).run()

        ref_rows = CampaignAggregate.from_store(ref_store).rows
        rows = CampaignAggregate.from_store(store).rows
        # identical figure data modulo wall time
        for row, ref_row in zip(rows, ref_rows, strict=True):
            row.pop("seconds"), ref_row.pop("seconds")
            assert row == ref_row

    def test_sharded_run_matches_serial(self, tmp_path):
        # >= 12-task grid sharded over 4 workers (engines stay serial
        # inside tasks, so numbers are bit-identical to the serial run)
        spec = tiny_spec(seeds=[0, 1, 2])
        assert spec.num_tasks == 12
        serial_store = ResultStore.create(tmp_path / "serial", spec)
        CampaignRunner(spec, serial_store).run()
        with ThreadExecutor(4) as executor:
            sharded_store = ResultStore.create(tmp_path / "sharded", spec)
            CampaignRunner(spec, sharded_store, executor=executor).run()
        assert energies(sharded_store) == energies(serial_store)

    def test_failed_tasks_recorded_and_retried(self, tmp_path):
        spec = tiny_spec(benchmarks=["bogus_bench"])
        store = ResultStore.create(tmp_path / "s", spec)
        progress = CampaignRunner(spec, store).run()
        assert progress.failed == progress.ran == spec.num_tasks
        assert "bogus_bench" in store.record(
            progress.failed_ids[0])["error"]
        # failed cells rerun by default, are skippable via retry_failed
        progress = CampaignRunner(spec, store).run(retry_failed=False)
        assert progress.ran == 0


class TestRetryPolicy:
    def test_backoff_schedule_is_pure_arithmetic(self):
        policy = RetryPolicy(max_attempts=5, backoff_base=0.5,
                             backoff_factor=2.0, backoff_max=3.0)
        assert [policy.delay(a) for a in (1, 2, 3, 4, 5, 6)] == \
               [0.0, 0.5, 1.0, 2.0, 3.0, 3.0]  # capped at backoff_max
        assert not policy.exhausted(4) and policy.exhausted(5)

    def test_rejects_nonsense_parameters(self):
        with pytest.raises(ValueError, match="max_attempts"):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError, match="delays"):
            RetryPolicy(backoff_base=-1.0)
        with pytest.raises(ValueError, match="factor"):
            RetryPolicy(backoff_factor=0.5)

    def test_runner_retries_until_exhausted(self, tmp_path):
        spec = tiny_spec(benchmarks=["bogus_bench"])  # every task fails
        n = spec.num_tasks
        store = ResultStore.create(tmp_path / "s", spec)
        progress = CampaignRunner(spec, store).run(
            retry=RetryPolicy(max_attempts=3, backoff_base=0.0))
        assert progress.ran == 3 * n       # three rounds of executions
        assert progress.retried == 2 * n   # rounds two and three
        assert progress.failed == n        # still failed at the end
        assert progress.completed == 0     # no cell ever succeeded
        for tid in progress.failed_ids:
            assert store.attempts(tid) == 3
            assert store.record(tid)["attempt"] == 3

    def test_retry_stamps_deterministic_backoff(self, tmp_path):
        spec = tiny_spec(benchmarks=["bogus_bench"], methods=["clapton"])
        store = ResultStore.create(tmp_path / "s", spec)
        policy = RetryPolicy(max_attempts=2, backoff_base=0.01)
        CampaignRunner(spec, store).run(retry=policy)
        for record in store.records():
            # the stamped delay is the policy's arithmetic, not wall time
            assert record["attempt"] == 2
            assert record["backoff_seconds"] == policy.delay(2) == 0.01

    def test_successful_run_stamps_attempt_one(self, tmp_path):
        spec = tiny_spec(methods=["clapton"], noise_scales=[1.0])
        store = ResultStore.create(tmp_path / "s", spec)
        CampaignRunner(spec, store).run(
            retry=RetryPolicy(max_attempts=3))
        for record in store.records():
            assert record["attempt"] == 1
            assert record["backoff_seconds"] == 0.0


class TestAggregateReport:
    @pytest.fixture(scope="class")
    def completed_store(self, tmp_path_factory):
        spec = tiny_spec(seeds=[0, 1])
        store = ResultStore.create(
            tmp_path_factory.mktemp("agg") / "s", spec)
        CampaignRunner(spec, store).run()
        return store

    def test_rows_cover_grid(self, completed_store):
        aggregate = CampaignAggregate.from_store(completed_store)
        assert len(aggregate.rows) == completed_store.spec.num_tasks
        row = aggregate.rows[0]
        assert row["benchmark"] == "ising_J1.00"
        assert row["setting"] == "noise_x1"
        assert np.isfinite(row["device_model"])
        from repro.hamiltonians import ground_state_energy

        assert row["e0"] == pytest.approx(
            ground_state_energy(ising_model(3, 1.0)))

    def test_eta_rows_join_methods(self, completed_store):
        aggregate = CampaignAggregate.from_store(completed_store)
        etas = aggregate.eta_rows("ncafqa")
        assert len(etas) == 4  # 2 settings x 2 seeds
        assert all(np.isfinite(e["eta"]) and e["eta"] > 0 for e in etas)

    def test_eta_summary_aggregates_seeds(self, completed_store):
        aggregate = CampaignAggregate.from_store(completed_store)
        summary = aggregate.eta_summary("ncafqa")
        assert len(summary) == 2  # one per setting
        assert all(s["num_seeds"] == 2 for s in summary)

    def test_csv_round_trip(self, completed_store, tmp_path):
        import csv

        aggregate = CampaignAggregate.from_store(completed_store)
        path = tmp_path / "rows.csv"
        aggregate.write_csv(path)
        with open(path) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == len(aggregate.rows)
        assert float(rows[0]["device_model"]) == pytest.approx(
            aggregate.rows[0]["device_model"])

    def test_report_contains_figure_tables(self, completed_store):
        report = render_report(completed_store)
        assert "# Campaign report: tiny" in report
        assert "8/8 done" in report
        assert "## Three-tier energies" in report
        assert "eta(clapton vs ncafqa)" in report
        assert "noise_x2" in report

    def test_report_on_empty_store(self, tmp_path):
        store = ResultStore.create(tmp_path / "s", tiny_spec())
        assert "No completed tasks yet" in render_report(store)


class TestLegacySweepWrapper:
    def make_inputs(self):
        h = ising_model(3, 1.0)
        models = [NoiseModel.uniform(3, depol_1q=p, depol_2q=10 * p,
                                     readout=0.02, t1=100e-6)
                  for p in (1e-3, 3e-3)]
        return h, models

    def test_failing_cell_raises_with_original_error(self):
        h, _ = self.make_inputs()
        wrong_width = [NoiseModel.uniform(5, depol_1q=1e-3)]
        with pytest.raises(RuntimeError, match="noise model width"):
            sweep_relative_improvement(h, wrong_width, config=TINY)

    def test_numbers_identical_to_direct_experiments(self):
        from repro.experiments import Experiment
        from repro.hamiltonians import ground_state_energy

        h, models = self.make_inputs()
        e0 = ground_state_energy(h)
        expected = []
        for nm in models:
            result = Experiment(h, noise_model=nm, e0=e0).run(
                ("ncafqa", "clapton"), config=TINY)
            expected.append(result.eta_initial("ncafqa",
                                               tier="device_model"))
        etas = sweep_relative_improvement(h, models, config=TINY)
        assert etas == expected


class TestExplicitTasks:
    def test_task_with_explicit_hamiltonian_and_backend(self, tmp_path):
        from repro.paulis.serialization import pauli_sum_to_dict

        h = ising_model(3, 0.5)
        task = TaskSpec(benchmark="custom", num_qubits=3, method="cafqa",
                        seed=0, setting={"kind": "backend",
                                         "backend": "nairobi"},
                        engine=engine_to_dict(TINY),
                        hamiltonian=pauli_sum_to_dict(h))
        result = task.run()
        assert result["benchmark"] == "custom"
        assert np.isfinite(
            result["runs"]["cafqa"]["evaluation"]["device_model"])

    def test_unknown_backend_rejected(self):
        task = TaskSpec(benchmark="ising_J1.00", num_qubits=3,
                        method="cafqa", seed=0,
                        setting={"kind": "backend", "backend": "bogus"},
                        engine=engine_to_dict(TINY))
        with pytest.raises(ValueError, match="unknown backend"):
            task.build_experiment()
