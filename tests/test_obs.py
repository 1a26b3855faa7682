"""Tests for the observability layer: spans, metrics, summary, wiring.

The acceptance-critical behaviors: traced runs are bit-identical to
untraced runs (observability never touches RNG streams or record
contents); ``repro sweep --trace`` produces a trace whose summary
accounts for >=95% of wall-clock; ``GET /metrics`` serves valid
Prometheus text with lease/task/cache counters; and MemoizedLoss
statistics reach ``SearchResult.cache_stats`` and survive a campaign task
run in a ProcessExecutor worker.
"""

import json
import threading
import time
import urllib.request
from pathlib import Path

import numpy as np
import pytest

from repro.campaigns import CampaignSpec, ResultStore
from repro.campaigns.runner import execute_task
from repro.campaigns.service import CampaignScheduler, start_server
from repro.campaigns.service.state import ServiceState
from repro.cli import main
from repro.execution import ProcessExecutor, ThreadExecutor
from repro.obs import (
    REGISTRY,
    JsonlTracer,
    MetricRegistry,
    RecordingTracer,
    bucket_of,
    get_tracer,
    render_prometheus,
    render_summary,
    summarize,
    summarize_spans,
    use_tracer,
)
from repro.obs.tracer import NULL_SPAN
from repro.optim import EngineConfig
from repro.search import get_strategy

TINY_OVERRIDES = {"num_instances": 2, "generations_per_round": 6,
                  "top_k": 3, "population_size": 10, "retry_rounds": 0}
TINY = EngineConfig(seed=0, **TINY_OVERRIDES)

#: Run-specific record fields (wall clock, provenance); the rest of a
#: record -- including cache_stats -- must be identical however (and
#: whether) a run was observed.
VOLATILE = {"seconds", "engine_seconds", "total_seconds",
            "duration_seconds", "worker_id"}


def quad_loss(genome) -> float:
    """Cheap synthetic loss with a unique minimum at all-ones."""
    g = np.asarray(genome, dtype=float)
    return float(np.sum((g - 1.0) ** 2) + 0.1 * g[0])


def strip_volatile(obj):
    if isinstance(obj, dict):
        return {k: strip_volatile(v) for k, v in obj.items()
                if k not in VOLATILE}
    if isinstance(obj, list):
        return [strip_volatile(v) for v in obj]
    return obj


def tiny_spec(**kwargs) -> CampaignSpec:
    defaults = dict(name="obs", benchmarks=["ising_J1.00"],
                    qubit_sizes=[3], noise_scales=[1.0],
                    methods=["ncafqa", "clapton"], seeds=[0, 1],
                    engine_preset="smoke",
                    engine_overrides={"num_instances": 1,
                                      "generations_per_round": 6,
                                      "top_k": 3, "population_size": 10,
                                      "retry_rounds": 0})
    defaults.update(kwargs)
    return CampaignSpec(**defaults)


class FakeClock:
    def __init__(self, now: float = 1000.0):
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def fake_record(task, status="done"):
    return {"task_id": task.task_id, "status": status, "seconds": 0.0,
            "task": task.to_dict(),
            "result": {"ok": True} if status == "done" else None,
            "error": None if status == "done" else "boom"}


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
class TestMetrics:
    def test_counter_inc_value_total(self):
        reg = MetricRegistry()
        c = reg.counter("t_total", "help text")
        c.inc()
        c.inc(2, method="clapton")
        assert c.value() == 1
        assert c.value(method="clapton") == 2
        assert c.total() == 3

    def test_counter_rejects_negative(self):
        c = MetricRegistry().counter("t_total")
        with pytest.raises(ValueError, match="only go up"):
            c.inc(-1)

    def test_gauge_set_inc_dec(self):
        g = MetricRegistry().gauge("t_gauge")
        g.set(5, state="done")
        g.inc(2, state="done")
        g.dec(3, state="done")
        assert g.value(state="done") == 4

    def test_histogram_buckets_cumulative(self):
        h = MetricRegistry().histogram("t_seconds", buckets=(0.1, 1.0))
        for v in (0.05, 0.5, 0.7, 5.0):
            h.observe(v)
        assert h.count() == 4
        assert h.sum() == pytest.approx(6.25)
        lines = h._render()
        assert 't_seconds_bucket{le="0.1"} 1' in lines
        assert 't_seconds_bucket{le="1"} 3' in lines
        assert 't_seconds_bucket{le="+Inf"} 4' in lines
        assert "t_seconds_count 4" in lines

    def test_registry_idempotent_and_type_checked(self):
        reg = MetricRegistry()
        a = reg.counter("x_total", "first")
        b = reg.counter("x_total", "second wins nothing")
        assert a is b
        with pytest.raises(ValueError, match="already registered"):
            reg.gauge("x_total")
        with pytest.raises(ValueError, match="invalid metric name"):
            reg.counter("bad-name")

    def test_prometheus_rendering(self):
        reg = MetricRegistry()
        c = reg.counter("a_total", "things counted")
        c.inc(3, kind='we"ird')
        reg.gauge("b_gauge").set(1.5)
        text = render_prometheus(reg)
        assert "# HELP a_total things counted" in text
        assert "# TYPE a_total counter" in text
        assert 'a_total{kind="we\\"ird"} 3' in text
        assert "# TYPE b_gauge gauge" in text
        assert "b_gauge 1.5" in text
        assert text.endswith("\n")

    def test_unused_family_renders_zero_sample(self):
        reg = MetricRegistry()
        reg.counter("never_total")
        assert "never_total 0" in render_prometheus(reg)


# ----------------------------------------------------------------------
# Tracer
# ----------------------------------------------------------------------
class TestTracer:
    def test_default_is_shared_noop(self):
        tracer = get_tracer()
        assert not tracer.enabled
        assert tracer.span("x", a=1) is NULL_SPAN
        with tracer.span("x") as span:
            assert span.tag(b=2) is span  # chainable no-op

    def test_span_nesting_links_parents(self):
        tracer = RecordingTracer()
        with tracer.span("root"):
            with tracer.span("child"):
                with tracer.span("grandchild"):
                    pass
            with tracer.span("sibling"):
                pass
        by_name = {s["name"]: s for s in tracer.spans}
        assert by_name["root"]["parent"] is None
        assert by_name["child"]["parent"] == by_name["root"]["id"]
        assert by_name["grandchild"]["parent"] == by_name["child"]["id"]
        assert by_name["sibling"]["parent"] == by_name["root"]["id"]

    def test_threads_get_independent_stacks(self):
        tracer = RecordingTracer()
        barrier = threading.Barrier(2)

        def work(name):
            with tracer.span(name):
                barrier.wait()  # both spans open simultaneously

        threads = [threading.Thread(target=work, args=(f"t{i}",))
                   for i in range(2)]
        with tracer.span("main-root"):
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        by_name = {s["name"]: s for s in tracer.spans}
        # worker-thread spans are roots of their own threads, never
        # children of another thread's open span
        assert by_name["t0"]["parent"] is None
        assert by_name["t1"]["parent"] is None
        assert by_name["t0"]["thread"] != by_name["main-root"]["thread"]

    def test_event_is_finished_child(self):
        tracer = RecordingTracer()
        with tracer.span("parent"):
            tracer.event("worker.heartbeat", 0.25, batch=16)
        by_name = {s["name"]: s for s in tracer.spans}
        event = by_name["worker.heartbeat"]
        assert event["parent"] == by_name["parent"]["id"]
        assert event["dur"] == pytest.approx(0.25)
        assert event["tags"] == {"batch": 16}

    def test_span_tags_become_jsonable(self):
        tracer = RecordingTracer()
        with tracer.span("x", batch=np.int64(7), q=np.float64(1.5),
                         label="clapton", obj=Path("p")):
            pass
        tags = tracer.spans[0]["tags"]
        assert tags == {"batch": 7, "q": 1.5, "label": "clapton",
                        "obj": "p"}
        assert json.dumps(tags)  # round-trips

    def test_jsonl_tracer_writes_meta_then_spans(self, tmp_path):
        path = tmp_path / "deep" / "trace.jsonl"
        with use_tracer(JsonlTracer(path)):
            with get_tracer().span("a"):
                pass
        lines = [json.loads(l) for l in path.read_text().splitlines()]
        assert lines[0]["kind"] == "meta"
        assert lines[0]["clock"] == "perf_counter"
        assert lines[1]["name"] == "a" and lines[1]["dur"] >= 0

    def test_use_tracer_restores_previous(self):
        before = get_tracer()
        with use_tracer(RecordingTracer()) as tracer:
            assert get_tracer() is tracer
        assert get_tracer() is before


# ----------------------------------------------------------------------
# Summary
# ----------------------------------------------------------------------
def _span(sid, name, start, dur, parent=None):
    return {"kind": "span", "id": sid, "name": name, "start": start,
            "dur": dur, "parent": parent, "thread": "t"}


class TestSummary:
    def test_bucket_classification(self):
        assert bucket_of("loss.evaluate_many") == "loss_eval"
        assert bucket_of("worker.idle") == "idle"
        assert bucket_of("engine.round") == "orchestration"

    def test_self_time_partition(self):
        spans = [_span(1, "cli.sweep", 0.0, 10.0),
                 _span(2, "loss.evaluate_many", 1.0, 6.0, parent=1),
                 _span(3, "campaign.backoff_idle", 8.0, 2.0, parent=1)]
        summary = summarize_spans(spans)
        assert summary.wall_seconds == pytest.approx(10.0)
        assert summary.buckets["loss_eval"] == pytest.approx(6.0)
        assert summary.buckets["idle"] == pytest.approx(2.0)
        assert summary.buckets["orchestration"] == pytest.approx(2.0)
        assert summary.coverage == pytest.approx(1.0)

    def test_tree_aggregates_by_name_path(self):
        spans = [_span(1, "root", 0.0, 4.0),
                 _span(2, "work", 0.0, 1.0, parent=1),
                 _span(3, "work", 1.0, 2.0, parent=1)]
        summary = summarize_spans(spans)
        assert len(summary.roots) == 1
        (work,) = summary.roots[0].children
        assert work.count == 2
        assert work.total == pytest.approx(3.0)

    def test_render_and_to_dict(self):
        spans = [_span(1, "cli.run", 0.0, 2.0),
                 _span(2, "loss.evaluate_many", 0.5, 1.0, parent=1)]
        summary = summarize_spans(spans)
        text = render_summary(summary)
        assert "loss evaluation" in text and "accounted" in text
        assert "cli.run" in text and "loss.evaluate_many" in text
        payload = summary.to_dict()
        assert payload["num_spans"] == 2
        assert payload["tree"][0]["path"] == "cli.run"
        json.dumps(payload)  # JSON-clean

    def test_loss_faults_per_batch(self):
        spans = [_span(1, "cli.run", 0.0, 4.0)]
        for sid, (loss, faults) in enumerate(
                [("clapton", 3), ("clapton", 5), ("ncafqa", 40)], start=2):
            span = _span(sid, "loss.evaluate_many", sid - 2.0, 1.0,
                         parent=1)
            span["tags"] = {"loss": loss, "batch": 100,
                            "minor_faults": faults}
            spans.append(span)
        # a batch traced before the tag existed is left out
        spans.append(_span(9, "loss.evaluate_many", 3.0, 0.5, parent=1))
        summary = summarize_spans(spans)
        assert summary.faults == {
            "clapton": {"batches": 2, "minor_faults": 8},
            "ncafqa": {"batches": 1, "minor_faults": 40}}
        text = render_summary(summary)
        assert "page faults per loss batch" in text
        assert any(line.split()[:4] == ["clapton", "2", "8", "4.0"]
                   for line in text.splitlines())
        payload = summary.to_dict()
        assert payload["loss_faults"]["clapton"]["per_batch"] == 4.0
        assert payload["loss_faults"]["ncafqa"]["minor_faults"] == 40
        assert "loss_faults" not in summarize_spans(spans[:1]).to_dict()


# ----------------------------------------------------------------------
# Instrumentation wiring (engine / search / cache stats)
# ----------------------------------------------------------------------
class TestInstrumentation:
    def test_engine_emits_round_and_loss_spans(self):
        with use_tracer(RecordingTracer()) as tracer:
            get_strategy("multi_ga").minimize(quad_loss, 8, config=TINY)
        names = {s["name"] for s in tracer.spans}
        assert {"search.minimize", "engine.round"} <= names
        rounds = [s for s in tracer.spans if s["name"] == "engine.round"]
        assert all(s["tags"]["evaluations"] > 0 for s in rounds)

    @pytest.mark.parametrize("name", ("annealing", "tabu",
                                      "restart_climb"))
    def test_strategies_emit_round_spans(self, name):
        with use_tracer(RecordingTracer()) as tracer:
            result = get_strategy(name).minimize(quad_loss, 8,
                                                 config=TINY)
        names = [s["name"] for s in tracer.spans]
        assert "search.minimize" in names
        assert names.count("search.round") >= 1
        assert result.cache_stats is not None
        assert result.cache_stats["hits"] + result.cache_stats["misses"] \
            > 0

    def test_tracing_does_not_perturb_search(self):
        plain = get_strategy("multi_ga").minimize(quad_loss, 8,
                                                  config=TINY)
        with use_tracer(RecordingTracer()):
            traced = get_strategy("multi_ga").minimize(quad_loss, 8,
                                                       config=TINY)
        assert np.array_equal(plain.best_genome, traced.best_genome)
        assert plain.best_loss == traced.best_loss
        assert plain.num_evaluations == traced.num_evaluations
        assert plain.cache_stats == traced.cache_stats

    def test_cache_stats_reach_search_result(self):
        result = get_strategy("multi_ga").minimize(quad_loss, 8,
                                                   config=TINY)
        assert result.cache_stats is not None
        assert result.cache_stats["hits"] > 0
        assert result.cache_stats["misses"] == result.num_evaluations

    def test_cache_stats_survive_process_executor(self):
        """A campaign task run in a pool process ships its search's memo
        accounting back in the record, equal to an inline run's."""
        task = tiny_spec(methods=["clapton"], seeds=[0]).tasks()[0]
        serial = execute_task(task.to_dict())
        with ProcessExecutor(2) as executor:
            [child] = executor.map(execute_task, [task.to_dict()])
        stats = child["result"]["runs"]["clapton"]["cache_stats"]
        assert stats["hits"] > 0 and stats["misses"] > 0
        assert stats == serial["result"]["runs"]["clapton"]["cache_stats"]

    def test_thread_executor_shards_keep_stats(self):
        """Campaign tasks sharded over threads keep their own memo
        accounting: the records equal a serial run's."""
        tasks = [t.to_dict() for t in tiny_spec().tasks()]
        serial = [execute_task(t) for t in tasks]
        with ThreadExecutor(2) as executor:
            threaded = executor.map(execute_task, tasks)
        assert ([strip_volatile(r) for r in threaded]
                == [strip_volatile(r) for r in serial])

    def test_loss_spans_carry_minor_faults(self):
        """Traced, every loss batch's span carries its page faults;
        untraced, the batch runs through the no-op span."""
        from repro.core import VQEProblem
        from repro.core.loss import CafqaLoss, ClaptonLoss
        from repro.hamiltonians import ising_model
        from repro.noise import NoiseModel

        problem = VQEProblem.logical(ising_model(4, 1.0),
                                     NoiseModel.uniform(4))
        rng = np.random.default_rng(1)
        losses = [(ClaptonLoss(problem),
                   problem.num_transformation_parameters),
                  (CafqaLoss(problem), 16),
                  (CafqaLoss(problem, noise_aware=True), 16)]
        batches = [rng.integers(0, 4, size=(6, d)) for _, d in losses]
        with use_tracer(RecordingTracer()) as tracer:
            traced = [loss.evaluate_many(g)
                      for (loss, _), g in zip(losses, batches)]
        spans = [s for s in tracer.spans
                 if s["name"] == "loss.evaluate_many"]
        assert [s["tags"]["loss"] for s in spans] \
            == ["clapton", "cafqa", "ncafqa"]
        for span in spans:
            faults = span["tags"]["minor_faults"]
            assert isinstance(faults, int) and faults >= 0
        assert get_tracer().span("loss.evaluate_many") is NULL_SPAN
        for (loss, _), g, values in zip(losses, batches, traced):
            np.testing.assert_array_equal(loss.evaluate_many(g), values)

    def test_loss_batch_counters_increment(self):
        batches = REGISTRY.get("repro_loss_batches_total")
        evals = REGISTRY.get("repro_loss_evaluations_total")
        assert batches is not None and evals is not None
        from repro.backends import ALL_BACKENDS
        from repro.core import VQEProblem
        from repro.core.loss import ClaptonLoss
        from repro.hamiltonians import ising_model
        from repro.noise import NoiseModel

        h = ising_model(3, 1.0)
        nm = NoiseModel.uniform(3, depol_1q=1e-3, depol_2q=1e-2,
                                readout=0.02, t1=80e-6)
        problem = VQEProblem.logical(h, noise_model=nm)
        loss = ClaptonLoss(problem)
        before_b, before_e = batches.total(), evals.total()
        rng = np.random.default_rng(0)
        gammas = rng.integers(
            0, 4, size=(5, problem.num_transformation_parameters))
        loss.evaluate_many(gammas)
        assert batches.total() == before_b + 1
        assert evals.total() == before_e + 5


# ----------------------------------------------------------------------
# Golden bit-identity: tracing on == tracing off
# ----------------------------------------------------------------------
class TestBitIdentity:
    def test_task_records_identical_with_tracing(self, tmp_path):
        task = tiny_spec(methods=["clapton"], seeds=[0]).tasks()[0]
        plain = execute_task(task.to_dict())
        with use_tracer(JsonlTracer(tmp_path / "trace.jsonl")) as tracer:
            traced = execute_task(task.to_dict())
        assert strip_volatile(plain) == strip_volatile(traced)
        # and the trace really recorded the work
        spans = [json.loads(l)
                 for l in (tmp_path / "trace.jsonl").read_text()
                 .splitlines()][1:]
        assert any(s["name"] == "loss.evaluate_many" for s in spans)

    def test_cache_stats_in_task_records_are_deterministic(self):
        task = tiny_spec(methods=["clapton"], seeds=[0]).tasks()[0]
        first = execute_task(task.to_dict())
        second = execute_task(task.to_dict())
        stats = first["result"]["runs"]["clapton"]["cache_stats"]
        assert stats is not None and stats["misses"] > 0
        assert stats == second["result"]["runs"]["clapton"]["cache_stats"]


# ----------------------------------------------------------------------
# Scheduler throughput / ETA
# ----------------------------------------------------------------------
class TestSchedulerThroughput:
    def drive(self, tmp_path, clock, advance):
        spec = tiny_spec()
        store = ResultStore.create(tmp_path / "store", spec)
        scheduler = CampaignScheduler(spec, store, clock=clock)
        for _ in range(3):  # 3 of 4 tasks
            task, _lease = scheduler.next_task("w0")
            clock.advance(advance) if advance else None
            scheduler.report("w0", fake_record(task))
        return scheduler

    def test_rate_and_eta_from_completion_window(self, tmp_path):
        clock = FakeClock()
        scheduler = self.drive(tmp_path, clock, advance=2.0)
        counts = scheduler.counts()
        assert counts["tasks_per_second"] == pytest.approx(0.5)
        assert counts["pending"] == 1
        assert counts["eta_seconds"] == pytest.approx(2.0)
        scheduler.close()

    def test_frozen_clock_yields_unknown_rate(self, tmp_path):
        clock = FakeClock()
        scheduler = self.drive(tmp_path, clock, advance=0.0)
        counts = scheduler.counts()
        assert counts["tasks_per_second"] is None
        assert counts["eta_seconds"] is None
        scheduler.close()

    def test_eta_zero_when_nothing_pending(self, tmp_path):
        clock = FakeClock()
        spec = tiny_spec(methods=["clapton"], seeds=[0])
        store = ResultStore.create(tmp_path / "store", spec)
        scheduler = CampaignScheduler(spec, store, clock=clock)
        task, _ = scheduler.next_task("w0")
        scheduler.report("w0", fake_record(task))
        assert scheduler.counts()["eta_seconds"] == 0.0
        scheduler.close()


# ----------------------------------------------------------------------
# Service surface: /metrics, /healthz, status CLI
# ----------------------------------------------------------------------
@pytest.fixture()
def live_service(tmp_path):
    state = ServiceState(root=tmp_path / "root")
    campaign, _ = state.submit(tiny_spec())
    # complete the whole grid with synthetic records (no engines)
    while (grant := campaign.scheduler.next_task("w0")) is not None:
        task, _lease = grant
        campaign.scheduler.report("w0", fake_record(task))
    server = start_server(state)
    yield server, campaign
    server.stop()


class TestServiceSurface:
    def test_metrics_endpoint_prometheus(self, live_service):
        server, campaign = live_service
        resp = urllib.request.urlopen(server.url + "/metrics",
                                      timeout=10)
        assert resp.headers["Content-Type"].startswith(
            "text/plain; version=0.0.4")
        text = resp.read().decode()
        for family in ("repro_lease_grants_total",
                       "repro_tasks_completed_total",
                       "repro_cache_hits_total",
                       "repro_task_seconds",
                       "repro_uptime_seconds"):
            assert f"# TYPE {family}" in text, family
        # per-campaign gauge is exact (not polluted by other tests)
        assert (f'repro_campaign_tasks{{campaign="{campaign.id}",'
                f'state="done"}} 4') in text

    def test_healthz_counters_and_uptime(self, live_service):
        server, _ = live_service
        payload = json.loads(urllib.request.urlopen(
            server.url + "/healthz", timeout=10).read().decode())
        assert payload["status"] == "ok"
        assert payload["uptime_seconds"] >= 0
        assert payload["counters"]["lease_grants"] >= 4
        assert payload["counters"]["tasks_completed"] >= 4

    def test_metrics_cli_scraper(self, live_service, capsys):
        server, _ = live_service
        assert main(["metrics", "--connect", server.url]) == 0
        out = capsys.readouterr().out
        assert "# TYPE repro_tasks_completed_total counter" in out
        assert main(["metrics", "--connect", server.url,
                     "--name", "repro_lease_grants_total"]) == 0
        out = capsys.readouterr().out
        assert "repro_lease_grants_total" in out
        assert "repro_task_seconds" not in out

    def test_status_connect_snapshot(self, live_service, capsys):
        server, campaign = live_service
        assert main(["status", "--connect", server.url]) == 0
        out = capsys.readouterr().out
        assert campaign.id in out
        assert "4/4 done" in out and "eta" in out

    def test_status_connect_watch_stream(self, live_service, capsys):
        server, campaign = live_service
        assert main(["status", "--connect", server.url, "--watch",
                     "--campaign", campaign.id]) == 0
        out = capsys.readouterr().out
        assert "4/4 done" in out

    def test_status_connect_watch_poll(self, live_service, capsys):
        server, _ = live_service
        assert main(["status", "--connect", server.url, "--watch",
                     "--no-stream", "--interval", "0.05"]) == 0
        out = capsys.readouterr().out
        assert "4/4 done" in out

    def test_status_requires_store_or_connect(self, capsys):
        assert main(["status"]) == 2
        assert "--connect" in capsys.readouterr().err

    def test_status_connect_unknown_campaign(self, live_service, capsys):
        server, _ = live_service
        assert main(["status", "--connect", server.url,
                     "--campaign", "nope"]) == 2
        assert "rejected" in capsys.readouterr().err


# ----------------------------------------------------------------------
# End to end: sweep --trace -> trace summary
# ----------------------------------------------------------------------
class TestSweepTraceEndToEnd:
    @pytest.fixture()
    def spec_path(self, tmp_path):
        path = tmp_path / "grid.json"
        path.write_text(json.dumps(
            tiny_spec(seeds=[0], name="trace-e2e").to_dict()))
        return path

    def test_sweep_trace_summary_accounts_wall_clock(self, spec_path,
                                                     capsys):
        store = spec_path.with_suffix(".campaign")
        assert main(["sweep", str(spec_path), "--trace"]) == 0
        out = capsys.readouterr().out
        trace_path = store / "trace.jsonl"
        assert f"trace written to {trace_path}" in out
        assert trace_path.exists()

        summary = summarize(trace_path)
        assert summary.num_spans > 0
        assert summary.roots[0].name == "cli.sweep"
        # acceptance bar: loss-eval + orchestration + idle account for
        # >= 95% of the sweep's wall-clock
        assert summary.coverage >= 0.95
        assert summary.buckets["loss_eval"] > 0

        # cache stats landed in the campaign records
        store_obj = ResultStore.open(store)
        record = store_obj.records()[0]
        method = record["task"]["method"]
        stats = record["result"]["runs"][method]["cache_stats"]
        assert stats["hits"] >= 0 and stats["misses"] > 0
        store_obj.close()

        assert main(["trace", "summary", str(trace_path)]) == 0
        out = capsys.readouterr().out
        assert "loss evaluation" in out and "cli.sweep" in out
        assert main(["trace", "summary", str(trace_path),
                     "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["coverage"] >= 0.95

    def test_trace_summary_rejects_missing_file(self, tmp_path, capsys):
        assert main(["trace", "summary",
                     str(tmp_path / "nope.jsonl")]) == 2
        assert "cannot read trace" in capsys.readouterr().err

    def test_explicit_trace_path(self, spec_path, tmp_path, capsys):
        target = tmp_path / "custom" / "t.jsonl"
        assert main(["sweep", str(spec_path), "--store",
                     str(tmp_path / "s.campaign"), "--trace",
                     str(target)]) == 0
        assert target.exists()
        assert summarize(target).num_spans > 0
