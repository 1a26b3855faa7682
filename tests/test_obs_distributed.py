"""Tests for the distributed half of ``repro.obs``.

Trace-context propagation (scheduler -> lease -> worker span tags),
span shipping and the server-side merge into one per-campaign
``trace.jsonl``, kernel counters, the Chrome-trace exporter, and the
``repro bench compare`` perf-regression gate.  The Prometheus text
renderer's edge cases (+Inf buckets, label escaping) get a strict
line-format checker here because ``GET /metrics`` is scraped by real
collectors that reject malformed exposition.
"""

import json
import math
import re
import time
import urllib.error
import urllib.request
from pathlib import Path

import pytest

from repro.campaigns import CampaignSpec
from repro.campaigns.service import (
    HttpSchedulerClient,
    LocalSchedulerClient,
    ServiceState,
    run_worker,
    start_server,
)
from repro.cli import main
from repro.obs import (
    KERNEL,
    Histogram,
    MetricRegistry,
    RecordingTracer,
    ShippingTracer,
    TraceContext,
    build_info,
    compare,
    export_chrome_trace,
    flatten_numeric,
    new_trace_id,
    parse_tolerance,
    parse_trace_lines,
    publish_kernel_metrics,
    render_prometheus,
    summarize_spans,
    to_chrome_trace,
    use_tracer,
)

TINY_OVERRIDES = {"num_instances": 1, "generations_per_round": 6,
                  "top_k": 3, "population_size": 10, "retry_rounds": 0}


def tiny_spec(**kwargs) -> dict:
    defaults = dict(name="obsd", benchmarks=["ising_J1.00"],
                    qubit_sizes=[3], noise_scales=[1.0],
                    methods=["clapton"], seeds=[0],
                    engine_preset="smoke",
                    engine_overrides=TINY_OVERRIDES)
    defaults.update(kwargs)
    return CampaignSpec(**defaults).to_dict()


def interval_coverage(spans: list[dict]) -> float:
    """Fraction of [first start, last end] covered by the span union."""
    intervals = sorted((s["start"], s["start"] + s["dur"]) for s in spans)
    wall = max(b for _, b in intervals) - intervals[0][0]
    if wall <= 0:
        return 1.0
    covered, (cur_a, cur_b) = 0.0, intervals[0]
    for a, b in intervals[1:]:
        if a > cur_b:
            covered += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    covered += cur_b - cur_a
    return covered / wall


# ----------------------------------------------------------------------
# TraceContext
# ----------------------------------------------------------------------
class TestTraceContext:
    def test_round_trip(self):
        ctx = TraceContext(trace_id=new_trace_id(), parent_span=7,
                           campaign="c-1", task_id="t1", worker="w0")
        assert TraceContext.from_dict(ctx.to_dict()) == ctx

    def test_to_dict_omits_empty_fields(self):
        wire = TraceContext(trace_id="abcd" * 4).to_dict()
        assert wire == {"trace_id": "abcd" * 4}

    @pytest.mark.parametrize("payload", [
        None, {}, {"campaign": "c"}, "nope", 42, ["trace_id"],
    ])
    def test_from_dict_tolerates_garbage(self, payload):
        assert TraceContext.from_dict(payload) is None

    def test_trace_ids_are_distinct_hex(self):
        ids = {new_trace_id() for _ in range(64)}
        assert len(ids) == 64
        assert all(re.fullmatch(r"[0-9a-f]{16}", t) for t in ids)


# ----------------------------------------------------------------------
# ShippingTracer
# ----------------------------------------------------------------------
class TestShippingTracer:
    def test_buffers_spans_and_batches(self):
        tracer = ShippingTracer()
        with tracer.span("worker.task", task_id="t1"):
            tracer.event("loss.shard", 0.01, batch=4)
        assert tracer.pending() == 2
        batch = tracer.batch("w0", "c-1")
        assert tracer.pending() == 0
        assert batch["worker_id"] == "w0" and batch["campaign"] == "c-1"
        assert {s["name"] for s in batch["spans"]} == {"worker.task",
                                                       "loss.shard"}
        # the anchor is wall-clock time of tracer construction, not a
        # perf_counter offset: the merge rebases span starts with it
        assert abs(batch["unix_t0"] - time.time()) < 60.0

    def test_requeue_preserves_order(self):
        tracer = ShippingTracer()
        tracer.event("a", 0.0)
        tracer.event("b", 0.0)
        first = tracer.drain()
        tracer.event("c", 0.0)
        tracer.requeue(first)
        assert [s["name"] for s in tracer.drain()] == ["a", "b", "c"]

    def test_passes_through_to_underlying(self):
        inner = RecordingTracer()
        tracer = ShippingTracer(inner)
        with tracer.span("worker.task"):
            pass
        assert tracer.pending() == 1
        assert [s["name"] for s in inner.spans] == ["worker.task"]


# ----------------------------------------------------------------------
# Kernel counters
# ----------------------------------------------------------------------
class TestKernelCounters:
    def test_snapshot_delta_add(self):
        before = KERNEL.snapshot()
        KERNEL.words += 10
        KERNEL.rows += 3
        delta = KERNEL.delta(before)
        assert delta["words"] == 10 and delta["rows"] == 3
        KERNEL.add({"words": 5})
        assert KERNEL.delta(before)["words"] == 15

    def test_packed_conjugation_advances_counters(self):
        from repro.circuits import Circuit
        from repro.stabilizer import CliffordTableau

        circ = Circuit(6)
        for q in range(6):
            circ.h(q)
        for q in range(5):
            circ.cx(q, q + 1)
        before = KERNEL.snapshot()
        CliffordTableau.from_circuit(circ)
        delta = KERNEL.delta(before)
        assert delta["words"] > 0 and delta["rows"] > 0

    def test_publish_is_monotonic_delta(self):
        from repro.obs import REGISTRY

        KERNEL.words += 7
        publish_kernel_metrics()
        first = REGISTRY.get("repro_kernel_words_total").total()
        publish_kernel_metrics()  # no new work: no double count
        assert REGISTRY.get("repro_kernel_words_total").total() == first
        KERNEL.words += 2
        publish_kernel_metrics()
        assert (REGISTRY.get("repro_kernel_words_total").total()
                == first + 2)


# ----------------------------------------------------------------------
# Collector: merge, rebase, namespacing, HTTP surface
# ----------------------------------------------------------------------
class TestCollector:
    def test_ingest_namespaces_and_rebases(self, tmp_path):
        state = ServiceState(root=tmp_path / "root")
        campaign, _ = state.submit(tiny_spec())
        t0 = time.time()
        accepted = campaign.ingest_spans("wA", t0 + 5.0, [
            {"kind": "span", "name": "worker.task", "start": 1.0,
             "dur": 0.5, "id": 1, "parent": None, "thread": "main",
             "tags": {}},
            {"kind": "span", "name": "loss.shard", "start": 1.1,
             "dur": 0.2, "id": 2, "parent": 1, "thread": "main",
             "tags": {}},
        ])
        assert accepted == 2
        meta, spans = parse_trace_lines(
            campaign.trace_text().splitlines())
        assert meta["merged"] and meta["campaign"] == campaign.id
        assert meta["trace_id"] == campaign.trace_id
        # the meta header is stamped for forensics (satellite a)
        info = build_info()
        assert meta["hostname"] == info["hostname"]
        assert meta["version"] == info["version"]
        child = next(s for s in spans if s["name"] == "loss.shard")
        assert child["id"] == "wA:2" and child["parent"] == "wA:1"
        assert child["worker"] == "wA"
        # rebased onto the campaign clock: anchor delta + local start
        parent = next(s for s in spans if s["name"] == "worker.task")
        shift = (t0 + 5.0) - meta["unix_t0"]
        assert parent["start"] == pytest.approx(1.0 + shift, abs=1e-6)
        state.close()

    def test_trace_survives_service_restart(self, tmp_path):
        state = ServiceState(root=tmp_path / "root")
        campaign, _ = state.submit(tiny_spec())
        campaign.ingest_spans("wA", time.time(), [
            {"kind": "span", "name": "a", "start": 0.0, "dur": 0.1,
             "id": 1, "parent": None, "thread": "main", "tags": {}}])
        trace_id = campaign.trace_id
        state.close()

        resumed = ServiceState(root=tmp_path / "root")
        campaign2, was_resumed = resumed.submit(tiny_spec())
        assert was_resumed
        campaign2.ingest_spans("wB", time.time(), [
            {"kind": "span", "name": "b", "start": 0.0, "dur": 0.1,
             "id": 1, "parent": None, "thread": "main", "tags": {}}])
        meta, spans = parse_trace_lines(
            campaign2.trace_text().splitlines())
        # ONE trace: same identity, spans from both service lifetimes
        assert meta["trace_id"] == trace_id
        assert {s["id"] for s in spans} == {"wA:1", "wB:1"}
        resumed.close()

    def test_http_trace_endpoints(self, tmp_path):
        state = ServiceState(root=tmp_path / "root")
        campaign, _ = state.submit(tiny_spec())
        server = start_server(state, port=0)
        try:
            url = f"{server.url}/trace?campaign={campaign.id}"
            with pytest.raises(urllib.error.HTTPError) as err:
                urllib.request.urlopen(url, timeout=10)
            assert err.value.code == 404  # nothing ingested yet

            batch = {"worker_id": "wA", "campaign": campaign.id,
                     "unix_t0": time.time(),
                     "spans": [{"kind": "span", "name": "worker.task",
                                "start": 0.0, "dur": 0.1, "id": 1,
                                "parent": None, "thread": "main",
                                "tags": {"campaign": campaign.id}}]}
            req = urllib.request.Request(
                f"{server.url}/traces",
                data=json.dumps(batch).encode(),
                headers={"Content-Type": "application/json"})
            with urllib.request.urlopen(req, timeout=10) as resp:
                ack = json.loads(resp.read())
            assert ack["accepted"] == 1 and ack["dropped"] == 0

            with urllib.request.urlopen(url, timeout=10) as resp:
                assert resp.headers["Content-Type"].startswith(
                    "application/x-ndjson")
                text = resp.read().decode()
            meta, spans = parse_trace_lines(text.splitlines())
            assert spans[0]["id"] == "wA:1"
        finally:
            server.stop()

    def test_unknown_campaign_spans_are_dropped(self, tmp_path):
        state = ServiceState(root=tmp_path / "root")
        state.submit(tiny_spec())
        ack = state.ingest_traces({
            "worker_id": "wA", "campaign": "no-such-campaign",
            "unix_t0": time.time(),
            "spans": [{"kind": "span", "name": "x", "start": 0.0,
                       "dur": 0.1, "id": 1, "parent": None,
                       "thread": "main", "tags": {}}]})
        assert ack == {"accepted": 0, "dropped": 1}
        state.close()


# ----------------------------------------------------------------------
# End to end: worker loop ships, merge is queryable and coherent
# ----------------------------------------------------------------------
class TestFleetTrace:
    def run_fleet(self, tmp_path, client_of):
        state = ServiceState(root=tmp_path / "root")
        campaign, _ = state.submit(tiny_spec(seeds=[0, 1]))
        server = start_server(state, port=0)
        try:
            executed = run_worker(client_of(state, server), "wE2E",
                                  exit_on_idle=True, poll_interval=0.01)
            assert executed == 2
            meta, spans = parse_trace_lines(
                campaign.trace_text().splitlines())
        finally:
            server.stop()
        return campaign, meta, spans

    @pytest.mark.parametrize("client_of", [
        lambda state, server: LocalSchedulerClient(state),
        lambda state, server: HttpSchedulerClient(server.url),
    ], ids=["local", "http"])
    def test_one_merged_trace_with_full_context(self, tmp_path,
                                                client_of):
        campaign, meta, spans = self.run_fleet(tmp_path, client_of)
        assert meta["trace_id"] == campaign.trace_id
        tasks = [s for s in spans if s["name"] == "worker.task"]
        assert len(tasks) == 2
        for span in tasks:
            tags = span["tags"]
            assert tags["campaign"] == campaign.id
            assert tags["worker"] == "wE2E"
            assert tags["trace"] == campaign.trace_id
            assert tags["task_id"]
            assert str(span["id"]).startswith("wE2E:")
        # clean exit: the worker.run root makes inter-task glue its
        # self time, so the union of spans covers ~all of wall clock
        assert interval_coverage(spans) >= 0.95
        summary = summarize_spans(spans, meta)
        assert summary.kernel["wE2E"]["words"] > 0
        assert summary.buckets["kernel"] > 0.0

    def test_trace_summary_connect_cli(self, tmp_path, capsys):
        state = ServiceState(root=tmp_path / "root")
        campaign, _ = state.submit(tiny_spec())
        server = start_server(state, port=0)
        try:
            run_worker(HttpSchedulerClient(server.url), "wCLI",
                       exit_on_idle=True, poll_interval=0.01)
            rc = main(["trace", "summary", "--connect", server.url,
                       "--campaign", campaign.id, "--json"])
            assert rc == 0
            payload = json.loads(capsys.readouterr().out)
            assert payload["num_spans"] > 0
            assert "wCLI" in payload["kernel"]
        finally:
            server.stop()


# ----------------------------------------------------------------------
# Chrome-trace export
# ----------------------------------------------------------------------
class TestPerfettoExport:
    MERGED_META = {"kind": "meta", "merged": True, "trace_id": "t" * 16,
                   "campaign": "c-1", "unix_t0": 1000.0}
    MERGED_SPANS = [
        {"kind": "span", "name": "worker.task", "start": 0.5,
         "dur": 0.25, "id": "wA:1", "parent": None, "thread": "main",
         "worker": "wA", "tags": {"task_id": "t1"}},
        {"kind": "span", "name": "loss.shard", "start": 0.6, "dur": 0.1,
         "id": "wA:2", "parent": "wA:1", "thread": "main",
         "worker": "wA", "tags": {}},
        {"kind": "span", "name": "worker.task", "start": 0.55,
         "dur": 0.2, "id": "wB:1", "parent": None, "thread": "main",
         "worker": "wB", "tags": {}},
    ]

    def test_workers_get_process_lanes(self):
        doc = to_chrome_trace(self.MERGED_META, self.MERGED_SPANS)
        complete = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert len(complete) == 3
        # distinct workers land in distinct perfetto process lanes
        pids = {e["pid"] for e in complete}
        assert len(pids) == 2
        names = [e for e in doc["traceEvents"]
                 if e["ph"] == "M" and e["name"] == "process_name"]
        assert {m["args"]["name"] for m in names} == {"wA", "wB"}

    def test_microsecond_timestamps_and_categories(self):
        doc = to_chrome_trace(self.MERGED_META, self.MERGED_SPANS)
        task = next(e for e in doc["traceEvents"]
                    if e["ph"] == "X" and e["name"] == "worker.task"
                    and e["dur"] == pytest.approx(250000))
        assert task["ts"] == pytest.approx(500000)
        shard = next(e for e in doc["traceEvents"]
                     if e["name"] == "loss.shard")
        assert shard["cat"] == "loss_eval"

    def test_export_cli_round_trip(self, tmp_path, capsys):
        trace = tmp_path / "trace.jsonl"
        with trace.open("w") as fh:
            fh.write(json.dumps(self.MERGED_META) + "\n")
            for span in self.MERGED_SPANS:
                fh.write(json.dumps(span) + "\n")
        rc = main(["trace", "export", str(trace), "--perfetto"])
        assert rc == 0
        out_path = Path(str(trace) + ".perfetto.json")
        assert out_path.exists()
        doc = json.loads(out_path.read_text())
        assert doc["otherData"]["trace_id"] == "t" * 16
        assert any(e["ph"] == "X" for e in doc["traceEvents"])

    def test_export_bad_input_exits_2(self, tmp_path, capsys):
        assert main(["trace", "export",
                     str(tmp_path / "missing.jsonl")]) == 2


# ----------------------------------------------------------------------
# Perf-regression gate
# ----------------------------------------------------------------------
class TestBenchCompare:
    def test_flatten_paths_and_indices(self):
        flat = flatten_numeric({"a": {"b": 1.5},
                                "sizes": [{"s": 2.0}, {"s": 3.0}],
                                "name": "skip", "flag": True})
        assert flat == {"a.b": 1.5, "sizes[0].s": 2.0,
                        "sizes[1].s": 3.0}

    @pytest.mark.parametrize("text,expected", [
        ("15%", 0.15), ("0.15", 0.15), (" 7 % ", 0.07), ("1", 1.0),
    ])
    def test_parse_tolerance(self, text, expected):
        assert parse_tolerance(text) == pytest.approx(expected)

    @pytest.mark.parametrize("text", ["", "-5%", "abc", "15%%"])
    def test_parse_tolerance_rejects_garbage(self, text):
        with pytest.raises(ValueError):
            parse_tolerance(text)

    def test_identity_passes_and_regression_fails(self):
        base = {"losses": {"clapton": {"batched_seconds": 0.01,
                                       "speedup": 30.0}}}
        assert compare(base, base, tolerance=0.15).ok
        slow = {"losses": {"clapton": {"batched_seconds": 0.012,
                                       "speedup": 30.0}}}
        result = compare(slow, base, tolerance=0.15)
        assert [r.path for r in result.regressions] == \
            ["losses.clapton.batched_seconds"]

    def test_direction_awareness(self):
        base = {"speedup": 10.0, "seconds": 1.0}
        # higher speedup and lower seconds are improvements, not
        # regressions, however large the delta
        better = {"speedup": 20.0, "seconds": 0.5}
        assert compare(better, base, tolerance=0.05).ok
        worse = {"speedup": 5.0, "seconds": 1.0}
        assert not compare(worse, base, tolerance=0.05).ok

    def test_added_and_removed_metrics_never_fail(self):
        base = {"a_seconds": 1.0, "gone_seconds": 2.0}
        cur = {"a_seconds": 1.0, "new_seconds": 3.0}
        result = compare(cur, base, tolerance=0.0)
        assert result.ok
        statuses = {r.path: r.status for r in result.rows}
        assert statuses["new_seconds"] == "added"
        assert statuses["gone_seconds"] == "removed"

    def test_cli_exit_codes(self, tmp_path, capsys):
        base = tmp_path / "base.json"
        base.write_text(json.dumps({"x_seconds": 1.0}))
        same = tmp_path / "same.json"
        same.write_text(json.dumps({"x_seconds": 1.0}))
        slow = tmp_path / "slow.json"
        slow.write_text(json.dumps({"x_seconds": 1.2}))  # +20%

        assert main(["bench", "compare", str(same),
                     "--baseline", str(base)]) == 0
        assert "No regressions" in capsys.readouterr().out

        assert main(["bench", "compare", str(slow),
                     "--baseline", str(base),
                     "--tolerance", "15%"]) == 1
        assert "regression" in capsys.readouterr().out

        assert main(["bench", "compare", str(slow), "--baseline",
                     str(tmp_path / "missing.json")]) == 2
        assert main(["bench", "compare", str(slow),
                     "--baseline", str(base),
                     "--tolerance", "nope"]) == 2

    def test_cli_refuses_preset_mismatch(self, tmp_path, capsys):
        base = tmp_path / "base.json"
        base.write_text(json.dumps({"preset": "fast", "x_seconds": 1.0}))
        run = tmp_path / "run.json"
        # a 10x slower run would be a regression if it were diffed
        run.write_text(json.dumps({"preset": "smoke", "x_seconds": 10.0}))
        assert main(["bench", "compare", str(run),
                     "--baseline", str(base)]) == 2
        captured = capsys.readouterr()
        assert "'smoke'" in captured.err and "'fast'" in captured.err
        assert "regression" not in captured.out
        # same preset, or a payload without one, compares as before
        run.write_text(json.dumps({"preset": "fast", "x_seconds": 1.0}))
        assert main(["bench", "compare", str(run),
                     "--baseline", str(base)]) == 0
        run.write_text(json.dumps({"x_seconds": 1.0}))
        assert main(["bench", "compare", str(run),
                     "--baseline", str(base)]) == 0

    def test_committed_baselines_self_compare_clean(self):
        results = Path(__file__).resolve().parents[1] / \
            "benchmarks" / "bench_results"
        for path in sorted(results.glob("*.json")):
            payload = json.loads(path.read_text())
            assert compare(payload, payload, tolerance=0.0).ok, path


# ----------------------------------------------------------------------
# Prometheus exposition edge cases (satellite c)
# ----------------------------------------------------------------------
#: One exposition line: comment, or `name{labels} value` with a float,
#: integer, or +/-Inf/NaN value.  Deliberately strict about quoting.
_SAMPLE_RE = re.compile(
    r'^[a-zA-Z_:][a-zA-Z0-9_:]*'
    r'(\{[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\\n]|\\\\|\\"|\\n)*"'
    r'(,[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\\n]|\\\\|\\"|\\n)*")*\})?'
    r' (?:[+-]?(?:\d+(?:\.\d+)?(?:e-?\d+)?|Inf)|NaN)$')


def check_exposition(text: str) -> int:
    """Strict line-format check; returns the number of sample lines."""
    assert text.endswith("\n"), "exposition must end with a newline"
    samples = 0
    for line in text.splitlines():
        if line.startswith("# HELP ") or line.startswith("# TYPE "):
            continue
        assert _SAMPLE_RE.match(line), f"malformed sample line: {line!r}"
        samples += 1
    return samples


class TestPrometheusEdgeCases:
    def test_histogram_inf_bucket_is_cumulative_total(self):
        registry = MetricRegistry()
        hist = registry.histogram("h_seconds", "h", buckets=(0.1, 1.0))
        hist.observe(0.05)
        hist.observe(50.0)  # beyond every finite bucket
        text = render_prometheus(registry)
        assert 'h_seconds_bucket{le="+Inf"} 2' in text
        assert 'h_seconds_bucket{le="1"} 1' in text
        assert "h_seconds_count 2" in text
        check_exposition(text)

    def test_label_values_escape_specials(self):
        registry = MetricRegistry()
        counter = registry.counter("c_total", "c")
        counter.inc(task='line1\nline2 "quoted" back\\slash')
        text = render_prometheus(registry)
        assert r'task="line1\nline2 \"quoted\" back\\slash"' in text
        assert "\nline2" not in text.replace(r"\nline2", "")
        check_exposition(text)

    def test_inf_and_integral_values_render(self):
        registry = MetricRegistry()
        gauge = registry.gauge("g", "g")
        gauge.set(math.inf, kind="inf")
        gauge.set(3.0, kind="int")
        text = render_prometheus(registry)
        assert 'g{kind="inf"} +Inf' in text
        assert 'g{kind="int"} 3' in text
        check_exposition(text)

    def test_live_registry_renders_strictly(self):
        from repro.obs import REGISTRY

        publish_kernel_metrics()
        assert check_exposition(render_prometheus(REGISTRY)) > 0
