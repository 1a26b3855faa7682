"""Tests for the campaign service: leases, scheduler, HTTP, chaos.

The acceptance-critical behavior lives at the bottom: a two-worker
service run whose workers are real subprocesses, one SIGKILL'd while
holding a lease, must complete every grid cell with records identical
(modulo wall clock and worker provenance) to an uninterrupted serial
:class:`CampaignRunner` run.
"""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.campaigns import (
    CampaignRunner,
    CampaignSpec,
    ResultStore,
    RetryPolicy,
)
from repro.campaigns.service import (
    CampaignScheduler,
    HttpSchedulerClient,
    LeaseTable,
    ServiceState,
    campaign_id,
    run_worker,
    start_server,
)

#: Minimal engine so every campaign task runs in ~100 ms.
TINY_OVERRIDES = {"num_instances": 1, "generations_per_round": 6,
                  "top_k": 3, "population_size": 10, "retry_rounds": 0}


def tiny_spec(**kwargs) -> CampaignSpec:
    defaults = dict(name="svc", benchmarks=["ising_J1.00"],
                    qubit_sizes=[3], noise_scales=[1.0],
                    methods=["ncafqa", "clapton"], seeds=[0, 1],
                    engine_preset="smoke", engine_overrides=TINY_OVERRIDES)
    defaults.update(kwargs)
    return CampaignSpec(**defaults)


#: Run-specific record fields: wall clock and worker provenance.  The
#: deterministic payload (task, result, error, status, attempt,
#: backoff_seconds) must be identical however a campaign was executed.
VOLATILE = {"seconds", "engine_seconds", "total_seconds",
            "duration_seconds", "worker_id"}


#: Id of the campaign ``tiny_spec()`` submits.
CID = campaign_id(tiny_spec())

#: Stands for the id of the task ``w0`` holds when a body is posted.
LEASED = "<leased task id>"

#: Malformed POST bodies -> (routes that must refuse them, error).
ALL_POST_ROUTES = ("/campaigns", "/lease", "/heartbeat", "/complete",
                   "/traces")
WORKER_ROUTES = ("/lease", "/heartbeat", "/complete", "/traces")
MALFORMED_BODIES = {
    **{body: (ALL_POST_ROUTES, "body must be a JSON object")
       for body in ("[]", "null", "3")},
    **{json.dumps({"worker_id": worker_id, "record": {}}):
       (WORKER_ROUTES, "worker_id must be a non-empty string")
       for worker_id in (None, {"a": 1}, "", 7)},
    json.dumps({"record": {}}):
       (WORKER_ROUTES, "worker_id must be a non-empty string"),
    **{json.dumps({"worker_id": "w0", **batch}): (("/traces",), error)
       for batch, error in (
           ({"spans": {"id": 1}}, "spans must be a list"),
           ({"spans": [3]}, "every span must be an object with an id"),
           ({"spans": [{"start": 0.0}]},
            "every span must be an object with an id"),
           ({"spans": [{"id": 1, "tags": [1]}]},
            "span tags must be an object"),
           ({"spans": [{"id": 1, "start": True}]},
            "span start must be a number"),
           # the first span alone would open this campaign's trace file
           ({"unix_t0": 1.0,
             "spans": [{"id": 1, "start": 0.0, "tags": {"campaign": CID}},
                       {"id": 2, "start": "later",
                        "tags": {"campaign": CID}}]},
            "span start must be a number"),
           ({"unix_t0": "now",
             "spans": [{"id": 1, "tags": {"campaign": CID}}]},
            "unix_t0 must be a number"),
           ({"campaign": ["x"], "spans": [{"id": 1}]},
            "campaign ids must be strings"),
       )},
    **{json.dumps({"worker_id": "w0", "leases": leases}):
       (("/heartbeat",),
        "leases must be a list of objects with string task_id and campaign")
       for leases in ([3], "ab", [{"campaign": CID}],
                      # the first entry alone would renew the held lease
                      [{"campaign": CID, "task_id": LEASED},
                       {"campaign": CID, "task_id": [1]}],
                      [{"campaign": ["x"], "task_id": "t"}])},
    json.dumps({"worker_id": "w0", "record": 5}):
       (("/complete",), "record must be an object"),
    # the parent parked the held task as permanently failed
    json.dumps({"worker_id": "w0", "campaign": CID,
                "record": {"task_id": LEASED, "status": 7}}):
       (("/complete",), "record status must be 'done' or 'failed'"),
    # the parent stored it, and GET /report then answered 404
    **{json.dumps({"worker_id": "w0", "campaign": CID,
                   "record": {"task_id": LEASED, "status": "done",
                              "task": {}, "result": {}, **field}}):
       (("/complete",), f"a done record's {name} must be an object")
       for name, field in (("result", {"result": 7}),
                           ("task", {"task": 7}))},
    # raw non-finite literals: the parent wrote them into trace.jsonl
    '{"worker_id": "w0", "unix_t0": NaN, "spans": '
    f'[{{"id": 1, "tags": {{"campaign": "{CID}"}}}}]}}':
       (("/traces",), "bad JSON body: non-finite number NaN"),
    '{"worker_id": "w0", "unix_t0": 1.0, "spans": '
    f'[{{"id": 1, "start": Infinity, "tags": {{"campaign": "{CID}"}}}}]}}':
       (("/traces",), "bad JSON body: non-finite number Infinity"),
}


def snapshot_files(root):
    """Every file under ``root`` by relative path, with its bytes."""
    return {p.relative_to(root): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


def strip_volatile(obj):
    if isinstance(obj, dict):
        return {k: strip_volatile(v) for k, v in obj.items()
                if k not in VOLATILE}
    if isinstance(obj, list):
        return [strip_volatile(v) for v in obj]
    return obj


def canonical_records(store: ResultStore) -> dict:
    # compare the JSON form -- what the log persists -- so in-memory
    # tuples vs wire lists don't produce spurious diffs
    records = json.loads(json.dumps(store.records()))
    return {r["task_id"]: strip_volatile(r) for r in records}


def trace_interval_coverage(spans: list) -> float:
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


def serial_reference(tmp_path: Path, spec: CampaignSpec) -> dict:
    store = ResultStore.create(tmp_path / "serial-ref", spec)
    CampaignRunner(spec, store).run()
    store.close()
    return canonical_records(store)


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
# LeaseTable
# ----------------------------------------------------------------------
class TestLeaseTable:
    def test_grant_conflict_release(self, tmp_path):
        clock = FakeClock()
        table = LeaseTable(tmp_path / "leases.jsonl", clock=clock)
        lease = table.lease("t1", "w1", ttl=10.0)
        assert lease.deadline == clock.now + 10.0 and lease.attempt == 1
        assert table.lease("t1", "w2", ttl=10.0) is None  # held
        assert table.lease("t2", "w2", ttl=10.0) is not None
        assert table.release("t1", "w2") is False  # not the holder
        assert table.release("t1", "w1") is True
        assert table.get("t1") is None

    def test_expiry_returns_task_to_pending(self, tmp_path):
        clock = FakeClock()
        table = LeaseTable(tmp_path / "leases.jsonl", clock=clock)
        table.lease("t1", "w1", ttl=5.0)
        clock.advance(4.9)
        assert table.expired() == []
        clock.advance(0.2)
        assert [l.task_id for l in table.expired()] == ["t1"]
        # a new grant over an expired lease succeeds and bumps attempt
        stolen = table.lease("t1", "w2", ttl=5.0)
        assert stolen.worker_id == "w2" and stolen.attempt == 2

    def test_renew_pushes_deadline(self, tmp_path):
        clock = FakeClock()
        table = LeaseTable(tmp_path / "leases.jsonl", clock=clock)
        table.lease("t1", "w1", ttl=5.0)
        clock.advance(4.0)
        renewed = table.renew("t1", "w1", ttl=5.0)
        assert renewed.deadline == clock.now + 5.0
        clock.advance(4.0)  # past the original deadline, not the renewal
        assert table.expired() == []
        assert table.renew("t1", "w2", ttl=5.0) is None  # wrong worker

    def test_event_log_replays_on_open(self, tmp_path):
        clock = FakeClock()
        path = tmp_path / "leases.jsonl"
        table = LeaseTable(path, clock=clock)
        table.lease("t1", "w1", ttl=5.0)
        table.lease("t2", "w1", ttl=5.0)
        table.release("t2")
        table.renew("t1", "w1", ttl=50.0)
        table.close()

        reopened = LeaseTable.open(path, clock=clock)
        assert [l.task_id for l in reopened.active()] == ["t1"]
        assert reopened.get("t1").deadline == clock.now + 50.0
        assert reopened.grants("t1") == 1
        # torn trailing event (crash mid-append) is dropped silently
        with open(path, "a") as fh:
            fh.write('{"event": "lease", "task_id": "t3"')
        assert len(LeaseTable.open(path, clock=clock)) == 1

    def test_held_by_groups_by_worker(self):
        table = LeaseTable(clock=FakeClock())
        table.lease("t1", "w1", 5.0)
        table.lease("t2", "w2", 5.0)
        table.lease("t3", "w1", 5.0)
        assert [l.task_id for l in table.held_by("w1")] == ["t1", "t3"]


# ----------------------------------------------------------------------
# Scheduler
# ----------------------------------------------------------------------
def make_scheduler(spec=None, clock=None, **kwargs):
    spec = spec or tiny_spec()
    clock = clock or FakeClock()
    store = ResultStore.ephemeral(spec)
    scheduler = CampaignScheduler(spec, store, clock=clock,
                                  lease_ttl=kwargs.pop("lease_ttl", 10.0),
                                  **kwargs)
    return scheduler, spec.tasks(), clock


class TestScheduler:
    def test_leases_tasks_in_grid_order(self):
        scheduler, tasks, _ = make_scheduler()
        seen = []
        while (grant := scheduler.next_task("w1")) is not None:
            task, lease = grant
            assert lease.worker_id == "w1"
            seen.append(task.task_id)
        assert seen == [t.task_id for t in tasks]  # all leased, in order
        assert not scheduler.done

    def test_report_completes_and_releases(self):
        scheduler, tasks, _ = make_scheduler()
        for task in tasks:
            grant = scheduler.next_task("w1")
            assert scheduler.report("w1", fake_record(grant[0])) is True
        assert scheduler.done and len(scheduler.leases) == 0
        record = scheduler.store.record(tasks[0].task_id)
        assert record["attempt"] == 1
        assert record["backoff_seconds"] == 0.0
        assert record["worker_id"] == "w1"

    def test_completed_ids_skipped_on_construction(self, tmp_path):
        spec = tiny_spec()
        tasks = spec.tasks()
        store = ResultStore.create(tmp_path / "s", spec)
        store.append(fake_record(tasks[0]))
        scheduler = CampaignScheduler(spec, store, clock=FakeClock())
        granted = {scheduler.next_task("w")[0].task_id
                   for _ in range(len(tasks) - 1)}
        assert tasks[0].task_id not in granted
        assert scheduler.next_task("w") is None

    def test_max_outstanding_backpressure(self):
        scheduler, _, _ = make_scheduler(max_outstanding=2)
        assert scheduler.next_task("w1") is not None
        assert scheduler.next_task("w2") is not None
        assert scheduler.next_task("w3") is None  # bounded
        counts = scheduler.counts()
        assert counts["leased"] == 2

    def test_expired_lease_is_stolen(self):
        scheduler, _, clock = make_scheduler(lease_ttl=5.0)
        task, lease = scheduler.next_task("w1")
        clock.advance(6.0)
        stolen_task, stolen_lease = scheduler.next_task("w2")
        assert stolen_task.task_id == task.task_id
        assert stolen_lease.worker_id == "w2"
        assert stolen_lease.attempt == 2
        assert scheduler.counts()["leases_stolen"] == 1
        # the zombie's heartbeat now fails for that task
        assert scheduler.heartbeat("w1", [task.task_id]) == []

    def test_heartbeat_keeps_slow_worker_alive(self):
        scheduler, _, clock = make_scheduler(lease_ttl=5.0)
        task, _ = scheduler.next_task("w1")
        for _ in range(10):  # 40 simulated seconds of slow execution
            clock.advance(4.0)
            assert scheduler.heartbeat("w1") == [task.task_id]
        assert scheduler.report("w1", fake_record(task)) is True

    def test_duplicate_report_from_zombie_ignored(self):
        scheduler, _, clock = make_scheduler(lease_ttl=5.0)
        task, _ = scheduler.next_task("w1")
        clock.advance(6.0)
        scheduler.next_task("w2")  # steals
        assert scheduler.report("w2", fake_record(task)) is True
        assert scheduler.report("w1", fake_record(task)) is False
        assert scheduler.store.attempts(task.task_id) == 1  # one record

    def test_report_for_never_leased_task_refused(self):
        scheduler, tasks, _ = make_scheduler()
        assert scheduler.report("intruder", fake_record(tasks[0])) is False
        assert len(scheduler.store) == 0
        assert scheduler.counts()["done"] == 0
        # the task is still handed out, to the first worker that asks
        assert scheduler.next_task("w1")[0].task_id == tasks[0].task_id

    def test_report_against_live_lease_of_another_worker_refused(self):
        scheduler, _, clock = make_scheduler(lease_ttl=5.0)
        task, _ = scheduler.next_task("w1")
        assert scheduler.report("intruder", fake_record(task)) is False
        assert len(scheduler.store) == 0
        assert scheduler.leases.get(task.task_id).worker_id == "w1"
        # once the lease has lapsed, a late record is kept, as before
        clock.advance(6.0)
        assert scheduler.report("w1", fake_record(task)) is True
        assert scheduler.store.attempts(task.task_id) == 1

    def test_failed_task_backs_off_then_retries(self):
        retry = RetryPolicy(max_attempts=3, backoff_base=2.0)
        scheduler, tasks, clock = make_scheduler(retry=retry)
        task, _ = scheduler.next_task("w1")
        scheduler.report("w1", fake_record(task, status="failed"))
        # immediately after the failure the task is gated by backoff:
        # other tasks are handed out first
        regrant = scheduler.next_task("w1")
        assert regrant[0].task_id != task.task_id
        # drain the rest so only the backing-off task remains
        drained = [regrant[0]]
        while (g := scheduler.next_task("w1")) is not None:
            drained.append(g[0])
        for t in drained:
            scheduler.report("w1", fake_record(t))
        assert scheduler.next_task("w1") is None
        assert scheduler.counts()["backing_off"] == 1
        clock.advance(2.1)  # past delay(2) = backoff_base
        retried, _ = scheduler.next_task("w1")
        assert retried.task_id == task.task_id
        scheduler.report("w1", fake_record(task, status="failed"))
        record = scheduler.store.record(task.task_id)
        assert record["attempt"] == 2
        assert record["backoff_seconds"] == 2.0

    def test_retries_exhausted_parks_task_as_failed(self):
        retry = RetryPolicy(max_attempts=2, backoff_base=1.0)
        scheduler, tasks, clock = make_scheduler(retry=retry)
        task, _ = scheduler.next_task("w1")
        scheduler.report("w1", fake_record(task, status="failed"))
        clock.advance(10.0)
        for t in tasks:
            grant = scheduler.next_task("w1")
            if grant is None:
                break
            status = ("failed" if grant[0].task_id == task.task_id
                      else "done")
            scheduler.report("w1", fake_record(grant[0], status=status))
        assert scheduler.done  # parked failure counts as terminal
        counts = scheduler.counts()
        assert counts["failed"] == 1
        assert counts["done"] == len(tasks) - 1

    def test_scheduler_crash_recovery_replays_leases(self, tmp_path):
        clock = FakeClock()
        spec = tiny_spec()
        store = ResultStore.create(tmp_path / "s", spec)
        scheduler = CampaignScheduler(spec, store, clock=clock,
                                      lease_ttl=5.0)
        task, _ = scheduler.next_task("w1")
        done_task, _ = scheduler.next_task("w1")
        scheduler.report("w1", fake_record(done_task))
        scheduler.close()  # "crash": in-flight lease never released

        store = ResultStore.open(tmp_path / "s")
        revived = CampaignScheduler(spec, store, clock=clock,
                                    lease_ttl=5.0)
        # the in-flight lease survived the restart...
        assert revived.leases.get(task.task_id).worker_id == "w1"
        # ...and once its deadline passes any worker steals it
        clock.advance(6.0)
        stolen, lease = revived.next_task("w2")
        assert stolen.task_id == task.task_id and lease.attempt == 2
        assert revived.counts()["done"] == 1

    def test_per_strategy_counts(self):
        spec = tiny_spec(strategies=["multi_ga", "restart_climb"],
                         seeds=[0])
        scheduler, tasks, _ = make_scheduler(spec=spec)
        grant = scheduler.next_task("w1")
        scheduler.report("w1", fake_record(grant[0]))
        strategies = scheduler.counts()["strategies"]
        assert strategies["multi_ga"]["done"] == 1
        assert strategies["restart_climb"]["pending"] == 2


# ----------------------------------------------------------------------
# ServiceState + HTTP front end
# ----------------------------------------------------------------------
class TestServiceState:
    def test_submit_is_idempotent(self, tmp_path):
        state = ServiceState(tmp_path / "root")
        spec = tiny_spec()
        first, resumed = state.submit(spec)
        assert resumed is False
        again, resumed = state.submit(spec)
        assert resumed is True and again is first
        assert first.id == campaign_id(spec)
        assert (tmp_path / "root" / f"{first.id}.campaign").is_dir()

    def test_submit_resumes_on_disk_store(self, tmp_path):
        spec = tiny_spec()
        state = ServiceState(tmp_path / "root")
        campaign, _ = state.submit(spec)
        task = spec.tasks()[0]
        campaign.scheduler.next_task("w")
        campaign.scheduler.report("w", fake_record(task))
        state.close()

        fresh = ServiceState(tmp_path / "root")
        campaign, resumed = fresh.submit(spec)
        assert resumed is True
        assert campaign.status()["done"] == 1

    def test_get_requires_id_only_when_ambiguous(self, tmp_path):
        state = ServiceState(tmp_path / "root")
        with pytest.raises(KeyError):
            state.get()
        a, _ = state.submit(tiny_spec())
        assert state.get() is a
        state.submit(tiny_spec(name="other"))
        with pytest.raises(KeyError, match="campaign id required"):
            state.get()
        with pytest.raises(KeyError, match="unknown campaign"):
            state.get("nope")

    def test_report_cache_invalidates_on_new_records(self, tmp_path):
        state = ServiceState(tmp_path / "root")
        campaign, _ = state.submit(tiny_spec())
        empty = campaign.report()
        assert "No completed tasks yet" in empty
        assert campaign.report() is empty  # cached object, not re-rendered
        with pytest.raises(ValueError, match="unknown report format"):
            campaign.report(fmt="pdf")


def wait_until(predicate, timeout=30.0, interval=0.005):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return False


class TestServiceEndToEnd:
    def test_http_service_run_matches_serial(self, tmp_path):
        """Submit over HTTP, drain with an HTTP worker, check reports."""
        spec = tiny_spec(seeds=[0])  # 2 tasks
        reference = serial_reference(tmp_path, spec)

        from urllib.error import HTTPError
        from urllib.request import Request, urlopen

        state = ServiceState(tmp_path / "root")
        server = start_server(state, port=0)
        try:
            body = json.dumps(spec.to_dict()).encode()
            with urlopen(Request(
                    server.url + "/campaigns", data=body,
                    headers={"Content-Type": "application/json"})) as r:
                submitted = json.loads(r.read())
            assert submitted["total"] == 2 and not submitted["resumed"]
            cid = submitted["campaign"]

            with urlopen(server.url + "/healthz") as r:
                health = json.loads(r.read())
            assert health["status"] == "ok" and health["campaigns"] == 1

            executed = run_worker(HttpSchedulerClient(server.url),
                                  "http-worker", poll_interval=0.05,
                                  exit_on_idle=True)
            assert executed == 2

            with urlopen(f"{server.url}/status?campaign={cid}") as r:
                status = json.loads(r.read())
            assert status["complete"] and status["done"] == 2

            with urlopen(f"{server.url}/report?campaign={cid}") as r:
                report = r.read().decode()
            assert "# Campaign report: svc" in report
            with urlopen(f"{server.url}/report?campaign={cid}"
                         f"&fmt=csv") as r:
                assert r.read().decode().startswith("benchmark,")

            with pytest.raises(HTTPError) as excinfo:
                urlopen(server.url + "/status?campaign=bogus")
            assert excinfo.value.code == 404
        finally:
            server.stop()

        store = ResultStore.open(
            tmp_path / "root" / f"{campaign_id(spec)}.campaign")
        assert canonical_records(store) == reference

    @pytest.mark.parametrize("body", list(MALFORMED_BODIES))
    def test_non_object_bodies_rejected(self, tmp_path, body):
        """Every POST route that must refuse a malformed body answers it
        with a 400 and leaves the lease log and the store byte-identical:
        non-object JSON on all five routes, a ``worker_id`` that is not a
        non-empty string on the four worker routes, malformed span
        batches, heartbeat ``leases`` and ``/complete`` records, and
        non-finite number literals."""
        from urllib.error import HTTPError
        from urllib.request import Request, urlopen

        def post(path, data):
            return urlopen(Request(server.url + path, data=data.encode(),
                                   headers={"Content-Type":
                                            "application/json"}))

        routes, error = MALFORMED_BODIES[body]
        root = tmp_path / "root"
        server = start_server(ServiceState(root), port=0)
        try:
            with post("/campaigns", json.dumps(tiny_spec().to_dict())):
                pass
            with post("/lease", json.dumps({"worker_id": "w0"})) as r:
                leased = json.loads(r.read())
            assert leased["task"]
            before = snapshot_files(root)
            assert any(p.name == "leases.jsonl" and data
                       for p, data in before.items())
            for route in routes:
                with pytest.raises(HTTPError) as excinfo:
                    post(route, body.replace(LEASED, leased["task_id"]))
                assert excinfo.value.code == 400, route
                assert json.loads(excinfo.value.read()) == {
                    "error": error}, route
            assert snapshot_files(root) == before
            with urlopen(f"{server.url}/report?campaign={CID}") as r:
                assert r.status == 200
        finally:
            server.stop()

    @pytest.mark.parametrize("name", ["../../escape", "..\\..\\escape",
                                      "nul\x00byte", "lone\ud800", "",
                                      7])
    def test_campaign_name_cannot_leave_the_root(self, tmp_path, name):
        """A campaign name becomes a directory name under ``--root``: a
        path-like (or empty, or non-string) one gets a 400 and creates
        nothing anywhere."""
        from urllib.error import HTTPError
        from urllib.request import Request, urlopen

        root = tmp_path / "a" / "b" / "root"
        server = start_server(ServiceState(root), port=0)
        try:
            before = sorted(tmp_path.rglob("*"))
            spec = {**tiny_spec().to_dict(), "name": name}
            with pytest.raises(HTTPError) as excinfo:
                urlopen(Request(server.url + "/campaigns",
                                data=json.dumps(spec).encode(),
                                headers={"Content-Type":
                                         "application/json"}))
            assert excinfo.value.code == 400
            assert "campaign name must be" in json.loads(
                excinfo.value.read())["error"]
            assert sorted(tmp_path.rglob("*")) == before
        finally:
            server.stop()

    @pytest.mark.parametrize("length", ["-1", "abc"])
    def test_bad_content_length_rejected_unread(self, tmp_path, length):
        """A negative or non-integer Content-Length gets a prompt 400
        without the body being read, and changes nothing on disk."""
        import socket
        from urllib.request import Request, urlopen

        root = tmp_path / "root"
        server = start_server(ServiceState(root), port=0)
        try:
            with urlopen(Request(server.url + "/campaigns",
                                 data=json.dumps(
                                     tiny_spec().to_dict()).encode())):
                pass
            before = snapshot_files(root)
            host, port = server.server_address[:2]
            with socket.create_connection((host, port), timeout=2) as sock:
                sock.sendall(f"POST /lease HTTP/1.1\r\nHost: {host}\r\n"
                             f"Content-Type: application/json\r\n"
                             f"Content-Length: {length}\r\n\r\n"
                             .encode())
                reply = b""
                while chunk := sock.recv(4096):  # raises on the 2 s timeout
                    reply += chunk
            head, _, body = reply.partition(b"\r\n\r\n")
            assert head.startswith(b"HTTP/1.1 400"), head
            assert json.loads(body) == {"error": "bad Content-Length"}
            assert snapshot_files(root) == before
        finally:
            server.stop()

    def test_oversized_body_rejected_unread(self, tmp_path):
        """A Content-Length above the cap gets a prompt 413 without the
        body being read, and changes nothing on disk."""
        import socket
        from urllib.request import Request, urlopen

        from repro.campaigns.service.http import MAX_BODY_BYTES

        root = tmp_path / "root"
        server = start_server(ServiceState(root), port=0)
        try:
            with urlopen(Request(server.url + "/campaigns",
                                 data=json.dumps(
                                     tiny_spec().to_dict()).encode())):
                pass
            before = snapshot_files(root)
            host, port = server.server_address[:2]
            with socket.create_connection((host, port), timeout=2) as sock:
                sock.sendall(f"POST /campaigns HTTP/1.1\r\nHost: {host}\r\n"
                             f"Content-Type: application/json\r\n"
                             f"Content-Length: {MAX_BODY_BYTES + 1}\r\n\r\n"
                             .encode())
                reply = b""
                while chunk := sock.recv(4096):  # raises on the 2 s timeout
                    reply += chunk
            head, _, body = reply.partition(b"\r\n\r\n")
            assert head.startswith(b"HTTP/1.1 413"), head
            assert json.loads(body) == {"error": "body too large"}
            assert snapshot_files(root) == before
        finally:
            server.stop()

    def test_local_worker_threads_match_serial(self, tmp_path):
        """serve --local-workers path: threads calling the state."""
        import threading

        spec = tiny_spec()  # 4 tasks
        reference = serial_reference(tmp_path, spec)
        state = ServiceState(tmp_path / "root")
        state.submit(spec)
        threads = [threading.Thread(
            target=run_worker, args=(state,),
            kwargs={"worker_id": f"local-{i}", "poll_interval": 0.02,
                    "exit_on_idle": True}) for i in range(3)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        assert state.all_done
        store = state.get().store
        assert canonical_records(store) == reference
        state.close()


# ----------------------------------------------------------------------
# Chaos: SIGKILL a real worker subprocess mid-campaign
# ----------------------------------------------------------------------
def spawn_worker(url: str, worker_id: str, tmp_path: Path,
                 *extra: str) -> subprocess.Popen:
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    log = open(tmp_path / f"{worker_id}.log", "w")
    return subprocess.Popen(
        [sys.executable, "-m", "repro", "worker", "--connect", url,
         "--worker-id", worker_id, "--poll", "0.1", *extra],
        stdout=log, stderr=subprocess.STDOUT, env=env)


class TestWorkerCrashChaos:
    def test_sigkilled_worker_recovers_bit_identical(self, tmp_path):
        """The acceptance chaos test: kill -9 costs one lease timeout.

        Two subprocess workers drive a service campaign; one is
        SIGKILL'd while holding a lease.  The lease must expire, the
        task must be re-run by the survivor, and the final records must
        match an uninterrupted serial run on every deterministic field.
        """
        spec = tiny_spec(seeds=[0, 1, 2])  # 6 tasks
        reference = serial_reference(tmp_path, spec)

        state = ServiceState(tmp_path / "root", lease_ttl=1.5)
        campaign, _ = state.submit(spec)
        scheduler = campaign.scheduler
        server = start_server(state, port=0)
        victim = survivor = None
        try:
            victim = spawn_worker(server.url, "victim", tmp_path)
            # the instant the victim owns a lease, kill -9 it (tasks
            # take >= 100 ms; this fires within ~5 ms of the grant)
            assert wait_until(
                lambda: scheduler.leases.held_by("victim"), timeout=60)
            os.kill(victim.pid, signal.SIGKILL)
            victim.wait(timeout=30)
            orphaned = [l.task_id
                        for l in scheduler.leases.held_by("victim")]
            assert orphaned, "victim died without holding a lease"

            survivor = spawn_worker(server.url, "survivor", tmp_path,
                                    "--exit-on-idle")
            assert survivor.wait(timeout=300) == 0
            assert scheduler.done
            # the orphaned lease expired (was not released politely)...
            assert scheduler.counts()["leases_stolen"] >= 1
            # ...and the survivor re-ran the orphaned task(s)
            for tid in orphaned:
                record = scheduler.store.record(tid)
                assert record["status"] == "done"
                assert record["worker_id"] == "survivor"

            # ONE merged fleet trace survives the SIGKILL: the victim
            # loses only its unshipped tail, the survivor's worker.run
            # root keeps inter-task glue on the books, and every
            # worker.task span carries the full correlation tuple
            from repro.obs import parse_trace_lines

            meta, spans = parse_trace_lines(
                campaign.trace_text().splitlines())
            assert meta["merged"] and meta["trace_id"] == \
                campaign.trace_id
            tasks = [s for s in spans if s["name"] == "worker.task"]
            done = {s["tags"]["task_id"] for s in tasks
                    if s["tags"]["worker"] == "survivor"}
            assert set(orphaned) <= done
            for span in tasks:
                tags = span["tags"]
                assert tags["campaign"] == campaign.id
                assert tags["trace"] == campaign.trace_id
                assert tags["task_id"] and tags["worker"]
                assert str(span["id"]).split(":", 1)[0] == \
                    tags["worker"]
            assert trace_interval_coverage(spans) >= 0.95
        finally:
            for proc in (victim, survivor):
                if proc is not None and proc.poll() is None:
                    proc.kill()
            server.stop()

        # record-for-record identity with the uninterrupted serial run
        store = ResultStore.open(campaign.store.path)
        result = canonical_records(store)
        assert set(result) == {t.task_id for t in spec.tasks()}
        assert result == reference
