"""Fault-tolerant worker loop: lease, execute, heartbeat, report.

A worker is a dumb loop over one seam -- :class:`SchedulerClient` --
with two implementations: a
:class:`~repro.campaigns.service.state.ServiceState` in the same process
(``repro serve --local-workers N``), and :class:`HttpSchedulerClient`
speaking the wire protocol (:mod:`.protocol`) to a remote ``repro
serve`` (``repro worker --connect URL``).  The loop itself is identical
either way:

    lease -> execute_task -> report, heartbeating while the task runs

Heavy per-process state stays worker-local by construction: tasks run
through :func:`~repro.campaigns.runner.execute_task`, whose module-level
``_E0_CACHE`` memoizes the dense eigensolve across every task the worker
process ever runs -- the scheduler ships only small JSON payloads, never
the heavy objects (the qibo ``parallel.py`` idiom).

Crash safety is the *scheduler's* job: a worker that dies mid-task simply
stops heartbeating and its lease expires.  The loop's own duties are to
heartbeat at ``ttl / 3`` while executing (so slow tasks are not stolen
from a live worker) and to tolerate a briefly unreachable server with
bounded retries instead of dying on the first connection error.
"""

from __future__ import annotations

import json
import logging
import os
import socket
import threading
import time
import uuid
from typing import Callable, Iterator, Protocol
from urllib.error import HTTPError
from urllib.parse import urlencode
from urllib.request import Request, urlopen

from ...obs import REGISTRY, ShippingTracer, get_tracer, set_tracer
from ..runner import execute_task
from .protocol import (CompleteRequest, HeartbeatRequest, LeaseGrant,
                       LeaseRef, LeaseRequest, ServiceError, TraceBatch)

logger = logging.getLogger("repro.service.worker")

_WORKER_TASKS = REGISTRY.counter(
    "repro_worker_tasks_total", "Tasks executed by this worker process")
_HEARTBEAT_SECONDS = REGISTRY.histogram(
    "repro_heartbeat_seconds", "Heartbeat round-trip latency")


def default_worker_id() -> str:
    """Cluster-unique worker identity: host, pid, and a random tail."""
    return (f"{socket.gethostname()}-{os.getpid()}-"
            f"{uuid.uuid4().hex[:6]}")


#: What a client call raises when the server is unreachable (``OSError``:
#: ``URLError``, refused connections, timeouts) or refuses the request.
CLIENT_ERRORS = (ServiceError, OSError)


class SchedulerClient(Protocol):
    """What a worker needs from a scheduler: a :class:`ServiceState` or
    an :class:`HttpSchedulerClient`.  A client that also has
    ``post_traces(TraceBatch)`` (both do) ships the worker's spans."""

    def lease(self, request: LeaseRequest) -> LeaseGrant: ...

    def heartbeat(self, request: HeartbeatRequest) -> dict: ...

    def complete(self, request: CompleteRequest) -> dict: ...


class HttpSchedulerClient:
    """The one HTTP client of ``repro serve``: the worker routes plus
    the GETs the CLI reads.  Raises :class:`ServiceError` when the
    server refuses a request, ``OSError`` when it cannot be reached."""

    def __init__(self, base_url: str, timeout: float = 30.0):
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout

    def _open(self, path: str, body: dict | None = None, **query):
        query = {k: v for k, v in query.items() if v is not None}
        url = self.base_url + path + ("?" + urlencode(query) if query
                                      else "")
        request = (Request(url) if body is None else Request(
            url, data=json.dumps(body).encode(),
            headers={"Content-Type": "application/json"}))
        try:
            return urlopen(request, timeout=self.timeout)
        except HTTPError as exc:
            with exc:
                try:
                    error = json.loads(exc.read().decode())["error"]
                except (ValueError, KeyError, TypeError, OSError):
                    error = exc.reason
            raise ServiceError(exc.code, str(error)) from None

    def _json(self, path: str, body: dict | None = None, **query) -> dict:
        with self._open(path, body, **query) as resp:
            return json.loads(resp.read().decode())

    def _text(self, path: str, **query) -> str:
        with self._open(path, **query) as resp:
            return resp.read().decode()

    def lease(self, request: LeaseRequest) -> LeaseGrant:
        return LeaseGrant.from_dict(self._json("/lease", request.to_dict()))

    def heartbeat(self, request: HeartbeatRequest) -> dict:
        return self._json("/heartbeat", request.to_dict())

    def complete(self, request: CompleteRequest) -> dict:
        return self._json("/complete", request.to_dict())

    def post_traces(self, batch: TraceBatch) -> dict:
        return self._json("/traces", batch.to_dict())

    def submit(self, spec: dict) -> dict:
        """Post a raw spec: the server validates it against its own
        registries."""
        return self._json("/campaigns", spec)

    def status(self, campaign: str | None = None) -> dict:
        return self._json("/status", campaign=campaign)

    def status_stream(self, campaign: str | None = None) -> Iterator[dict]:
        """Server-pushed snapshots until the campaign completes."""
        with self._open("/status", campaign=campaign, stream=1) as resp:
            for line in resp:
                yield json.loads(line.decode())

    def report(self, campaign: str | None = None, **params) -> str:
        return self._text("/report", campaign=campaign, **params)

    def trace(self, campaign: str) -> str:
        return self._text("/trace", campaign=campaign)

    def metrics(self) -> str:
        return self._text("/metrics")


class _Heartbeat:
    """Background renewal of one lease while its task executes."""

    def __init__(self, client: SchedulerClient, worker_id: str,
                 campaign: str | None, task_id: str, interval: float):
        self._stop = threading.Event()

        def beat():
            while not self._stop.wait(interval):
                try:
                    self._client_beat()
                except Exception:
                    # a missed beat is survivable (the lease outlives
                    # several); a dead server will surface in the loop
                    pass

        self._client = client
        self._request = HeartbeatRequest(worker_id,
                                         (LeaseRef(task_id, campaign),))
        self._thread = threading.Thread(target=beat, daemon=True,
                                        name=f"heartbeat-{task_id[:8]}")
        self._thread.start()

    def _client_beat(self):
        start = time.perf_counter()
        self._client.heartbeat(self._request)
        dt = time.perf_counter() - start
        _HEARTBEAT_SECONDS.observe(dt)
        get_tracer().event("worker.heartbeat", dt,
                           task_id=self._request.leases[0].task_id)

    def stop(self):
        self._stop.set()
        self._thread.join(timeout=1.0)


def run_worker(client: SchedulerClient,
               worker_id: str | None = None, *,
               poll_interval: float = 0.5,
               exit_on_idle: bool = False,
               max_tasks: int | None = None,
               max_connect_failures: int = 20,
               on_event: Callable[[str, dict], None] | None = None,
               sleep: Callable[[float], None] = time.sleep) -> int:
    """Drain tasks from a scheduler until told (or allowed) to stop.

    Args:
        client: A :class:`ServiceState` or an HTTP scheduler client.
        worker_id: Stable identity for leases (generated when omitted).
        poll_interval: Idle sleep between lease polls.
        exit_on_idle: Return once the scheduler reports every campaign
            done (otherwise keep polling for new submissions forever).
        max_tasks: Stop after this many executions (tests, canaries).
        max_connect_failures: Consecutive failed lease polls (server
            unreachable or refusing) tolerated before giving up
            (raises the last error).
        on_event: Observer hook ``(kind, payload)`` for CLI logging;
            kinds: ``lease`` and ``idle`` (payload: the
            :class:`LeaseGrant`), ``record`` and ``lost`` (a dict).

    When the client exposes ``post_traces`` (both clients do),
    the loop installs a :class:`~repro.obs.ShippingTracer` for its
    lifetime and batch-ships finished spans to the scheduler's trace
    collector after every completed task and on idle polls -- wrapping
    any already-installed recording tracer as a pass-through sink, or
    sharing a ShippingTracer another local worker thread installed.
    A batch that cannot be shipped is requeued, or dropped when the
    server refused it (4xx); neither crashes the worker.  A failed
    ``complete`` leaves the lease to expire and the task to be redone.

    Returns the number of tasks executed.
    """
    worker_id = worker_id or default_worker_id()
    executed = 0
    connect_failures = 0
    notify = on_event or (lambda kind, payload: None)

    post_traces = getattr(client, "post_traces", None)
    shipper: ShippingTracer | None = None
    owned_tracer = False
    if post_traces is not None:
        current = get_tracer()
        if isinstance(current, ShippingTracer):
            shipper = current  # another local worker thread's shipper
        else:
            shipper = ShippingTracer(current if current.enabled else None)
            set_tracer(shipper)
            owned_tracer = True
    tracer = shipper if shipper is not None else get_tracer()
    last_campaign: str | None = None

    def ship(campaign: str | None) -> None:
        """Best-effort batch shipment; never raises."""
        if shipper is None or shipper.pending() == 0:
            return
        spans = shipper.drain()
        if not spans:
            return
        try:
            start = time.perf_counter()
            post_traces(TraceBatch(worker_id, tuple(spans), campaign,
                                   shipper.unix_t0))
            # lands in the *next* batch: the buffer was just drained
            tracer.event("worker.ship", time.perf_counter() - start,
                         spans=len(spans))
        except Exception as exc:
            # a refused batch would be refused again: drop it
            refused = isinstance(exc, ServiceError) and exc.code < 500
            if not refused:
                shipper.requeue(spans)
            logger.debug("worker %s could not ship %d span(s) (%s); %s",
                         worker_id, len(spans), exc,
                         "dropped" if refused else "requeued")

    # one span over the whole loop: its *self time* is exactly the
    # otherwise-unattributed glue between tasks (notify hooks, record
    # serialization, heartbeat teardown), so a cleanly-exiting worker's
    # trace accounts for ~100% of its wall clock.  A killed worker never
    # emits it -- the chaos bar (>=95%) tolerates that lost tail.
    try:
        with tracer.span("worker.run", worker=worker_id):
            while True:
                try:
                    lease_start = time.perf_counter()
                    grant = client.lease(LeaseRequest(worker_id))
                    tracer.event("worker.lease",
                                 time.perf_counter() - lease_start)
                    connect_failures = 0
                except CLIENT_ERRORS as exc:
                    connect_failures += 1
                    if connect_failures >= max_connect_failures:
                        logger.error("worker %s giving up after %d consecutive "
                                     "connect failures: %s", worker_id,
                                     connect_failures, exc)
                        raise
                    logger.warning("worker %s cannot reach scheduler (%s); "
                                   "retry %d/%d", worker_id, exc,
                                   connect_failures, max_connect_failures)
                    notify("lost", {"error": str(exc),
                                    "failures": connect_failures})
                    sleep(poll_interval)
                    tracer.event("worker.idle", poll_interval, reason="lost")
                    continue
                if grant.task is None:
                    if exit_on_idle and grant.done:
                        logger.info("worker %s: all campaigns done after %d "
                                    "task(s); exiting", worker_id, executed)
                        return executed
                    notify("idle", grant)
                    sleep(poll_interval)
                    tracer.event("worker.idle", poll_interval, reason="no_task")
                    ship(last_campaign)
                    continue
                campaign, task_id = grant.campaign, grant.task_id
                last_campaign = campaign or last_campaign
                context = grant.trace
                logger.info("worker %s leased task %s (campaign %s)", worker_id,
                            task_id, campaign)
                notify("lease", grant)
                # heartbeat at a third of the ttl: two missed beats of slack
                interval = max(0.05, (grant.ttl or 30.0) / 3.0)
                heart = _Heartbeat(client, worker_id, campaign, task_id,
                                   interval)
                try:
                    span_tags = {"task_id": task_id, "campaign": campaign,
                                 "worker": worker_id}
                    if context is not None:
                        span_tags["trace"] = context.trace_id
                        if context.parent_span is not None:
                            span_tags["remote_parent"] = context.parent_span
                    with tracer.span("worker.task", **span_tags):
                        record = execute_task(grant.task)
                finally:
                    heart.stop()
                try:
                    complete_start = time.perf_counter()
                    ack = client.complete(
                        CompleteRequest(worker_id, record, campaign))
                    tracer.event("worker.complete",
                                 time.perf_counter() - complete_start,
                                 task_id=task_id)
                except CLIENT_ERRORS as exc:
                    # the record is lost but the work is not: the lease
                    # expires and another worker recomputes the identical
                    # record
                    logger.warning("worker %s could not report task %s (%s); "
                                   "lease will expire and the task will be "
                                   "recomputed", worker_id, task_id, exc)
                    notify("lost", {"error": str(exc), "task_id": task_id})
                    sleep(poll_interval)
                    continue
                ship(campaign)
                executed += 1
                _WORKER_TASKS.inc()
                logger.info("worker %s finished task %s (status %s)", worker_id,
                            task_id, record.get("status"))
                notify("record", {"record": record, "ack": ack})
                if max_tasks is not None and executed >= max_tasks:
                    logger.info("worker %s reached max_tasks=%d; exiting",
                                worker_id, max_tasks)
                    return executed
    finally:
        ship(last_campaign)
        if owned_tracer:
            set_tracer(shipper._underlying)
