"""Service state: the campaign registry behind every front end.

:class:`ServiceState` is what ``repro serve`` actually serves: a registry
of live campaigns (each a :class:`~repro.campaigns.service.scheduler.
CampaignScheduler` over its own store under one root directory), plus the
operations the HTTP handlers and in-process workers share -- idempotent
spec submission, cross-campaign lease handout, status snapshots, and a
cached report layer so ``GET /report`` does not re-aggregate an unchanged
store on every request.

Submission is content-addressed: a spec's campaign id is
``<name>-<hash8>`` of its canonical JSON, so re-submitting the same spec
(a retrying client, a restarted driver) attaches to the existing store
and resumes instead of duplicating work.
"""

from __future__ import annotations

import hashlib
import json
import threading
import time
from pathlib import Path
from typing import Callable

from ...obs import (REGISTRY, TraceContext, build_info, current_span_id,
                    new_trace_id, publish_kernel_metrics,
                    render_prometheus)
from ..report import render_report
from ..retry import NO_RETRY, RetryPolicy
from ..spec import CampaignSpec
from ..store import ResultStore
from .protocol import (CompleteRequest, HeartbeatRequest, LeaseGrant,
                       LeaseRequest, TraceBatch)
from .scheduler import DEFAULT_LEASE_TTL, CampaignScheduler

#: Registry counters surfaced in ``/healthz`` (short key -> metric name).
_HEALTH_COUNTERS = {
    "lease_grants": "repro_lease_grants_total",
    "lease_renewals": "repro_lease_renewals_total",
    "lease_expiries": "repro_lease_expiries_total",
    "tasks_completed": "repro_tasks_completed_total",
    "tasks_failed": "repro_tasks_failed_total",
    "task_retries": "repro_task_retries_total",
}


def campaign_id(spec: CampaignSpec) -> str:
    """Stable content-addressed id: same spec, same campaign."""
    canonical = json.dumps(spec.to_dict(), sort_keys=True,
                           separators=(",", ":"))
    digest = hashlib.sha256(canonical.encode()).hexdigest()[:8]
    return f"{spec.name}-{digest}"


class Campaign:
    """One registered campaign: scheduler + store + cached reports +
    the merged fleet trace collector."""

    def __init__(self, cid: str, scheduler: CampaignScheduler):
        self.id = cid
        self.scheduler = scheduler
        self._report_cache: dict[tuple, tuple[int, str]] = {}
        self._lock = threading.Lock()
        #: one trace per campaign; every lease grant carries this id
        self.trace_id = new_trace_id()
        self._trace_lock = threading.Lock()
        self._trace_fh = None  # opened by the first span batch
        self._trace_t0: float | None = None

    @property
    def store(self) -> ResultStore:
        return self.scheduler.store

    def status(self) -> dict:
        counts = self.scheduler.counts()
        return {"campaign": self.id,
                "name": self.scheduler.spec.name,
                "store": (None if self.store.path is None
                          else str(self.store.path)),
                "complete": self.scheduler.done,
                **counts}

    def report(self, fmt: str = "markdown", tier: str = "device_model",
               improver: str = "clapton") -> str:
        """Rendered report, cached until the store gains records.

        Raises ValueError on an unknown format or tier, or on an
        improver other than the default that is no campaign method (it
        would silently drop every eta table).
        """
        from ..aggregate import TIERS, CampaignAggregate

        methods = self.scheduler.spec.methods
        if tier not in TIERS:
            raise ValueError(f"unknown tier {tier!r}; expected one of "
                             f"{list(TIERS)}")
        if improver != "clapton" and improver not in methods:
            raise ValueError(f"improver {improver!r} is not a method of "
                             f"this campaign; methods: {methods}")
        key = (fmt, tier, improver)
        with self._lock:
            generation = len(self.store)
            cached = self._report_cache.get(key)
            if cached is not None and cached[0] == generation:
                return cached[1]
            aggregate = CampaignAggregate.from_store(self.store)
            if fmt == "csv":
                text = aggregate.to_csv()
            elif fmt == "markdown":
                text = render_report(self.store, tier=tier,
                                     aggregate=aggregate,
                                     improver=improver)
            else:
                raise ValueError(f"unknown report format {fmt!r}; "
                                 f"expected 'markdown' or 'csv'")
            self._report_cache[key] = (generation, text)
            return text

    # ------------------------------------------------------------------
    # Merged fleet trace (POST /traces collector)
    # ------------------------------------------------------------------
    @property
    def trace_path(self) -> Path:
        return Path(self.store.path) / "trace.jsonl"

    def _ensure_trace(self, unix_t0: float) -> None:
        """Open (or recover) this campaign's merged trace sink.

        A restarted server appending to an existing ``trace.jsonl``
        adopts its recorded ``trace_id`` and ``unix_t0`` anchor, so
        spans shipped before and after the restart stay on one
        coherent timebase under one trace id.
        """
        if self._trace_fh is not None:
            return
        path = self.trace_path
        if path.exists():
            try:
                with path.open("r", encoding="utf-8") as fh:
                    first = json.loads(fh.readline())
                if first.get("kind") == "meta":
                    self.trace_id = first.get("trace_id", self.trace_id)
                    self._trace_t0 = first.get("unix_t0")
            except (OSError, json.JSONDecodeError):
                pass  # torn header; rebase on this batch
            if self._trace_t0 is None:
                self._trace_t0 = unix_t0
            self._trace_fh = path.open("a", encoding="utf-8")
            return
        self._trace_t0 = unix_t0
        meta = {"kind": "meta", "version": 1, "clock": "unix_relative",
                "merged": True, "trace_id": self.trace_id,
                "campaign": self.id, "unix_t0": unix_t0, **build_info()}
        self._trace_fh = path.open("w", encoding="utf-8")
        self._trace_fh.write(json.dumps(meta) + "\n")
        self._trace_fh.flush()

    def ingest_spans(self, worker_id: str, unix_t0: float,
                     spans) -> int:
        """Merge one worker's span batch into the campaign trace.

        Normalization makes batches from independent processes cohere:
        span/parent ids are namespaced ``"<worker>:<id>"`` (the summary
        treats ids as opaque keys), ``start`` offsets are rebased from
        the worker's monotonic clock onto the campaign's unix anchor
        via the batch's ``unix_t0``, and every span is stamped with a
        top-level ``"worker"`` for per-worker breakdowns.
        """
        with self._trace_lock:
            self._ensure_trace(unix_t0)
            shift = unix_t0 - self._trace_t0
            lines = []
            for span in spans:
                record = dict(span)
                record["id"] = f"{worker_id}:{span['id']}"
                if span.get("parent") is not None:
                    record["parent"] = f"{worker_id}:{span['parent']}"
                record["start"] = round(float(span.get("start", 0.0))
                                        + shift, 9)
                record["worker"] = worker_id
                lines.append(json.dumps(record, separators=(",", ":"))
                             + "\n")
            self._trace_fh.writelines(lines)
            self._trace_fh.flush()
        return len(lines)

    def trace_text(self) -> str | None:
        """The merged trace as NDJSON text (``GET /trace``); ``None``
        until the first batch arrives."""
        with self._trace_lock:
            if self._trace_fh is None:
                return None
            self._trace_fh.flush()
            return self.trace_path.read_text(encoding="utf-8")

    def close_trace(self) -> None:
        with self._trace_lock:
            if self._trace_fh is not None and not self._trace_fh.closed:
                self._trace_fh.flush()
                self._trace_fh.close()


class ServiceState:
    """Registry of live campaigns plus the worker-facing dispatch seam.

    Args:
        root: Directory submitted campaigns' stores are created under.
        retry: Retry policy applied to every campaign's failed tasks.
        lease_ttl: Lease lifetime handed to every scheduler.
        max_outstanding: Per-campaign backpressure bound.
        clock: Injectable wall clock (tests).
    """

    def __init__(self, root: str | Path, retry: RetryPolicy = NO_RETRY,
                 lease_ttl: float = DEFAULT_LEASE_TTL,
                 max_outstanding: int | None = None,
                 clock: Callable[[], float] = time.time):
        self.root = Path(root)
        self.retry = retry
        self.lease_ttl = lease_ttl
        self.max_outstanding = max_outstanding
        self.clock = clock
        self.started = clock()
        self._campaigns: dict[str, Campaign] = {}
        self._lock = threading.RLock()

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def submit(self, spec: CampaignSpec) -> tuple[Campaign, bool]:
        """Register a campaign.

        Returns ``(campaign, resumed)``: idempotent on the spec's
        content-addressed id -- an already-registered or on-disk campaign
        is attached and resumed, never restarted.
        """
        cid = campaign_id(spec)
        with self._lock:
            existing = self._campaigns.get(cid)
            if existing is not None:
                return existing, True
            store_path = self.root / f"{cid}.campaign"
            resumed = (store_path / "results.jsonl").exists()
            if resumed:
                store = ResultStore.open(store_path)
            else:
                self.root.mkdir(parents=True, exist_ok=True)
                store = ResultStore.create(store_path, spec)
            return self._register(cid, spec, store), resumed

    def attach(self, store_path: str | Path) -> Campaign:
        """Register an existing store directory (``repro serve --store``);
        its recorded spec defines the grid."""
        store = ResultStore.open(store_path)
        cid = campaign_id(store.spec)
        with self._lock:
            if cid in self._campaigns:
                return self._campaigns[cid]
            return self._register(cid, store.spec, store)

    def _register(self, cid: str, spec: CampaignSpec,
                  store: ResultStore) -> Campaign:
        scheduler = CampaignScheduler(
            spec, store, retry=self.retry, lease_ttl=self.lease_ttl,
            max_outstanding=self.max_outstanding, clock=self.clock)
        campaign = Campaign(cid, scheduler)
        self._campaigns[cid] = campaign
        return campaign

    # ------------------------------------------------------------------
    # Lookup / status
    # ------------------------------------------------------------------
    def get(self, cid: str | None = None) -> Campaign:
        """Campaign by id; with ``None``, the sole registered campaign.

        Raises KeyError with the known ids when the lookup is ambiguous
        or misses.
        """
        with self._lock:
            if cid is None:
                if len(self._campaigns) == 1:
                    return next(iter(self._campaigns.values()))
                raise KeyError(
                    f"campaign id required ({len(self._campaigns)} "
                    f"registered: {sorted(self._campaigns)})")
            if cid not in self._campaigns:
                raise KeyError(f"unknown campaign {cid!r}; "
                               f"registered: {sorted(self._campaigns)}")
            return self._campaigns[cid]

    def campaigns(self) -> list[Campaign]:
        with self._lock:
            return list(self._campaigns.values())

    def status(self) -> dict:
        return {"uptime_seconds": self.clock() - self.started,
                "campaigns": [c.status() for c in self.campaigns()]}

    def health(self) -> dict:
        """``/healthz`` payload: liveness plus lease/task counter totals.

        Counter totals come from the process-wide metric registry, so
        they cover every campaign this process has served (including
        closed ones) -- a cheap aggregate view for load balancers and
        smoke tests; ``/metrics`` has the full labelled breakdown.
        """
        counters = {}
        for key, name in _HEALTH_COUNTERS.items():
            metric = REGISTRY.get(name)
            counters[key] = 0 if metric is None else int(metric.total())
        return {"status": "ok",
                "campaigns": len(self.campaigns()),
                "all_done": self.all_done,
                "uptime_seconds": round(self.clock() - self.started, 3),
                "counters": counters}

    def metrics_text(self) -> str:
        """Prometheus text exposition for ``GET /metrics``.

        Renders the process-wide registry, refreshing the service-level
        gauges first: uptime and one ``repro_campaign_tasks`` series per
        (campaign, state) so dashboards can plot per-campaign progress
        without parsing ``/status`` JSON.
        """
        publish_kernel_metrics()
        uptime = REGISTRY.gauge(
            "repro_uptime_seconds", "Seconds since this service started")
        uptime.set(self.clock() - self.started)
        tasks = REGISTRY.gauge(
            "repro_campaign_tasks",
            "Campaign task counts by state (done/failed/pending/leased)")
        for campaign in self.campaigns():
            counts = campaign.scheduler.counts()
            for state in ("done", "failed", "pending", "leased"):
                tasks.set(counts[state], campaign=campaign.id,
                          state=state)
        return render_prometheus(REGISTRY)

    @property
    def all_done(self) -> bool:
        """True when at least one campaign is registered and all are
        complete (``repro serve --until-done``)."""
        campaigns = self.campaigns()
        return bool(campaigns) and all(c.scheduler.done for c in campaigns)

    # ------------------------------------------------------------------
    # Worker-facing dispatch: the HTTP routes, and the SchedulerClient
    # seam in-process workers call directly
    # ------------------------------------------------------------------
    def lease(self, request: LeaseRequest) -> LeaseGrant:
        """One unit of work for the requesting worker.

        An idle grant (``task=None``) says whether every campaign is
        done; campaigns are drained in registration order.
        """
        worker_id = request.worker_id
        for campaign in self.campaigns():
            grant = campaign.scheduler.next_task(worker_id)
            if grant is not None:
                task, lease = grant
                context = TraceContext(trace_id=campaign.trace_id,
                                       parent_span=current_span_id(),
                                       campaign=campaign.id,
                                       task_id=lease.task_id,
                                       worker=worker_id)
                return LeaseGrant(task=task.to_dict(),
                                  campaign=campaign.id,
                                  task_id=lease.task_id,
                                  deadline=lease.deadline,
                                  ttl=campaign.scheduler.lease_ttl,
                                  scheduling_attempt=lease.attempt,
                                  trace=context)
        return LeaseGrant(done=self.all_done)

    def heartbeat(self, request: HeartbeatRequest) -> dict:
        """Renew the named leases (every lease the worker holds when
        ``request.leases`` is ``None``); unknown campaigns are skipped."""
        worker_id = request.worker_id
        renewed = []
        if request.leases is None:
            for campaign in self.campaigns():
                renewed.extend(
                    {"campaign": campaign.id, "task_id": tid}
                    for tid in campaign.scheduler.heartbeat(worker_id))
        else:
            for ref in request.leases:
                try:
                    campaign = self.get(ref.campaign)
                except KeyError:
                    continue
                for tid in campaign.scheduler.heartbeat(
                        worker_id, [ref.task_id]):
                    renewed.append({"campaign": campaign.id,
                                    "task_id": tid})
        return {"renewed": renewed}

    def complete(self, request: CompleteRequest) -> dict:
        """Accept a finished-task record from a worker.

        Raises:
            KeyError: for an unknown campaign.
        """
        campaign = self.get(request.campaign)
        accepted = campaign.scheduler.report(request.worker_id,
                                             request.record)
        return {"accepted": accepted, "done": campaign.scheduler.done}

    def post_traces(self, batch: TraceBatch) -> dict:
        """Accept a worker's span batch (``POST /traces``).

        Spans route to campaigns by their ``tags.campaign`` (stamped on
        ``worker.task`` spans and inherited by the batch-level hint for
        everything else); spans for unknown campaigns are counted as
        dropped, not fatal -- a worker must never crash because the
        server forgot a campaign.
        """
        groups: dict[str | None, list[dict]] = {}
        for span in batch.spans:
            cid = (span.get("tags") or {}).get("campaign") or batch.campaign
            groups.setdefault(cid, []).append(span)
        accepted = 0
        dropped = 0
        for cid, group in groups.items():
            try:
                campaign = self.get(cid)
            except KeyError:
                dropped += len(group)
                continue
            accepted += campaign.ingest_spans(batch.worker_id,
                                              batch.unix_t0, group)
        return {"accepted": accepted, "dropped": dropped}

    def tick(self) -> int:
        """Expire overdue leases across all campaigns (ticker thread)."""
        return sum(len(c.scheduler.tick()) for c in self.campaigns())

    def close(self) -> None:
        for campaign in self.campaigns():
            campaign.close_trace()
            campaign.scheduler.close()

