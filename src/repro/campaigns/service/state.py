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
        self._trace_ready = False
        self._trace_fh = None
        self._trace_t0: float | None = None
        self._trace_mem: list[str] = []

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
        """Rendered report, cached until the store gains records."""
        from ..aggregate import CampaignAggregate

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
    def trace_path(self) -> Path | None:
        if self.store.path is None:
            return None
        return Path(self.store.path) / "trace.jsonl"

    def _ensure_trace(self, unix_t0: float) -> None:
        """Open (or recover) this campaign's merged trace sink.

        A restarted server appending to an existing ``trace.jsonl``
        adopts its recorded ``trace_id`` and ``unix_t0`` anchor, so
        spans shipped before and after the restart stay on one
        coherent timebase under one trace id.
        """
        if self._trace_ready:
            return
        path = self.trace_path
        if path is not None and path.exists():
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
            self._trace_ready = True
            return
        self._trace_t0 = unix_t0
        meta = {"kind": "meta", "version": 1, "clock": "unix_relative",
                "merged": True, "trace_id": self.trace_id,
                "campaign": self.id, "unix_t0": unix_t0, **build_info()}
        line = json.dumps(meta) + "\n"
        if path is None:
            self._trace_mem.append(line)
        else:
            self._trace_fh = path.open("w", encoding="utf-8")
            self._trace_fh.write(line)
            self._trace_fh.flush()
        self._trace_ready = True

    def ingest_spans(self, worker_id: str, unix_t0: float,
                     spans: list[dict]) -> int:
        """Merge one worker's span batch into the campaign trace.

        Normalization makes batches from independent processes cohere:
        span/parent ids are namespaced ``"<worker>:<id>"`` (the summary
        treats ids as opaque keys), ``start`` offsets are rebased from
        the worker's monotonic clock onto the campaign's unix anchor
        via the batch's ``unix_t0``, and every span is stamped with a
        top-level ``"worker"`` for per-worker breakdowns.
        """
        accepted = 0
        with self._trace_lock:
            self._ensure_trace(unix_t0)
            shift = unix_t0 - self._trace_t0
            lines = []
            for span in spans:
                if not isinstance(span, dict) or "id" not in span:
                    continue
                record = dict(span)
                record["id"] = f"{worker_id}:{span['id']}"
                if span.get("parent") is not None:
                    record["parent"] = f"{worker_id}:{span['parent']}"
                record["start"] = round(float(span.get("start", 0.0))
                                        + shift, 9)
                record["worker"] = worker_id
                lines.append(json.dumps(record, separators=(",", ":"))
                             + "\n")
                accepted += 1
            if self._trace_fh is not None:
                self._trace_fh.writelines(lines)
                self._trace_fh.flush()
            else:
                self._trace_mem.extend(lines)
        return accepted

    def trace_text(self) -> str | None:
        """The merged trace as NDJSON text (``GET /trace``); ``None``
        until the first batch arrives."""
        with self._trace_lock:
            if not self._trace_ready:
                return None
            path = self.trace_path
            if path is None:
                return "".join(self._trace_mem)
            if self._trace_fh is not None:
                self._trace_fh.flush()
            return path.read_text(encoding="utf-8")

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
    def submit(self, spec_payload: dict) -> tuple[Campaign, bool]:
        """Register a campaign from a spec payload.

        Returns ``(campaign, resumed)``: idempotent on the spec's
        content-addressed id -- an already-registered or on-disk campaign
        is attached and resumed, never restarted.
        """
        spec = CampaignSpec.from_dict(spec_payload)
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
    # Worker-facing dispatch (shared by HTTP handlers and local workers)
    # ------------------------------------------------------------------
    def lease(self, worker_id: str) -> dict:
        """One unit of work for ``worker_id``, as a wire-ready payload.

        ``{"task": null, "done": bool}`` when nothing is available;
        otherwise the task payload plus its lease metadata.  Campaigns
        are drained in registration order.
        """
        for campaign in self.campaigns():
            grant = campaign.scheduler.next_task(worker_id)
            if grant is not None:
                task, lease = grant
                context = TraceContext(trace_id=campaign.trace_id,
                                       parent_span=current_span_id(),
                                       campaign=campaign.id,
                                       task_id=lease.task_id,
                                       worker=worker_id)
                return {"task": task.to_dict(),
                        "campaign": campaign.id,
                        "task_id": lease.task_id,
                        "deadline": lease.deadline,
                        "ttl": campaign.scheduler.lease_ttl,
                        "scheduling_attempt": lease.attempt,
                        "trace": context.to_dict()}
        return {"task": None, "done": self.all_done}

    def heartbeat(self, worker_id: str,
                  leases: list[dict] | None = None) -> dict:
        """Renew a worker's leases; ``leases`` is ``[{"campaign",
        "task_id"}, ...]`` (``None`` renews everything it holds).

        Raises:
            ValueError: on malformed ``leases`` (see :func:`_check_leases`),
                before any lease is renewed.
        """
        _check_leases(leases)
        renewed = []
        if leases is None:
            for campaign in self.campaigns():
                renewed.extend(
                    {"campaign": campaign.id, "task_id": tid}
                    for tid in campaign.scheduler.heartbeat(worker_id))
        else:
            for entry in leases:
                try:
                    campaign = self.get(entry.get("campaign"))
                except KeyError:
                    continue
                for tid in campaign.scheduler.heartbeat(
                        worker_id, [entry["task_id"]]):
                    renewed.append({"campaign": campaign.id,
                                    "task_id": tid})
        return {"renewed": renewed}

    def complete(self, worker_id: str, cid: str | None,
                 record: dict) -> dict:
        """Accept a finished-task record from a worker.

        Raises:
            ValueError: when ``record`` is not an object.
        """
        if not isinstance(record, dict):
            raise ValueError("record must be an object")
        campaign = self.get(cid)
        accepted = campaign.scheduler.report(worker_id, record)
        return {"accepted": accepted, "done": campaign.scheduler.done}

    def ingest_traces(self, payload: dict) -> dict:
        """Accept a worker's span batch (``POST /traces``).

        Spans route to campaigns by their ``tags.campaign`` (stamped on
        ``worker.task`` spans and inherited by the batch-level hint for
        everything else); spans for unknown campaigns are counted as
        dropped, not fatal -- a worker must never crash because the
        server forgot a campaign.

        Raises:
            ValueError: on a malformed batch (see :func:`_check_span_batch`),
                before anything is written.
        """
        _check_span_batch(payload)
        worker_id = str(payload.get("worker_id") or "unknown")
        unix_t0 = float(payload.get("unix_t0") or 0.0)
        hint = payload.get("campaign")
        groups: dict[str | None, list[dict]] = {}
        for span in payload.get("spans") or []:
            cid = (span.get("tags") or {}).get("campaign") or hint
            groups.setdefault(cid, []).append(span)
        accepted = 0
        dropped = 0
        for cid, group in groups.items():
            try:
                campaign = self.get(cid)
            except KeyError:
                dropped += len(group)
                continue
            accepted += campaign.ingest_spans(worker_id, unix_t0, group)
        return {"accepted": accepted, "dropped": dropped}

    def tick(self) -> int:
        """Expire overdue leases across all campaigns (ticker thread)."""
        return sum(len(c.scheduler.tick()) for c in self.campaigns())

    def close(self) -> None:
        for campaign in self.campaigns():
            campaign.close_trace()
            campaign.scheduler.close()


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _check_leases(leases) -> None:
    """Validate a ``POST /heartbeat`` lease list before any renewal.

    ``leases`` is ``None`` or a list of objects, each with a string
    ``task_id`` and a string or absent ``campaign``.

    Raises:
        ValueError: on the first violation.
    """
    if leases is not None and (
            not isinstance(leases, list)
            or not all(isinstance(entry, dict)
                       and isinstance(entry.get("task_id"), str)
                       and isinstance(entry.get("campaign") or "", str)
                       for entry in leases)):
        raise ValueError("leases must be a list of objects with string "
                         "task_id and campaign")


def _check_span_batch(payload: dict) -> None:
    """Validate a whole ``POST /traces`` batch before any write.

    ``spans`` must be a list of objects, each with an ``id``; a span's
    ``tags`` must be an object, its ``start`` a number, and the batch's
    ``unix_t0`` a number (``null`` or absent fields take their
    defaults); campaign ids must be strings.

    Raises:
        ValueError: naming the first violation.
    """
    spans = payload.get("spans")
    if spans is not None and not isinstance(spans, list):
        raise ValueError("spans must be a list")
    if payload.get("unix_t0") is not None \
            and not _is_number(payload["unix_t0"]):
        raise ValueError("unix_t0 must be a number")
    campaigns = [payload.get("campaign")]
    for span in spans or []:
        if not isinstance(span, dict) or "id" not in span:
            raise ValueError("every span must be an object with an id")
        tags = span.get("tags")
        if tags is not None and not isinstance(tags, dict):
            raise ValueError("span tags must be an object")
        if "start" in span and not _is_number(span["start"]):
            raise ValueError("span start must be a number")
        campaigns.append((tags or {}).get("campaign"))
    if any(c is not None and not isinstance(c, str) for c in campaigns):
        raise ValueError("campaign ids must be strings")
