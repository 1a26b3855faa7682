"""Lease-based campaign scheduler: the service's task state machine.

:class:`CampaignScheduler` owns one campaign's progress: it expands the
spec once, subtracts what the store already completed, and thereafter
answers three events -- *a worker wants work* (:meth:`next_task`), *a
worker is still alive* (:meth:`heartbeat`), *a worker finished something*
(:meth:`report`) -- plus a periodic :meth:`tick` that steals expired
leases back from dead workers.  It never executes tasks and never blocks
on them: all methods return immediately, so one scheduler can feed any
number of workers through any front end (in-process threads, the HTTP
server, or both at once).

Fault model: a worker that vanishes (``kill -9``, network partition)
simply stops heartbeating; its lease expires after ``lease_ttl`` and the
task returns to pending for another worker to steal.  A task that *fails*
(records an error) is retried with the campaign's
:class:`~repro.campaigns.retry.RetryPolicy` -- exponential backoff gates
re-issue, and once attempts are exhausted the task is parked as
permanently failed.  Because each task's seed is baked into its payload,
any interleaving of workers, crashes and retries converges to the same
store records as a serial run.

Determinism of stamped metadata: ``attempt`` counts *records* (so a task
whose first worker died before reporting is still attempt 1) and
``backoff_seconds`` is the policy's deterministic delay for that attempt,
not measured wall time -- both identical to what a serial
:class:`~repro.campaigns.runner.CampaignRunner` stamps.
"""

from __future__ import annotations

import logging
import threading
import time
from collections import deque
from typing import Callable

from ...obs import REGISTRY
from ..retry import NO_RETRY, RetryPolicy
from ..spec import CampaignSpec, TaskSpec
from ..store import STATUS_DONE, ResultStore
from .leases import Lease, LeaseTable

logger = logging.getLogger("repro.service.scheduler")

_LEASE_GRANTS = REGISTRY.counter(
    "repro_lease_grants_total", "Task leases granted to workers")
_LEASE_RENEWALS = REGISTRY.counter(
    "repro_lease_renewals_total", "Lease renewals via heartbeat")
_LEASE_EXPIRIES = REGISTRY.counter(
    "repro_lease_expiries_total",
    "Leases expired (stolen back from presumed-dead workers)")
_ZOMBIE_REPORTS = REGISTRY.counter(
    "repro_lease_zombie_reports_total",
    "Duplicate reports dropped after a lease was stolen and refilled")
_TASK_RETRIES = REGISTRY.counter(
    "repro_task_retries_total", "Failed tasks scheduled for another attempt")
_TASKS_COMPLETED = REGISTRY.counter(
    "repro_tasks_completed_total", "Tasks completed successfully")
_TASKS_FAILED = REGISTRY.counter(
    "repro_tasks_failed_total", "Tasks parked as permanently failed")

#: Completion timestamps kept for the throughput window (tasks/s, ETA).
_RATE_WINDOW = 64

#: Default lease lifetime.  Workers heartbeat at ttl / 3, so a healthy
#: worker never comes within two missed beats of losing its lease.
DEFAULT_LEASE_TTL = 30.0


class CampaignScheduler:
    """Thread-safe lease-issuing scheduler for one campaign.

    Args:
        spec: The campaign grid.
        store: Result store (the scheduler is its only writer).
        leases: Lease table; defaults to one persisted beside the store
            (``leases.jsonl``), or memory-only for ephemeral stores.
        retry: Failed-task retry policy.
        lease_ttl: Seconds a lease lives between heartbeats.
        max_outstanding: Backpressure bound on simultaneously leased
            tasks (``None`` = one per asking worker, unbounded).
        clock: Injectable wall clock (tests).
    """

    def __init__(self, spec: CampaignSpec, store: ResultStore,
                 leases: LeaseTable | None = None,
                 retry: RetryPolicy = NO_RETRY,
                 lease_ttl: float = DEFAULT_LEASE_TTL,
                 max_outstanding: int | None = None,
                 clock: Callable[[], float] = time.time):
        if max_outstanding is not None and max_outstanding < 1:
            raise ValueError("max_outstanding must be >= 1")
        self.spec = spec
        self.store = store
        if leases is None:
            leases = (LeaseTable(clock=clock) if store.path is None else
                      LeaseTable.open(store.path / "leases.jsonl",
                                      clock=clock))
        self.leases = leases
        self.retry = retry
        self.lease_ttl = float(lease_ttl)
        self.max_outstanding = max_outstanding
        self.clock = clock
        self._lock = threading.RLock()
        grid = spec.tasks()
        self._order = [t.task_id for t in grid]
        self._tasks = {t.task_id: t for t in grid}
        self._completed = set(store.completed_ids())
        self._failed_final = {
            tid for tid in store.failed_ids()
            if retry.exhausted(store.attempts(tid))}
        #: Backoff gates: task_id -> earliest re-issue time.
        self._not_before: dict[str, float] = {}
        self._stolen = 0
        #: Throughput bookkeeping: when this scheduler started, how many
        #: tasks the store already held, and a sliding window of
        #: completion times (clock units) for the tasks/s estimate.
        self._started = self.clock()
        self._initial_done = len(self._completed)
        self._completion_times: deque[float] = deque(maxlen=_RATE_WINDOW)

    # ------------------------------------------------------------------
    # Worker-facing events
    # ------------------------------------------------------------------
    def next_task(self, worker_id: str) -> tuple[TaskSpec, Lease] | None:
        """Lease the first available task to ``worker_id``.

        ``None`` means *no work right now*: everything is done, leased
        out, backing off, or the outstanding-lease bound is hit.  Callers
        should poll again (or stop, if :attr:`done`).
        """
        with self._lock:
            self.tick()
            if (self.max_outstanding is not None
                    and len(self.leases) >= self.max_outstanding):
                return None
            now = self.clock()
            for tid in self._order:
                if tid in self._completed or tid in self._failed_final:
                    continue
                if self.leases.get(tid) is not None:
                    continue
                if now < self._not_before.get(tid, 0.0):
                    continue
                lease = self.leases.lease(tid, worker_id, self.lease_ttl)
                if lease is not None:
                    _LEASE_GRANTS.inc()
                    logger.debug("leased task %s to worker %s", tid,
                                 worker_id)
                    return self._tasks[tid], lease
            return None

    def heartbeat(self, worker_id: str,
                  task_ids: list[str] | None = None) -> list[str]:
        """Renew ``worker_id``'s leases (all of them when ``task_ids`` is
        omitted); returns the ids actually renewed.  An id missing from
        the return value means the lease was lost (expired + stolen) and
        the worker should abandon that task."""
        with self._lock:
            if task_ids is None:
                task_ids = [l.task_id
                            for l in self.leases.held_by(worker_id)]
            renewed = []
            for tid in task_ids:
                if self.leases.renew(tid, worker_id,
                                     self.lease_ttl) is not None:
                    renewed.append(tid)
            if renewed:
                _LEASE_RENEWALS.inc(len(renewed))
            lost = set(task_ids) - set(renewed)
            if lost:
                logger.info("worker %s heartbeat: %d lease(s) already "
                            "lost (%s)", worker_id, len(lost),
                            ", ".join(sorted(lost)))
            return renewed

    def report(self, worker_id: str, record: dict) -> bool:
        """Accept one finished-task record from a worker.

        Returns False (record dropped) for unknown tasks and for tasks
        already completed -- the latter happens when a presumed-dead
        worker finishes after its lease was stolen and the thief also
        finished; both produced the same deterministic payload, so the
        duplicate is simply ignored.  A record for a task that was never
        leased, or whose live lease another worker holds, is refused
        too, and nothing is written or released.  The record is stamped
        with its ``attempt``/``backoff_seconds`` before the append,
        mirroring the serial runner.
        """
        tid = record.get("task_id")
        with self._lock:
            if tid not in self._tasks or tid in self._completed:
                if tid is not None:  # zombie still held a stale lease
                    self.leases.release(tid, worker_id)
                    _ZOMBIE_REPORTS.inc()
                    logger.info("dropped duplicate report for task %s "
                                "from worker %s (lease was stolen)", tid,
                                worker_id)
                return False
            lease = self.leases.get(tid)
            if self.leases.grants(tid) == 0 or (
                    lease is not None and lease.worker_id != worker_id
                    and not lease.expired(self.clock())):
                logger.warning("refused report for task %s from worker %s: "
                               "it holds no lease on the task", tid,
                               worker_id)
                return False
            attempt = self.store.attempts(tid) + 1
            record = dict(record)
            record["attempt"] = attempt
            record["backoff_seconds"] = self.retry.delay(attempt)
            record["worker_id"] = worker_id
            self.store.append(record)
            self.leases.release(tid)
            if record["status"] == STATUS_DONE:
                self._completed.add(tid)
                self._not_before.pop(tid, None)
                self._completion_times.append(self.clock())
                _TASKS_COMPLETED.inc()
                logger.debug("task %s done by worker %s (attempt %d)",
                             tid, worker_id, attempt)
            elif self.retry.exhausted(attempt):
                self._failed_final.add(tid)
                _TASKS_FAILED.inc()
                logger.warning("task %s permanently failed after %d "
                               "attempt(s) (worker %s)", tid, attempt,
                               worker_id)
            else:
                backoff = self.retry.delay(attempt + 1)
                self._not_before[tid] = self.clock() + backoff
                _TASK_RETRIES.inc()
                logger.warning("task %s failed (attempt %d, worker %s); "
                               "retrying after %.1fs", tid, attempt,
                               worker_id, backoff)
            return True

    # ------------------------------------------------------------------
    # Housekeeping
    # ------------------------------------------------------------------
    def tick(self, now: float | None = None) -> list[str]:
        """Expire overdue leases, returning their task ids to pending."""
        with self._lock:
            stolen = []
            for lease in self.leases.expired(now):
                self.leases.expire(lease.task_id)
                stolen.append(lease.task_id)
                _LEASE_EXPIRIES.inc()
                logger.warning("lease on task %s expired (worker %s "
                               "presumed dead); task back to pending",
                               lease.task_id, lease.worker_id)
            self._stolen += len(stolen)
            return stolen

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    @property
    def done(self) -> bool:
        """Every task completed or permanently failed."""
        with self._lock:
            return len(self._completed) + len(self._failed_final) \
                == len(self._order)

    def counts(self) -> dict:
        """Progress snapshot: totals plus per-strategy breakdown."""
        with self._lock:
            done = len(self._completed)
            failed = len(self._failed_final)
            total = len(self._order)
            per_strategy: dict[str, dict[str, int]] = {}
            for tid in self._order:
                row = per_strategy.setdefault(
                    self._tasks[tid].strategy,
                    {"total": 0, "done": 0, "failed": 0, "pending": 0})
                row["total"] += 1
                if tid in self._completed:
                    row["done"] += 1
                elif tid in self._failed_final:
                    row["failed"] += 1
                else:
                    row["pending"] += 1
            # Throughput over the recent-completions window, falling back
            # to the whole-run average; both guard against a frozen or
            # injected clock (tests), where rate stays unknown (None).
            now = self.clock()
            window = self._completion_times
            rate = None
            if len(window) >= 2 and window[-1] > window[0]:
                rate = (len(window) - 1) / (window[-1] - window[0])
            elif done > self._initial_done and now > self._started:
                rate = (done - self._initial_done) / (now - self._started)
            pending = total - done - failed
            if pending == 0:
                eta = 0.0
            elif rate:
                eta = pending / rate
            else:
                eta = None
            return {
                "total": total, "done": done, "failed": failed,
                "pending": pending,
                "leased": len(self.leases),
                "backing_off": sum(
                    1 for tid, t in self._not_before.items()
                    if t > self.clock()
                    and tid not in self._completed
                    and tid not in self._failed_final),
                "leases_stolen": self._stolen,
                "tasks_per_second": (None if rate is None
                                     else round(rate, 4)),
                "eta_seconds": None if eta is None else round(eta, 1),
                "strategies": per_strategy,
            }

    def close(self) -> None:
        self.leases.close()
        self.store.close()

    def __repr__(self) -> str:
        return (f"CampaignScheduler({self.spec.name!r}, "
                f"tasks={len(self._order)}, "
                f"done={len(self._completed)}, leased={len(self.leases)})")
