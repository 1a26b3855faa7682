"""Campaign service: long-lived, fault-tolerant distributed sweeps.

Architecture -- four layers, strictly separated so each is testable
without the ones above it::

    repro serve / repro worker / repro submit        (CLI, http.py)
        |            JSON over HTTP (stdlib http.server; no new deps),
        |            each body parsed once into a protocol.py type
    ServiceState                                     (state.py)
        |  campaign registry: idempotent content-addressed submission,
        |  cross-campaign lease dispatch, cached /report rendering
    CampaignScheduler                                (scheduler.py)
        |  one campaign's state machine: grid expansion minus
        |  completed_ids(), lease handout with backpressure, retry with
        |  exponential backoff (RetryPolicy), expired-lease stealing
    LeaseTable + ResultStore                         (leases.py, store.py)
           append-only JSONL twins beside each other in the store
           directory: results.jsonl is *what finished*, leases.jsonl is
           *who owns what until when* -- both fsync per event, both
           replayable after a crash of the scheduler itself

Execution stays where it always was: workers (in-process threads or
``repro worker`` processes on other machines) run
:func:`~repro.campaigns.runner.execute_task` with per-process caches of
the heavy objects, and ship small JSON records back.

Failure modes and what absorbs them:

==========================  =========================================
failure                     recovery
==========================  =========================================
worker SIGKILL'd mid-task   lease expires after ``lease_ttl``; task
                            returns to pending; any worker steals it
worker wedged (no beat)     same -- heartbeats at ttl/3 keep only
                            *live* workers owning leases
task raises                 failed record appended; retried with
                            exponential backoff up to ``max_attempts``,
                            then parked as permanently failed
scheduler crash             reopen the store: results.jsonl restores
                            completed work, leases.jsonl restores
                            in-flight grants (already expired, hence
                            instantly stealable)
duplicate/zombie report     completed tasks ignore late records; both
                            copies were identical anyway (task seeds
                            are baked into payloads)
second writer on a store    advisory store lock -> StoreLockedError,
                            fail fast instead of interleaving
==========================  =========================================

Determinism: a campaign completed by any fleet -- serial runner, thread
pool, or a flaky 4-worker service losing workers mid-run -- produces
record-for-record identical deterministic payloads (task, result, error,
attempt, backoff_seconds); only wall-clock ``seconds`` and worker
provenance differ.
"""

from ..retry import NO_RETRY, RetryPolicy
from .http import CampaignServer, start_server
from .leases import Lease, LeaseTable
from .protocol import ServiceError
from .scheduler import DEFAULT_LEASE_TTL, CampaignScheduler
from .state import Campaign, ServiceState, campaign_id
from .worker import (
    CLIENT_ERRORS,
    HttpSchedulerClient,
    SchedulerClient,
    default_worker_id,
    run_worker,
)

__all__ = [
    "CLIENT_ERRORS", "Campaign", "CampaignScheduler", "CampaignServer",
    "DEFAULT_LEASE_TTL", "HttpSchedulerClient", "Lease", "LeaseTable",
    "NO_RETRY", "RetryPolicy", "SchedulerClient", "ServiceError",
    "ServiceState", "campaign_id", "default_worker_id", "run_worker",
    "start_server",
]
