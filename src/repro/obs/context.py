"""Trace-context propagation + span shipping for the campaign fleet.

One campaign, one trace: the scheduler mints a 16-hex ``trace_id`` per
campaign and attaches a :class:`TraceContext` to every lease grant
(``grant["trace"]``).  The worker tags its ``worker.task`` span with the
context, so every span in the fleet is attributable to (trace, campaign,
task, worker) without any clock coordination between hosts.

Workers do not write their own trace files when connected to a service:
``run_worker`` installs a :class:`ShippingTracer` that buffers finished
spans in memory and batch-ships them to ``POST /traces`` after each
completed task (and on idle polls).  The server merges every worker's
batch into a single per-campaign ``trace.jsonl``
(:meth:`~repro.campaigns.service.state.Campaign.ingest_spans`):

- span ids are namespaced ``"<worker_id>:<local_id>"`` so parent links
  survive the merge (the summary treats ids as opaque keys),
- ``start`` offsets are rebased from each worker's monotonic clock onto
  the campaign's unix timebase via the batch's ``unix_t0`` anchor,
- each span is stamped with a top-level ``"worker"`` field for
  per-worker breakdowns (word-ops/s, perfetto process lanes).

Shipping failures requeue the batch (one the collector refuses is
dropped) -- a briefly unreachable collector drops nothing, and a
SIGKILL'd worker loses only its unshipped tail (the chaos test bounds
that loss at <5% of wall clock).
"""

from __future__ import annotations

import threading
import time
import uuid
from dataclasses import dataclass

from .tracer import _RecordingBase


def new_trace_id() -> str:
    """16-hex campaign trace id (uuid4 tail; no RNG-stream contact)."""
    return uuid.uuid4().hex[:16]


@dataclass(frozen=True)
class TraceContext:
    """The ids that tie a leased task back to its campaign trace."""

    trace_id: str
    parent_span: str | int | None = None
    campaign: str | None = None
    task_id: str | None = None
    worker: str | None = None

    def to_dict(self) -> dict:
        """Wire form (lease payloads); omits empty fields."""
        out = {"trace_id": self.trace_id}
        for key in ("parent_span", "campaign", "task_id", "worker"):
            value = getattr(self, key)
            if value is not None:
                out[key] = value
        return out

    @classmethod
    def from_dict(cls, payload: dict | None) -> "TraceContext | None":
        """Parse a wire payload; ``None``/malformed -> ``None`` (old
        schedulers just don't send one)."""
        if not isinstance(payload, dict) or "trace_id" not in payload:
            return None
        return cls(trace_id=str(payload["trace_id"]),
                   parent_span=payload.get("parent_span"),
                   campaign=payload.get("campaign"),
                   task_id=payload.get("task_id"),
                   worker=payload.get("worker"))

    def tags(self) -> dict:
        """Span tags for a ``worker.task`` span (drops empties)."""
        return {k: v for k, v in (("trace", self.trace_id),
                                  ("campaign", self.campaign),
                                  ("task_id", self.task_id),
                                  ("worker", self.worker))
                if v is not None}


class ShippingTracer(_RecordingBase):
    """Buffers finished spans for batch shipment to a collector.

    Drop-in recording tracer for ``set_tracer``: spans nest through the
    usual per-thread stacks and are appended to an in-memory buffer on
    finish.  The worker loop calls :meth:`drain` at natural barriers
    (task complete, idle poll) and POSTs the batch; :meth:`requeue`
    puts a failed batch back at the front.

    ``underlying`` optionally receives every record too (pass-through),
    so a worker started with ``--trace PATH`` keeps its local file
    while also shipping.  The shipper owns the span ids either way, so
    parent links are consistent in both sinks.
    """

    def __init__(self, underlying=None):
        super().__init__()
        self.unix_t0 = time.time()
        self._buffer: list[dict] = []
        self._buffer_lock = threading.Lock()
        self._underlying = underlying

    def _emit(self, record: dict) -> None:
        with self._buffer_lock:
            self._buffer.append(record)
        if self._underlying is not None:
            self._underlying._emit(record)

    def pending(self) -> int:
        with self._buffer_lock:
            return len(self._buffer)

    def drain(self) -> list[dict]:
        """Take every buffered record (oldest first)."""
        with self._buffer_lock:
            batch, self._buffer = self._buffer, []
        return batch

    def requeue(self, records: list[dict]) -> None:
        """Put a failed batch back ahead of newer records."""
        if not records:
            return
        with self._buffer_lock:
            self._buffer[:0] = records

    def close(self) -> None:
        # does not own `underlying`; the installer flushes via drain()
        return None
