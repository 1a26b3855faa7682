"""Always-on counters for the word-packed Clifford kernels.

The packed conjugation path (``paulis/table.py``,
``stabilizer/tableau.py``) is the hot loop below every
``loss.evaluate_many`` span; this module gives it a profile without
timing it.  Call sites bump plain integer attributes on the process
singleton :data:`KERNEL` -- a few Python int adds per *gate
application* (never per row or word), derived from shapes the kernel
already computed, so the counters stay inside the <2% observability
overhead budget (``benchmarks/test_obs_overhead.py`` asserts they
advance *and* that the budget holds).

Counter vocabulary:

- ``words``         uint64 words run through a LUT/XOR update
- ``rows``          Pauli-table rows touched by those updates
- ``lut_hits`` / ``lut_misses``   conjugation + leveled LUT cache
- ``fused_passes``  population-wide single passes over a stacked table:
                    one per leveled-LUT slot and one per bit-sliced
                    single-qubit Clifford layer -- a noiseless RY/RZ
                    layer or a run of rotations in the noisy walk (an
                    nCAFQA batch on the hardware-efficient ansatz is
                    2 + 2)

Process-pool children bump their own (fresh) singleton; the engine
ships ``KERNEL.snapshot()`` deltas back over the existing cache-stats
return path and the parent folds them in with :meth:`KernelCounters.
add` -- the same aggregation idiom as ``EngineResult.cache_stats``.

:func:`publish_kernel_metrics` mirrors the singleton into Prometheus
counters (monotonic, delta-since-last-publish) so ``GET /metrics``
exposes fleet-wide word throughput.
"""

from __future__ import annotations

import contextlib
import threading
import time

from .metrics import REGISTRY
from .tracer import get_tracer

#: The snapshot/delta field order (stable; used by wire payloads too).
FIELDS = ("words", "rows", "lut_hits", "lut_misses", "fused_passes")


class KernelCounters:
    """Plain-attribute counters: increments are unlocked int adds.

    Lock-free on purpose -- CPython attribute adds on ints can race
    across threads only by *losing* increments, never corrupting, and
    the packed kernels run single-threaded per loss evaluation; the
    accounting is a profile, not a ledger.
    """

    __slots__ = FIELDS

    def __init__(self):
        self.reset()

    def reset(self) -> None:
        self.words = 0
        self.rows = 0
        self.lut_hits = 0
        self.lut_misses = 0
        self.fused_passes = 0

    def snapshot(self) -> dict:
        return {name: getattr(self, name) for name in FIELDS}

    def delta(self, since: dict) -> dict:
        """Counters advanced since a previous :meth:`snapshot`."""
        return {name: getattr(self, name) - since.get(name, 0)
                for name in FIELDS}

    def add(self, delta: dict) -> None:
        """Fold a child's delta into this (parent) singleton."""
        for name in FIELDS:
            value = delta.get(name, 0)
            if value:
                setattr(self, name, getattr(self, name) + int(value))


#: Process singleton every packed-kernel call site increments.
KERNEL = KernelCounters()

@contextlib.contextmanager
def kernel_event(name: str, *, passes: bool = False):
    """Time the block as one aggregated kernel event of the current tracer.

    The event carries the block's ``words`` and ``rows`` counter advance
    (and ``passes``, the fused-pass advance, when asked for).  Nothing is
    snapshotted or timed while tracing is off.
    """
    tracer = get_tracer()
    if not tracer.enabled:
        yield
        return
    before = KERNEL.snapshot()
    start = time.perf_counter()
    yield
    delta = KERNEL.delta(before)
    tags = {"words": delta["words"], "rows": delta["rows"]}
    if passes:
        tags["passes"] = delta["fused_passes"]
    tracer.event(name, time.perf_counter() - start, **tags)


_PROM = {
    "words": REGISTRY.counter(
        "repro_kernel_words_total",
        "uint64 words conjugated by the packed kernels"),
    "rows": REGISTRY.counter(
        "repro_kernel_rows_total",
        "Pauli-table rows touched by packed kernel updates"),
    "lut_hits": REGISTRY.counter(
        "repro_kernel_lut_hits_total",
        "Conjugation/leveled LUT cache hits"),
    "lut_misses": REGISTRY.counter(
        "repro_kernel_lut_misses_total",
        "Conjugation/leveled LUT cache misses (builds)"),
    "fused_passes": REGISTRY.counter(
        "repro_kernel_fused_passes_total",
        "Leveled-LUT and rotation-layer single passes over a packed table"),
}

_publish_lock = threading.Lock()
_published = {name: 0 for name in FIELDS}


def publish_kernel_metrics() -> None:
    """Mirror :data:`KERNEL` into Prometheus (idempotent, monotonic).

    Prometheus counters only go up, so each call publishes the delta
    since the last publish -- safe to call from ``/metrics`` scrapes at
    any frequency.
    """
    with _publish_lock:
        snap = KERNEL.snapshot()
        for name in FIELDS:
            advance = snap[name] - _published[name]
            if advance > 0:
                _PROM[name].inc(advance)
                _published[name] = snap[name]
