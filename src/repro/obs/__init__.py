"""``repro.obs`` -- dependency-free tracing + metrics for every layer.

Architecture
============

Two independent, always-importable substrates:

**Spans** (:mod:`repro.obs.tracer`).  One *current tracer* per process,
``NullTracer`` by default, so instrumentation is a no-op until a sink
is installed (``repro ... --trace PATH`` installs a
:class:`JsonlTracer` writing ``trace.jsonl`` beside the campaign's
``ResultStore``).  Spans are context managers on the monotonic clock,
nested through per-thread stacks, tagged with batch sizes / qubit
counts / strategy names; ``tracer.event(name, seconds)`` adopts
externally-timed work (heartbeat round trips, idle sleeps, backoff
waits) into the current span.  The span vocabulary, bottom up::

    kernel.conjugate_table  one packed conjugation walk  (kernel)
    kernel.fused_levels     one Clapton transformation's passes
    noise_walk              one noisy Clifford walk     (loss_eval;
                            tags: rows, live_rows)
    loss.evaluate_many      one batched loss call       (loss_eval;
                            tags: loss, batch, qubits, minor_faults)
    engine.round            one engine round (tags: evaluations, best)
    search.round            one strategy round loop iteration
    search.minimize         a whole SearchStrategy.minimize call
    task.execute            one campaign task (tags: task_id, method)
    campaign.wave           one runner wave over the executor
    worker.task             one leased task on a service worker
                            (tags: trace/campaign/task_id/worker)
    worker.heartbeat        one heartbeat round trip
    worker.idle             an idle poll sleep             (idle)
    cli.run / cli.sweep...  the root span for a CLI verb

``repro trace summary`` (:mod:`repro.obs.summary`) rebuilds the tree
and buckets per-span *self time* into loss-eval vs kernel vs
orchestration vs idle -- for a serial sweep the buckets partition
wall-clock exactly.

**Distributed tracing** (:mod:`repro.obs.context`).  The campaign
service correlates the whole fleet into one trace per campaign: the
scheduler mints a ``trace_id`` and ships a :class:`TraceContext` in
every lease grant; workers run a :class:`ShippingTracer` that
batch-POSTs finished spans to the server's ``/traces`` collector; the
server merges them (worker-namespaced span ids, unix-rebased starts)
into a single queryable ``trace.jsonl`` per campaign -- ``repro trace
summary --connect URL`` summarizes it, ``repro trace export
--perfetto`` (:mod:`repro.obs.export`) converts it to Chrome
trace-event JSON for flamegraph viewers.

**Kernel profiling** (:mod:`repro.obs.kernel`).  The packed uint64
conjugation hot path bumps always-on counters (:data:`KERNEL`: words,
rows, LUT hits/misses, fused passes) that surface as Prometheus
``repro_kernel_*`` series and as the summary's per-worker word-ops/s
table.  The counters are per process; a search never leaves the
process that drives it.

**Metrics** (:mod:`repro.obs.metrics`).  A process-wide
:data:`REGISTRY` of ``Counter`` / ``Gauge`` / ``Histogram`` families,
registered idempotently at import time by the modules that increment
them (cache hits, lease lifecycle, task outcomes, heartbeat latency).
Metrics are cheap and always on; the service renders the registry as
Prometheus text exposition at ``GET /metrics``.

**Perf-regression gate** (:mod:`repro.obs.bench_compare`).  ``repro
bench compare run.json --baseline ... --tolerance 15%`` diffs BENCH
JSON against the committed ``benchmarks/bench_results/`` baselines and
exits nonzero on regression; CI runs it so the baselines are a guarded
time series.

Invariants
==========

- Observability **never** touches RNG streams or record contents:
  traced runs are bit-identical to untraced runs (tier-1 goldens run
  with tracing enabled).
- No third-party dependencies; stdlib only.
- Process-pool children (campaign tasks under ``ProcessExecutor``)
  fall back to the null tracer; a task's record carries its wall time
  and its search's cache accounting (``SearchResult.cache_stats``).
"""

from .bench_compare import (
    CompareResult,
    compare,
    compare_files,
    flatten_numeric,
    parse_tolerance,
    render_markdown,
)
from .context import (
    ShippingTracer,
    TraceContext,
    new_trace_id,
)
from .export import (
    export_chrome_trace,
    to_chrome_trace,
)
from .kernel import (
    KERNEL,
    KernelCounters,
    publish_kernel_metrics,
)
from .metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricRegistry,
    REGISTRY,
    render_prometheus,
)
from .summary import (
    TraceSummary,
    bucket_of,
    load_trace,
    parse_trace_lines,
    render_summary,
    summarize,
    summarize_spans,
)
from .tracer import (
    JsonlTracer,
    NullTracer,
    RecordingTracer,
    Span,
    build_info,
    current_span_id,
    get_tracer,
    minor_faults,
    set_tracer,
    use_tracer,
)

__all__ = [
    "CompareResult",
    "compare",
    "compare_files",
    "flatten_numeric",
    "parse_tolerance",
    "render_markdown",
    "ShippingTracer",
    "TraceContext",
    "new_trace_id",
    "export_chrome_trace",
    "to_chrome_trace",
    "KERNEL",
    "KernelCounters",
    "publish_kernel_metrics",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricRegistry",
    "REGISTRY",
    "render_prometheus",
    "TraceSummary",
    "bucket_of",
    "load_trace",
    "parse_trace_lines",
    "render_summary",
    "summarize",
    "summarize_spans",
    "JsonlTracer",
    "NullTracer",
    "RecordingTracer",
    "Span",
    "build_info",
    "current_span_id",
    "get_tracer",
    "minor_faults",
    "set_tracer",
    "use_tracer",
]
