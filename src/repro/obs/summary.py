"""Trace-file analysis: hierarchical time breakdown + bucket accounting.

A ``trace.jsonl`` written by :class:`~repro.obs.tracer.JsonlTracer` is a
flat list of finished spans with parent links.  This module rebuilds
the tree and answers the question the ROADMAP keeps asking: *where did
the wall-clock go?*

Every span's **self time** is its duration minus its children's
durations (clamped at zero: children running concurrently on other
threads can sum past the parent).  Self times are then classified into
five buckets by span name:

- ``kernel``         -- names starting with ``kernel.`` (the packed
  word-conjugation hot path; these are children of ``loss.`` spans, so
  this is the physics *inside* the physics)
- ``loss_eval``      -- names starting with ``loss.`` (the physics), and
  ``noise_walk`` (one noisy Clifford walk, inside a loss or an estimator)
- ``mitigation``     -- names starting with ``mitigation.`` (folding,
  extrapolation, readout inversion; the raw evaluations a wrapped
  estimator issues re-appear as ``loss.`` children, so this bucket is
  mitigation *overhead* only)
- ``idle``           -- names containing ``idle`` (polling, backoff)
- ``orchestration``  -- everything else (the tax this repo controls)

``kernel.*`` spans carry ``words``/``rows`` tags from
:mod:`repro.obs.kernel`; the summary aggregates them per worker (merged
fleet traces stamp a top-level ``"worker"`` on every span) into
word-ops/s throughput -- the paper's headline unit for the stabilizer
hot path.  ``loss.evaluate_many`` spans carry a ``minor_faults`` tag
(the batch's page faults); the summary reports them per loss batch,
since a batch that faults its heap back in every time pays for it in
wall clock.

For a serial run rooted in one CLI span the buckets partition the
wall-clock exactly; the acceptance bar is >=95% accounted.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path


def bucket_of(name: str) -> str:
    if name.startswith("kernel."):
        return "kernel"
    if name.startswith("loss.") or name == "noise_walk":
        return "loss_eval"
    if name.startswith("mitigation."):
        return "mitigation"
    if "idle" in name:
        return "idle"
    return "orchestration"


def parse_trace_lines(lines) -> tuple[dict, list[dict]]:
    """Parse trace JSONL lines -> (meta, spans); skips torn/blank lines.

    Shared by :func:`load_trace` and the ``--connect`` path (which gets
    the merged campaign trace as NDJSON text from ``GET /trace``).
    """
    meta: dict = {}
    spans: list[dict] = []
    for line in lines:
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError:
            continue  # torn tail from a killed process
        if record.get("kind") == "meta":
            meta = record
        elif record.get("kind") == "span":
            spans.append(record)
    return meta, spans


def load_trace(path: str | Path) -> tuple[dict, list[dict]]:
    """Parse a trace file -> (meta, spans); tolerates a torn last line."""
    with Path(path).open("r", encoding="utf-8") as fh:
        return parse_trace_lines(fh)


@dataclass
class SummaryRow:
    """One aggregated tree node (all spans sharing a name-path)."""

    path: tuple[str, ...]
    count: int = 0
    total: float = 0.0
    self_seconds: float = 0.0
    children: list["SummaryRow"] = field(default_factory=list)

    @property
    def name(self) -> str:
        return self.path[-1]

    @property
    def depth(self) -> int:
        return len(self.path) - 1


@dataclass
class TraceSummary:
    wall_seconds: float
    num_spans: int
    buckets: dict[str, float]
    roots: list[SummaryRow]
    meta: dict = field(default_factory=dict)
    #: per-worker packed-kernel totals: {worker: {"words", "rows",
    #: "seconds"}} aggregated from ``kernel.*`` span tags
    kernel: dict = field(default_factory=dict)
    #: per-loss page faults: {loss: {"batches", "minor_faults"}} over the
    #: ``loss.evaluate_many`` spans that carry a ``minor_faults`` tag
    faults: dict = field(default_factory=dict)

    @property
    def accounted(self) -> float:
        return sum(self.buckets.values())

    @property
    def coverage(self) -> float:
        """Fraction of wall-clock the buckets account for (may exceed
        1.0 when threads overlap)."""
        if self.wall_seconds <= 0:
            return 0.0
        return self.accounted / self.wall_seconds

    def to_dict(self) -> dict:
        def row(r: SummaryRow) -> dict:
            return {"path": "/".join(r.path), "count": r.count,
                    "total_seconds": round(r.total, 6),
                    "self_seconds": round(r.self_seconds, 6),
                    "children": [row(c) for c in r.children]}
        out = {
            "wall_seconds": round(self.wall_seconds, 6),
            "num_spans": self.num_spans,
            "buckets": {k: round(v, 6) for k, v in self.buckets.items()},
            "coverage": round(self.coverage, 4),
            "tree": [row(r) for r in self.roots],
        }
        if self.kernel:
            out["kernel"] = {
                worker: {"words": stats["words"], "rows": stats["rows"],
                         "seconds": round(stats["seconds"], 6),
                         "words_per_second": round(
                             stats["words"] / stats["seconds"], 1)
                         if stats["seconds"] > 0 else None}
                for worker, stats in self.kernel.items()}
        if self.faults:
            out["loss_faults"] = {
                loss: {**stats, "per_batch": round(
                    stats["minor_faults"] / stats["batches"], 2)}
                for loss, stats in self.faults.items()}
        return out


def summarize_spans(spans: list[dict], meta: dict | None = None) -> TraceSummary:
    by_id = {s["id"]: s for s in spans}
    children_dur: dict[int, float] = {}
    for span in spans:
        parent = span.get("parent")
        if parent in by_id:
            children_dur[parent] = children_dur.get(parent, 0.0) + span["dur"]

    # name-path per span (parent chain), memoized
    paths: dict[int, tuple[str, ...]] = {}

    def path_of(span: dict) -> tuple[str, ...]:
        sid = span["id"]
        cached = paths.get(sid)
        if cached is not None:
            return cached
        parent = span.get("parent")
        if parent in by_id:
            result = path_of(by_id[parent]) + (span["name"],)
        else:
            result = (span["name"],)
        paths[sid] = result
        return result

    nodes: dict[tuple[str, ...], SummaryRow] = {}
    buckets = {"loss_eval": 0.0, "kernel": 0.0, "mitigation": 0.0,
               "orchestration": 0.0, "idle": 0.0}
    kernel: dict[str, dict] = {}
    faults: dict[str, dict] = {}
    starts, ends = [], []
    for span in spans:
        starts.append(span["start"])
        ends.append(span["start"] + span["dur"])
        self_seconds = max(0.0, span["dur"] - children_dur.get(span["id"], 0.0))
        bucket = bucket_of(span["name"])
        buckets[bucket] += self_seconds
        if bucket == "kernel":
            tags = span.get("tags") or {}
            worker = span.get("worker") or "local"
            stats = kernel.setdefault(
                worker, {"words": 0, "rows": 0, "seconds": 0.0})
            stats["words"] += int(tags.get("words") or 0)
            stats["rows"] += int(tags.get("rows") or 0)
            stats["seconds"] += span["dur"]
        if span["name"] == "loss.evaluate_many":
            tags = span.get("tags") or {}
            if "minor_faults" in tags:
                stats = faults.setdefault(str(tags.get("loss")),
                                          {"batches": 0, "minor_faults": 0})
                stats["batches"] += 1
                stats["minor_faults"] += int(tags["minor_faults"])
        path = path_of(span)
        node = nodes.get(path)
        if node is None:
            node = nodes[path] = SummaryRow(path)
        node.count += 1
        node.total += span["dur"]
        node.self_seconds += self_seconds

    roots: list[SummaryRow] = []
    for path in sorted(nodes, key=len):
        node = nodes[path]
        if len(path) > 1 and path[:-1] in nodes:
            nodes[path[:-1]].children.append(node)
        else:
            roots.append(node)
    for node in nodes.values():
        node.children.sort(key=lambda c: -c.total)
    roots.sort(key=lambda r: -r.total)

    wall = (max(ends) - min(starts)) if spans else 0.0
    return TraceSummary(wall_seconds=wall, num_spans=len(spans),
                        buckets=buckets, roots=roots, meta=meta or {},
                        kernel=kernel, faults=faults)


def summarize(path: str | Path) -> TraceSummary:
    meta, spans = load_trace(path)
    return summarize_spans(spans, meta)


def _fmt_count(value: float) -> str:
    """Humanized counts for the kernel table (1.3M, 42.0k, 917)."""
    for divisor, suffix in ((1e9, "G"), (1e6, "M"), (1e3, "k")):
        if value >= divisor:
            return f"{value / divisor:.1f}{suffix}"
    return f"{value:.0f}"


def _fmt_seconds(seconds: float) -> str:
    if seconds >= 100:
        return f"{seconds:.0f}s"
    if seconds >= 1:
        return f"{seconds:.2f}s"
    return f"{seconds * 1000:.1f}ms"


def render_summary(summary: TraceSummary, max_depth: int = 6) -> str:
    """Human-readable breakdown table for ``repro trace summary``."""
    wall = summary.wall_seconds
    lines = []
    lines.append(f"wall clock : {_fmt_seconds(wall)}  "
                 f"({summary.num_spans} spans)")
    lines.append("")
    lines.append("bucket           seconds      share")
    order = [("loss evaluation", "loss_eval"),
             ("kernel", "kernel"),
             ("mitigation", "mitigation"),
             ("orchestration", "orchestration"),
             ("idle", "idle")]
    for label, key in order:
        seconds = summary.buckets.get(key, 0.0)
        share = (seconds / wall * 100.0) if wall > 0 else 0.0
        lines.append(f"{label:<16} {_fmt_seconds(seconds):>8}    {share:6.1f}%")
    lines.append(f"{'accounted':<16} {_fmt_seconds(summary.accounted):>8}"
                 f"    {summary.coverage * 100.0:6.1f}%")
    if summary.kernel:
        lines.append("")
        lines.append("kernel (packed conjugation)")
        lines.append(f"{'worker':<28} {'words':>12} {'rows':>12} "
                     f"{'words/s':>12}")
        for worker in sorted(summary.kernel):
            stats = summary.kernel[worker]
            rate = (_fmt_count(stats["words"] / stats["seconds"])
                    if stats["seconds"] > 0 else "--")
            lines.append(f"{worker:<28} {_fmt_count(stats['words']):>12} "
                         f"{_fmt_count(stats['rows']):>12} {rate:>12}")
    if summary.faults:
        lines.append("")
        lines.append("page faults per loss batch")
        lines.append(f"{'loss':<28} {'batches':>12} {'faults':>12} "
                     f"{'per batch':>12}")
        for loss in sorted(summary.faults):
            stats = summary.faults[loss]
            lines.append(f"{loss:<28} {stats['batches']:>12} "
                         f"{_fmt_count(stats['minor_faults']):>12} "
                         f"{stats['minor_faults'] / stats['batches']:>12.1f}")
    lines.append("")
    lines.append(f"{'span':<46} {'count':>6} {'total':>9} {'self':>9} "
                 f"{'%wall':>6}")

    def emit(row: SummaryRow) -> None:
        if row.depth >= max_depth:
            return
        label = "  " * row.depth + row.name
        share = (row.total / wall * 100.0) if wall > 0 else 0.0
        lines.append(f"{label:<46} {row.count:>6} "
                     f"{_fmt_seconds(row.total):>9} "
                     f"{_fmt_seconds(row.self_seconds):>9} {share:6.1f}%")
        for child in row.children:
            emit(child)

    for root in summary.roots:
        emit(root)
    return "\n".join(lines)
