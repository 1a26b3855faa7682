"""Perf-regression gate: diff a BENCH JSON run against a baseline.

The benchmarks emit flat-or-nested JSON (``CLAPTON_BENCH_JSON`` /
``BENCH {...}`` lines) and commit reference numbers under
``benchmarks/bench_results/``.  ``repro bench compare run.json
--baseline baseline.json --tolerance 15%`` flattens both payloads to
dotted numeric paths, classifies each metric's *direction* by name
(seconds regress up, speedups regress down, unknown keys are
informational), and exits nonzero when any metric moved past the
tolerance in its bad direction -- the empty bench trajectory becomes a
guarded time series in CI.

Direction heuristics (by the last path segment, substring match):

- lower is better: ``seconds``, ``_ns``, ``overhead``, ``error``,
  ``evaluations``, ``misses``, ``failed``
- higher is better: ``speedup``, ``per_second``, ``throughput``,
  ``hits``, ``ops``, ``coverage``
- anything else: ``info`` -- reported, never failing

Keys present on only one side are ``added``/``removed`` rows: visible
in the table, not failures (benchmarks legitimately grow new metrics).
Payloads whose top-level ``preset`` strings differ are refused outright
(``repro bench compare`` exits 2).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

_LOWER_IS_BETTER = ("seconds", "_ns", "overhead", "error", "evaluations",
                    "misses", "failed", "latency")
_HIGHER_IS_BETTER = ("speedup", "per_second", "throughput", "hits",
                     "ops", "coverage")


def direction_of(path: str) -> str:
    """``lower`` / ``higher`` / ``info`` for a flattened metric path."""
    leaf = path.rsplit(".", 1)[-1].lower()
    for marker in _LOWER_IS_BETTER:
        if marker in leaf:
            return "lower"
    for marker in _HIGHER_IS_BETTER:
        if marker in leaf:
            return "higher"
    return "info"


def flatten_numeric(payload, prefix: str = "") -> dict[str, float]:
    """``{"a": {"b": 1, "c": [2]}}`` -> ``{"a.b": 1.0, "a.c[0]": 2.0}``.

    Non-numeric leaves (strings, nulls, bools) are skipped -- they are
    provenance, not metrics.
    """
    out: dict[str, float] = {}
    if isinstance(payload, dict):
        for key, value in payload.items():
            sub = f"{prefix}.{key}" if prefix else str(key)
            out.update(flatten_numeric(value, sub))
    elif isinstance(payload, (list, tuple)):
        for i, value in enumerate(payload):
            out.update(flatten_numeric(value, f"{prefix}[{i}]"))
    elif isinstance(payload, bool):
        pass
    elif isinstance(payload, (int, float)):
        out[prefix] = float(payload)
    return out


def parse_tolerance(text: str) -> float:
    """``"15%"`` -> 0.15; ``"0.15"`` -> 0.15.  Raises ValueError."""
    text = str(text).strip()
    try:
        if text.endswith("%"):
            fraction = float(text[:-1]) / 100.0
        else:
            fraction = float(text)
    except ValueError:
        raise ValueError(f"bad tolerance {text!r}; expected e.g. "
                         f"'15%' or '0.15'") from None
    if fraction < 0:
        raise ValueError(f"tolerance must be >= 0, got {text!r}")
    return fraction


@dataclass
class MetricDelta:
    """One compared metric path."""

    path: str
    baseline: float | None
    current: float | None
    direction: str
    #: ok / regression / improved / info / added / removed
    status: str
    #: (current - baseline) / |baseline|; None when not computable
    change: float | None = None


@dataclass
class CompareResult:
    rows: list[MetricDelta] = field(default_factory=list)
    tolerance: float = 0.15

    @property
    def regressions(self) -> list[MetricDelta]:
        return [r for r in self.rows if r.status == "regression"]

    @property
    def ok(self) -> bool:
        return not self.regressions

    def to_dict(self) -> dict:
        return {"tolerance": self.tolerance, "ok": self.ok,
                "regressions": len(self.regressions),
                "rows": [{"path": r.path, "baseline": r.baseline,
                          "current": r.current, "direction": r.direction,
                          "status": r.status, "change": r.change}
                         for r in self.rows]}


def compare(current: dict, baseline: dict,
            tolerance: float = 0.15) -> CompareResult:
    """Diff two BENCH JSON payloads (already parsed)."""
    cur = flatten_numeric(current)
    base = flatten_numeric(baseline)
    result = CompareResult(tolerance=tolerance)
    for path in sorted(set(cur) | set(base)):
        direction = direction_of(path)
        if path not in base:
            result.rows.append(MetricDelta(path, None, cur[path],
                                           direction, "added"))
            continue
        if path not in cur:
            result.rows.append(MetricDelta(path, base[path], None,
                                           direction, "removed"))
            continue
        b, c = base[path], cur[path]
        change = None if b == 0 else (c - b) / abs(b)
        status = "info"
        if direction != "info" and change is not None:
            bad = change > tolerance if direction == "lower" \
                else change < -tolerance
            good = change < -tolerance if direction == "lower" \
                else change > tolerance
            status = ("regression" if bad
                      else "improved" if good else "ok")
        elif direction != "info":
            # baseline 0: regression only if current strictly worsened
            worsened = c > 0 if direction == "lower" else c < 0
            status = "regression" if worsened else "ok"
        result.rows.append(MetricDelta(path, b, c, direction, status,
                                       change))
    return result


def _fmt(value: float | None) -> str:
    if value is None:
        return "—"
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return f"{value:.6g}"


def _fmt_change(row: MetricDelta) -> str:
    if row.change is None:
        return "—"
    return f"{row.change * 100.0:+.1f}%"


_STATUS_MARK = {"regression": "❌ regression", "improved": "✅ improved",
                "ok": "ok", "info": "info", "added": "added",
                "removed": "removed"}


def render_markdown(result: CompareResult,
                    show_ok: bool = True) -> str:
    """Markdown delta table (regressions first)."""
    order = {"regression": 0, "improved": 1, "added": 2, "removed": 3,
             "ok": 4, "info": 5}
    rows = sorted(result.rows, key=lambda r: (order[r.status], r.path))
    if not show_ok:
        rows = [r for r in rows if r.status not in ("ok", "info")]
    lines = [
        f"### Bench compare (tolerance ±{result.tolerance * 100:.0f}%)",
        "",
        "| metric | baseline | current | Δ | status |",
        "|---|---:|---:|---:|---|",
    ]
    for row in rows:
        lines.append(f"| `{row.path}` | {_fmt(row.baseline)} | "
                     f"{_fmt(row.current)} | {_fmt_change(row)} | "
                     f"{_STATUS_MARK[row.status]} |")
    n = len(result.regressions)
    lines.append("")
    lines.append(f"**{n} regression(s)**" if n else
                 "**No regressions.**")
    return "\n".join(lines)


def compare_files(run_path: str | Path, baseline_path: str | Path,
                  tolerance: float = 0.15) -> CompareResult:
    """Load both JSON files and :func:`compare` them.

    Raises:
        ValueError: when both payloads name a ``preset`` and the two
            differ -- numbers measured at different problem sizes are not
            comparable, so no metric is diffed.
    """
    current = json.loads(Path(run_path).read_text(encoding="utf-8"))
    baseline = json.loads(Path(baseline_path).read_text(encoding="utf-8"))
    run, base = (p.get("preset") if isinstance(p, dict) else None
                 for p in (current, baseline))
    if isinstance(run, str) and isinstance(base, str) and run != base:
        raise ValueError(f"preset mismatch: run is {run!r}, "
                         f"baseline is {base!r}")
    return compare(current, baseline, tolerance)
