"""Thread-safe nested spans with a JSONL sink and a no-op default.

The process has one *current tracer* (module global).  Instrumented
code does ``with get_tracer().span("engine.round", round=i):`` -- when
the current tracer is the default :class:`NullTracer` this costs two
attribute lookups and a shared no-op context manager, measured well
under the 2% overhead budget (``benchmarks/test_obs_overhead.py``).

Recording tracers keep a *per-thread* stack of open spans so nesting is
correct under ``ThreadExecutor``: a span started on thread T becomes
the parent of spans opened later on T, never of spans on other threads.
Spans use the monotonic clock (``time.perf_counter``) and are emitted
on *exit* as one JSON object per line; ``tracer.event(name, seconds)``
records work that was timed externally (heartbeat round trips, idle
sleeps) as an already-finished child of the current span.

Child processes never inherit a recording tracer: tracers are process
state, not task state, and ``ProcessExecutor`` workers fall back to the
null default.

Observability never touches RNG streams or record contents: spans only
*read* batch sizes / losses / durations, so traced runs stay
bit-identical to untraced runs.
"""

from __future__ import annotations

import atexit
import contextlib
import functools
import itertools
import json
import numbers
import os
import socket
import subprocess
import threading
import time
from pathlib import Path

try:
    import resource
except ImportError:  # pragma: no cover - no getrusage off Unix
    resource = None


@functools.lru_cache(maxsize=1)
def build_info() -> dict:
    """Build provenance stamped into trace meta headers.

    Merged fleet traces need to be attributable to a build: git SHA
    (``REPRO_GIT_SHA`` env wins -- CI containers without a checkout --
    else a quick ``git rev-parse``), package version, and hostname.
    Every lookup failure degrades to ``None`` rather than raising;
    cached because ``git rev-parse`` costs a subprocess.
    """
    sha = os.environ.get("REPRO_GIT_SHA")
    if not sha:
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "--short=12", "HEAD"],
                capture_output=True, text=True, timeout=5.0,
                cwd=os.path.dirname(os.path.abspath(__file__)),
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            sha = None
    try:
        from .. import __version__ as version
    except Exception:  # pragma: no cover - package half-imported
        version = None
    try:
        hostname = socket.gethostname()
    except OSError:  # pragma: no cover
        hostname = None
    return {"git_sha": sha, "version": version, "hostname": hostname}


class _NullSpan:
    """Shared do-nothing span: never records, never stores state."""

    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def tag(self, **tags):
        return self


#: The singleton handed out by :class:`NullTracer` -- stateless, so one
#: instance serves every thread.
NULL_SPAN = _NullSpan()


class NullTracer:
    """Default tracer: every operation is a no-op."""

    enabled = False

    def span(self, name: str, **tags) -> _NullSpan:
        return NULL_SPAN

    def event(self, name: str, seconds: float, **tags) -> None:
        return None

    def close(self) -> None:
        return None


class Span:
    """A live span: context manager started by a recording tracer."""

    __slots__ = ("tracer", "name", "tags", "span_id", "parent_id", "start")

    def __init__(self, tracer: "_RecordingBase", name: str, tags: dict):
        self.tracer = tracer
        self.name = name
        self.tags = tags
        self.span_id = next(tracer._ids)
        self.parent_id: int | None = None
        self.start = 0.0

    def tag(self, **tags) -> "Span":
        self.tags.update(tags)
        return self

    def __enter__(self) -> "Span":
        stack = self.tracer._stack()
        self.parent_id = stack[-1].span_id if stack else None
        stack.append(self)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> bool:
        end = time.perf_counter()
        stack = self.tracer._stack()
        if stack and stack[-1] is self:
            stack.pop()
        elif self in stack:  # exited out of order; keep the stack sane
            stack.remove(self)
        self.tracer._finish(self, end)
        return False


class _RecordingBase:
    """Shared machinery: per-thread stacks, ids, relative clock."""

    enabled = True

    def __init__(self):
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._t0 = time.perf_counter()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str, **tags) -> Span:
        return Span(self, name, tags)

    def event(self, name: str, seconds: float, **tags) -> None:
        """Record externally-timed work as a finished child span."""
        seconds = max(0.0, float(seconds))
        end = time.perf_counter()
        stack = self._stack()
        record = {
            "kind": "span",
            "name": name,
            "start": round(end - seconds - self._t0, 9),
            "dur": round(seconds, 9),
            "id": next(self._ids),
            "parent": stack[-1].span_id if stack else None,
            "thread": threading.current_thread().name,
        }
        if tags:
            record["tags"] = _jsonable_tags(tags)
        self._emit(record)

    def _finish(self, span: Span, end: float) -> None:
        record = {
            "kind": "span",
            "name": span.name,
            "start": round(span.start - self._t0, 9),
            "dur": round(end - span.start, 9),
            "id": span.span_id,
            "parent": span.parent_id,
            "thread": threading.current_thread().name,
        }
        if span.tags:
            record["tags"] = _jsonable_tags(span.tags)
        self._emit(record)

    def _emit(self, record: dict) -> None:  # pragma: no cover - abstract
        raise NotImplementedError

    def close(self) -> None:
        return None


def _jsonable_tags(tags: dict) -> dict:
    out = {}
    for key, value in tags.items():
        if isinstance(value, (str, bool, type(None))):
            out[key] = value
        elif isinstance(value, numbers.Integral):
            # the numbers ABCs catch numpy scalars without importing
            # numpy (np.int64 is not an int subclass)
            out[key] = int(value)
        elif isinstance(value, numbers.Real):
            out[key] = float(value)
        else:
            out[key] = str(value)
    return out


class RecordingTracer(_RecordingBase):
    """Keeps finished span dicts in memory -- tests and summaries."""

    def __init__(self):
        super().__init__()
        self._lock = threading.Lock()
        self.spans: list[dict] = []

    def _emit(self, record: dict) -> None:
        with self._lock:
            self.spans.append(record)


class JsonlTracer(_RecordingBase):
    """Appends one JSON object per finished span to ``path``.

    The first line is a ``{"kind": "meta", ...}`` header recording the
    clock convention (all ``start`` values are seconds since the tracer
    was created, monotonic) and a wall-clock anchor for humans.
    """

    def __init__(self, path: str | Path):
        super().__init__()
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._lock = threading.Lock()
        self._fh = self.path.open("w", encoding="utf-8")
        self._fh.write(json.dumps({
            "kind": "meta", "version": 1, "clock": "perf_counter",
            "unix_time": time.time(), "pid": os.getpid(),
            **build_info(),
        }) + "\n")
        # short-lived workers can die between flushes; an interpreter
        # that *does* exit cleanly should not drop the buffered tail
        atexit.register(self.close)

    def _emit(self, record: dict) -> None:
        line = json.dumps(record, separators=(",", ":")) + "\n"
        with self._lock:
            if not self._fh.closed:
                self._fh.write(line)

    def close(self) -> None:
        """Flush and close; idempotent (atexit may race an explicit
        close, and ``use_tracer`` closes on every exit)."""
        with self._lock:
            if not self._fh.closed:
                self._fh.flush()
                self._fh.close()
        try:
            atexit.unregister(self.close)
        except Exception:  # pragma: no cover - interpreter teardown
            pass


def minor_faults() -> int:
    """Minor page faults this process has taken so far (``getrusage``;
    0 where the platform has no ``resource`` module).

    A batch whose heap top glibc trims on free faults its pages back in
    on the next batch; the loss spans tag each batch's delta.
    """
    if resource is None:  # pragma: no cover - no getrusage off Unix
        return 0
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


_NULL = NullTracer()
_current: NullTracer | _RecordingBase = _NULL
_current_lock = threading.Lock()


def get_tracer():
    """The process's current tracer (the shared no-op by default)."""
    return _current


def current_span_id():
    """Id of the innermost open span on this thread, or ``None``.

    Trace-context propagation (``repro.obs.context``) records this as
    the remote child's parent hint; the null tracer has no spans.
    """
    tracer = _current
    if not getattr(tracer, "enabled", False):
        return None
    stack = tracer._stack()
    return stack[-1].span_id if stack else None


def set_tracer(tracer) -> "NullTracer | _RecordingBase":
    """Install ``tracer`` (or None for the no-op); returns the previous."""
    global _current
    with _current_lock:
        previous = _current
        _current = tracer if tracer is not None else _NULL
    return previous


@contextlib.contextmanager
def use_tracer(tracer):
    """Scoped ``set_tracer`` -- restores the previous tracer on exit."""
    previous = set_tracer(tracer)
    try:
        yield tracer
    finally:
        set_tracer(previous)
        if tracer is not None:
            tracer.close()
