"""Pluggable execution backends: one ``map`` seam for every parallel axis.

The Figure-4 engine (and any future fan-out: batched estimation shards,
parameter sweeps, population evaluation) dispatches work through an
:class:`Executor` instead of hard-coding a process pool.  Three backends
ship here:

* :class:`SerialExecutor` -- in-process, submission order, shares caller
  memory.  The engine keeps its legacy single-rng schedule under it, so
  serial results are bit-identical to the pre-executor code.
* :class:`ThreadExecutor` -- a thread pool; useful when the loss releases
  the GIL or is I/O bound.
* :class:`ProcessExecutor` -- a process pool; requires picklable work items
  (the package's loss objects are).

All backends preserve item order in ``map`` and are context managers.
Deterministic parallelism comes from :func:`spawn_seeds`: per-item
``SeedSequence`` streams derived from one root seed, so runs with the same
seed agree across backends and worker counts.
"""

from __future__ import annotations

from typing import Callable, Iterable, Protocol, Sequence, TypeVar, runtime_checkable

import numpy as np

T = TypeVar("T")
R = TypeVar("R")


def spawn_seeds(seed_sequence: np.random.SeedSequence,
                count: int) -> list[np.random.SeedSequence]:
    """``count`` fresh child seed streams (stateful: successive calls differ)."""
    return seed_sequence.spawn(count)


@runtime_checkable
class Executor(Protocol):
    """Uniform fan-out interface consumed by the engine and estimators."""

    #: True when ``map`` runs items one-by-one in the caller's
    #: thread/process -- callers may then thread shared mutable state
    #: (a single rng, a live cache) through the work items.
    in_process_sequential: bool

    def map(self, fn: Callable[[T], R], items: Iterable[T]) -> list[R]:
        """Apply ``fn`` to every item, returning results in item order."""
        ...

    def close(self) -> None:
        """Release pool resources (idempotent)."""
        ...


class SerialExecutor:
    """Run every item inline, in submission order."""

    in_process_sequential = True
    #: Workers share the caller's process (tracer, metric registry,
    #: memo counters).  Not part of the Executor protocol; consumers use
    #: ``getattr(executor, "in_process", True)``.
    in_process = True

    def map(self, fn: Callable[[T], R], items: Iterable[T]) -> list[R]:
        return [fn(item) for item in items]

    def close(self) -> None:
        pass

    def __enter__(self) -> "SerialExecutor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:
        return "SerialExecutor()"


class _PoolExecutor:
    """Shared lazy-pool plumbing for the thread and process backends."""

    in_process_sequential = False

    def __init__(self, max_workers: int):
        if max_workers < 1:
            raise ValueError("max_workers must be >= 1")
        self.max_workers = int(max_workers)
        self._pool = None

    def _make_pool(self):  # pragma: no cover - overridden
        raise NotImplementedError

    def map(self, fn: Callable[[T], R], items: Iterable[T]) -> list[R]:
        if self._pool is None:
            self._pool = self._make_pool()
        return list(self._pool.map(fn, items))

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:
        return f"{type(self).__name__}(max_workers={self.max_workers})"


class ThreadExecutor(_PoolExecutor):
    """Fan items out over a lazily created thread pool."""

    in_process = True

    def _make_pool(self):
        from concurrent.futures import ThreadPoolExecutor

        return ThreadPoolExecutor(max_workers=self.max_workers)


class ProcessExecutor(_PoolExecutor):
    """Fan items out over a lazily created process pool.

    Work items and results must be picklable; every loss object and job
    tuple the engine produces is.
    """

    in_process = False

    def _make_pool(self):
        from concurrent.futures import ProcessPoolExecutor

        return ProcessPoolExecutor(max_workers=self.max_workers)


def resolve_executor(executor: "Executor | None"
                     ) -> tuple["Executor", bool]:
    """The engine's executor-selection rule.

    Returns ``(executor, owned)``: ``owned`` is True when this call created
    the executor (the caller must close it).
    """
    if executor is not None:
        return executor, False
    return SerialExecutor(), True
