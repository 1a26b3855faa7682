"""Pluggable execution backends: one ``map`` seam for every parallel axis.

The Figure-4 engine, the search strategies and any other fan-out (batched
estimation shards, parameter sweeps) dispatch work through an
:class:`Executor` instead of hard-coding a process pool.  Three backends
ship here:

* :class:`SerialExecutor` -- in-process, submission order, shares caller
  memory.
* :class:`ThreadExecutor` -- a thread pool; useful when the loss releases
  the GIL or is I/O bound.
* :class:`ProcessExecutor` -- a process pool; requires picklable work items
  (the package's loss objects are).

All backends preserve item order in ``map`` and are context managers.  The
searches use them only to shard a batch of genomes into contiguous pieces,
so results do not depend on the backend or its worker count.
"""

from __future__ import annotations

from typing import Callable, Iterable, Protocol, TypeVar, runtime_checkable

T = TypeVar("T")
R = TypeVar("R")


@runtime_checkable
class Executor(Protocol):
    """Uniform fan-out interface consumed by the engine and estimators."""

    #: True when ``map`` runs items one-by-one in the caller's
    #: thread/process -- sharding a batch over it would gain nothing.
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

    Work items and results must be picklable; the package's loss objects
    and the engine's shard jobs are.
    """

    in_process = False

    def _make_pool(self):
        from concurrent.futures import ProcessPoolExecutor

        return ProcessPoolExecutor(max_workers=self.max_workers)

