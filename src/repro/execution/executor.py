"""Pluggable execution backends: one ``map`` seam for task fan-out.

Campaigns (:class:`~repro.campaigns.CampaignRunner`, ``repro sweep
--jobs``) and parameter sweeps dispatch whole tasks through an
:class:`Executor` instead of hard-coding a process pool.  A search never
fans out: it evaluates its batches inline.  Three backends ship here:

* :class:`SerialExecutor` -- in-process, submission order, shares caller
  memory.
* :class:`ThreadExecutor` -- a thread pool; useful when the loss releases
  the GIL or is I/O bound.
* :class:`ProcessExecutor` -- a process pool; requires picklable work items
  (the package's loss objects are).

All backends preserve item order in ``map`` and are context managers, so
results do not depend on the backend or its worker count.
"""

from __future__ import annotations

from typing import Callable, Iterable, Protocol, TypeVar, runtime_checkable

T = TypeVar("T")
R = TypeVar("R")


@runtime_checkable
class Executor(Protocol):
    """Uniform fan-out interface consumed by the campaign runner."""

    #: True when ``map`` runs items one-by-one in the caller's
    #: thread/process.
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

    def _make_pool(self):
        from concurrent.futures import ThreadPoolExecutor

        return ThreadPoolExecutor(max_workers=self.max_workers)


class ProcessExecutor(_PoolExecutor):
    """Fan items out over a lazily created process pool.

    Work items and results must be picklable; campaign tasks and their
    records are.
    """

    def _make_pool(self):
        from concurrent.futures import ProcessPoolExecutor

        return ProcessPoolExecutor(max_workers=self.max_workers)

