"""Shared loss memoisation that works under every executor.

Converging GA populations re-propose identical genomes constantly, so every
evaluation surface wants a ``genome -> loss`` memo table.  The table here is
a plain ``bytes -> float`` dict, wrapped so that the Figure-4 engine can
ship snapshots to worker threads/processes and merge the new entries back
after each round -- the serial, threaded, and multi-process paths (and the
:class:`~repro.optim.genetic.GeneticAlgorithm`, which routes all its
memoisation through this wrapper) share one cache discipline.

:meth:`MemoizedLoss.evaluate_many` is the batch face of the same table:
dedupe a whole population within the batch and against the cache, then
dispatch only the distinct misses -- through the loss's own population-
batched ``evaluate_many`` when it provides one.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from ..obs import REGISTRY

_CACHE_HITS = REGISTRY.counter(
    "repro_cache_hits_total", "MemoizedLoss lookups served from the table")
_CACHE_MISSES = REGISTRY.counter(
    "repro_cache_misses_total", "MemoizedLoss lookups dispatched to the loss")
_CACHE_DEDUP = REGISTRY.counter(
    "repro_cache_dedup_total",
    "Within-batch duplicate genomes collapsed by evaluate_many")


def genome_key(genome) -> bytes:
    """Canonical dict key of an integer genome (shared with the GA)."""
    return np.ascontiguousarray(genome, dtype=np.int64).tobytes()


def evaluate_batch(loss_fn: Callable[[np.ndarray], float],
                   genomes: np.ndarray) -> np.ndarray:
    """``(P,)`` float losses of a genome batch, computed by ``loss_fn``.

    Dispatches the whole batch through the loss's own population-batched
    ``evaluate_many`` when it has one, else calls it once per genome in
    order.  No memoisation: every row is evaluated.

    Raises:
        ValueError: when ``evaluate_many`` returns anything but one value
            per genome.
    """
    batch_fn = getattr(loss_fn, "evaluate_many", None)
    if batch_fn is None:
        return np.array([float(loss_fn(g)) for g in genomes])
    values = np.asarray(batch_fn(genomes), dtype=float)
    if values.shape != (len(genomes),):
        raise ValueError(f"loss evaluate_many returned shape {values.shape} "
                         f"for {len(genomes)} genomes")
    return values


class MemoizedLoss:
    """Picklable memoising wrapper around a loss function.

    The wrapper is callable in place of the loss and exposes the underlying
    table for sharing: pass :attr:`cache` to a
    :class:`~repro.optim.genetic.GeneticAlgorithm`, ship :meth:`snapshot`
    copies to workers, and fold their discoveries back with :meth:`merge`.

    Args:
        loss_fn: Maps a genome (1-D int array) to a float loss.
        cache: Optional existing table to adopt (not copied).
    """

    def __init__(self, loss_fn: Callable[[np.ndarray], float],
                 cache: dict[bytes, float] | None = None):
        self.loss_fn = loss_fn
        self.cache: dict[bytes, float] = {} if cache is None else cache
        self.hits = 0
        self.misses = 0
        self.dedups = 0

    def __call__(self, genome) -> float:
        key = genome_key(genome)
        hit = self.cache.get(key)
        if hit is not None:
            self.hits += 1
            _CACHE_HITS.inc()
            return hit
        value = float(self.loss_fn(genome))
        self.cache[key] = value
        self.misses += 1
        _CACHE_MISSES.inc()
        return value

    def evaluate_many(self, genomes) -> np.ndarray:
        """``(P,)`` losses of a genome batch, deduped before dispatch.

        Within-batch duplicates and cache hits are resolved first; only the
        distinct misses reach the wrapped loss -- through its own batched
        ``evaluate_many`` when it has one, else one call per miss in
        first-occurrence order.  Values and hit/miss accounting are
        identical to calling the wrapper genome by genome (a within-batch
        duplicate is one miss plus hits, exactly as the serial order would
        produce), so the GA's generation loop can switch to batches without
        moving any number.
        """
        genomes = np.asarray(genomes)
        if len(genomes) == 0:
            return np.empty(0)
        keyed = np.ascontiguousarray(genomes, dtype=np.int64)
        width = keyed[0].nbytes
        flat = keyed.tobytes()
        keys = [flat[i * width:(i + 1) * width] for i in range(len(keyed))]
        looked = [self.cache.get(key) for key in keys]
        out = np.array(looked, dtype=float)  # misses read NaN for now
        miss_at = [i for i, value in enumerate(looked) if value is None]
        first: dict[bytes, int] = {}          # first-occurrence order
        for i in miss_at:
            first.setdefault(keys[i], i)
        num_hits = len(keys) - len(miss_at)
        num_dedups = len(miss_at) - len(first)
        self.hits += num_hits + num_dedups
        self.dedups += num_dedups
        _CACHE_HITS.inc(num_hits)
        _CACHE_DEDUP.inc(num_dedups)
        if first:
            values = evaluate_batch(self.loss_fn,
                                    genomes[list(first.values())])
            self.cache.update(zip(first, values.tolist()))
            self.misses += len(first)
            _CACHE_MISSES.inc(len(first))
            out[miss_at] = [self.cache[keys[i]] for i in miss_at]
        return out

    def stats(self) -> dict[str, int]:
        """This wrapper's own hit/miss/dedup accounting, for surfacing
        into :class:`~repro.search.base.SearchResult` and campaign
        records (``dedups`` is the within-batch-duplicate subset of
        ``hits``)."""
        return {"hits": self.hits, "misses": self.misses,
                "dedups": self.dedups, "entries": len(self.cache)}

    def __len__(self) -> int:
        return len(self.cache)

    def snapshot(self) -> dict[bytes, float]:
        """Copy of the table, safe to ship to a worker."""
        return dict(self.cache)

    def merge(self, entries: dict[bytes, float]) -> None:
        """Fold entries discovered elsewhere (a worker) into the table."""
        self.cache.update(entries)

    def __getstate__(self):
        # hit/miss counters are per-process diagnostics; reset on the wire.
        return {"loss_fn": self.loss_fn, "cache": self.cache}

    def __setstate__(self, state):
        self.loss_fn = state["loss_fn"]
        self.cache = state["cache"]
        self.hits = 0
        self.misses = 0
        self.dedups = 0


def memoize_loss(loss_fn: Callable[[np.ndarray], float],
                 cache: dict[bytes, float] | None = None) -> MemoizedLoss:
    """Wrap ``loss_fn`` with the shared genome-keyed memo table."""
    return MemoizedLoss(loss_fn, cache)
