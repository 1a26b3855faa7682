"""Shared loss memoisation for every search surface.

Converging GA populations re-propose identical genomes constantly, so every
evaluation surface wants a ``genome -> loss`` memo table.  The table here is
a plain ``bytes -> float`` dict behind one wrapper: the Figure-4 engine, the
:class:`~repro.optim.genetic.GeneticAlgorithm` and the search strategies all
route their evaluations through it, so hit/miss accounting has exactly
one home.

:meth:`MemoizedLoss.evaluate_many` is the batch face of the same table:
dedupe a whole population within the batch and against the cache, then
dispatch only the distinct misses -- through the loss's own population-
batched ``evaluate_many`` when it provides one.  A loss that stops part-way
through a batch raises :class:`BatchInterrupted` carrying the prefix it did
evaluate; the table keeps and counts that prefix before the stop propagates.
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


class BatchInterrupted(Exception):
    """Raised by a loss that stops part-way through a batch.

    ``values`` are the losses of the batch prefix it did evaluate (possibly
    none); :meth:`MemoizedLoss.evaluate_many` caches and counts them as
    misses before re-raising, so a stopped search's accounting adds up.
    """

    def __init__(self, values=()):
        super().__init__()
        self.values = np.asarray(values, dtype=float)


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

    The wrapper is callable in place of the loss; :attr:`cache` is the
    underlying table.

    Args:
        loss_fn: Maps a genome (1-D int array) to a float loss.
    """

    def __init__(self, loss_fn: Callable[[np.ndarray], float]):
        self.loss_fn = loss_fn
        self.cache: dict[bytes, float] = {}
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
            try:
                values = evaluate_batch(self.loss_fn,
                                        genomes[list(first.values())])
            except BatchInterrupted as stop:
                self._store(first, stop.values)  # zip keeps the prefix
                raise
            self._store(first, values)
            out[miss_at] = [self.cache[keys[i]] for i in miss_at]
        return out

    def _store(self, keys, values: np.ndarray) -> None:
        """Cache freshly evaluated misses and count them."""
        self.cache.update(zip(keys, values.tolist()))
        self.misses += len(values)
        _CACHE_MISSES.inc(len(values))

    def stats(self) -> dict[str, int]:
        """This wrapper's own hit/miss/dedup accounting, for surfacing
        into :class:`~repro.search.base.SearchResult` and campaign
        records (``dedups`` is the within-batch-duplicate subset of
        ``hits``)."""
        return {"hits": self.hits, "misses": self.misses,
                "dedups": self.dedups, "entries": len(self.cache)}

    def __len__(self) -> int:
        return len(self.cache)

    def __getstate__(self):
        # hit/miss counters are per-process diagnostics; reset on the wire.
        return {"loss_fn": self.loss_fn, "cache": self.cache}

    def __setstate__(self, state):
        self.loss_fn = state["loss_fn"]
        self.cache = state["cache"]
        self.hits = 0
        self.misses = 0
        self.dedups = 0


def memoize_loss(loss_fn: Callable[[np.ndarray], float]) -> MemoizedLoss:
    """Wrap ``loss_fn`` in a fresh genome-keyed memo table."""
    return MemoizedLoss(loss_fn)
