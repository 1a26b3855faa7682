"""Per-layer split of a search's wall clock, measured from outside.

:class:`LayerTracer` wraps each layer's public entry points -- patched
where their callers look them up -- in a timing wrapper on one stack.
A frame's self time is its duration minus the time of the frames
nested inside it, so the self times of all layers, the root ``search``
frame included, add up to the traced searches' wall clock exactly.
Spans stay in memory and are written out once, when the run ends.

The patches are installed only for the duration of a traced search
(:meth:`LayerTracer.installed`), so untraced searches in the same
process run the program's own functions.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import time
from collections import defaultdict

import numpy as np


def _loss_genomes(tracer, args, result) -> None:
    tracer.counts["loss.genomes"] += len(result)


def _transform_rows(tracer, args, result) -> None:
    tracer.counts["transform.rows"] += result.num_rows


def _walk_rows(tracer, args, result) -> None:
    tracer.counts["noise_walk.rows"] += len(result)
    _, steps, table = args[:3]
    # Only a walk through one fixed circuit (every step unmasked, as
    # Clapton's skeleton walk is) can reuse a term's value across rows;
    # nCAFQA's per-genome schedules cannot.
    if all(rows is None for _, rows in steps):
        tracer.count_unique_rows(table)


#: (module, class or None, attribute, layer, counter).  Module-level
#: functions are patched in the module their callers resolve them from:
#: ``repro.core.loss`` imports the transformation functions at import
#: time, the noise model imports ``apply_gate_to_table`` at import time,
#: and the transformation and CAFQA loss import the kernels from
#: ``repro.stabilizer.tableau`` at call time.
ENTRY_POINTS = (
    ("repro.optim.genetic", "GeneticAlgorithm", "run", "breed", None),
    ("repro.execution.cache", "MemoizedLoss", "evaluate_many", "memo",
     None),
    ("repro.core.loss", "ClaptonLoss", "evaluate_many", "loss",
     _loss_genomes),
    ("repro.core.loss", "CafqaLoss", "evaluate_many", "loss",
     _loss_genomes),
    ("repro.core.loss", None, "transform_table_many", "transform",
     _transform_rows),
    ("repro.core.loss", None, "embed_table", "embed", None),
    ("repro.noise.clifford_model", "CliffordCircuitPlan",
     "reverse_schedule", "plan", None),
    ("repro.noise.clifford_model", "CliffordCircuitPlan",
     "reverse_leveled_schedule", "plan", None),
    ("repro.noise.clifford_model", "CliffordNoiseModel",
     "noisy_zero_state_term_values_steps", "noise_walk", _walk_rows),
    ("repro.noise.clifford_model", None, "apply_gate_to_table", "kernel",
     None),
    ("repro.stabilizer.tableau", None, "apply_gate_to_table", "kernel",
     None),
    ("repro.stabilizer.tableau", None, "apply_gate_levels_to_table",
     "kernel", None),
)

#: Every frame name; ``trace`` is the tracer's own analysis work.
LAYERS = ("search", "breed", "memo", "loss", "transform", "embed", "plan",
          "noise_walk", "kernel", "trace")


def unique_row_count(table) -> int:
    """Distinct packed ``(x, z)`` rows of a Pauli table."""
    words = np.concatenate([np.asarray(table.x), np.asarray(table.z)],
                           axis=1)
    return len(np.unique(words, axis=0))


class LayerTracer:
    """Wrapper-stack profiler over the program's layer entry points."""

    def __init__(self):
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        #: packed-kernel counter advance over the traced searches
        self.kernel: dict[str, int] = defaultdict(int)
        self.search_s = 0.0
        self.num_searches = 0
        #: (search, name, parent span index, start, end)
        self.spans: list[tuple] = []
        self._stack: list[list] = []

    # ------------------------------------------------------------------
    def _push(self, name: str) -> list:
        frame = [name, len(self.spans), 0.0, time.perf_counter()]
        parent = self._stack[-1][1] if self._stack else -1
        self.spans.append((self.num_searches, name, parent, frame[3], None))
        self._stack.append(frame)
        return frame

    def _pop(self) -> float:
        end = time.perf_counter()
        name, index, child_s, start = self._stack.pop()
        elapsed = end - start
        self.self_s[name] += elapsed - child_s
        self.calls[name] += 1
        if self._stack:
            self._stack[-1][2] += elapsed
        search, _, parent, _, _ = self.spans[index]
        self.spans[index] = (search, name, parent, start, end)
        return elapsed

    def _wrap(self, layer: str, fn, counter):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._push(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._pop()
            if counter is not None:
                counter(self, args, result)
            return result
        return wrapper

    def count_unique_rows(self, table) -> None:
        """Count a walked table's rows and distinct rows, timed as the
        tracer's own ``trace`` frame."""
        self._push("trace")
        try:
            self.counts["noise_walk.fixed_rows"] += table.num_rows
            self.counts["noise_walk.unique_rows"] += unique_row_count(table)
        finally:
            self._pop()

    # ------------------------------------------------------------------
    @contextlib.contextmanager
    def installed(self):
        """Patch every entry point for the duration of the block."""
        undo = []
        try:
            for module_name, owner_name, attr, layer, counter in ENTRY_POINTS:
                module = importlib.import_module(module_name)
                owner = (module if owner_name is None
                         else getattr(module, owner_name))
                original = (owner.__dict__[attr] if owner_name is not None
                            else getattr(module, attr))
                setattr(owner, attr, self._wrap(layer, original, counter))
                undo.append((owner, attr, original))
            yield self
        finally:
            for owner, attr, original in reversed(undo):
                setattr(owner, attr, original)

    def search(self, fn, *args, **kwargs):
        """Run one search as the root frame; returns its result."""
        from repro.obs.kernel import KERNEL

        if self._stack:
            raise RuntimeError("searches do not nest")
        before = KERNEL.snapshot()
        self._push("search")
        try:
            return fn(*args, **kwargs)
        finally:
            self.search_s += self._pop()
            self.num_searches += 1
            for key, value in KERNEL.delta(before).items():
                self.kernel[key] += value

    # ------------------------------------------------------------------
    def attributed_s(self) -> float:
        """Sum of every layer's self time (equals :attr:`search_s`)."""
        return sum(self.self_s[name] for name in LAYERS)

    def write_spans(self, path) -> None:
        """Write the in-memory spans as JSON lines.

        The first line names the fields; each further line is one span,
        ``[search, name, parent span index, start, end]``, the line's
        position (from 0) being the span's index.
        """
        with open(path, "w") as out:
            out.write(json.dumps(
                {"fields": ["search", "name", "parent", "start", "end"]})
                + "\n")
            for span in self.spans:
                out.write(json.dumps(span) + "\n")
