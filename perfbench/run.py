#!/usr/bin/env python3
"""End-to-end Clifford-search benchmark with an outside-in layer split.

Run from the repository root::

    python3 perfbench/run.py --workload fig4-ising12 --seed 1 \\
        --seconds 30 --trace 0

The run sets up the program (imports, problem, losses, warm-up), then
runs trios of whole seeded searches -- clapton, cafqa and ncafqa through
``InitializationMethod.search`` -- for ``--seconds`` seconds, checks
every search's best loss off the batched path, and prints one JSON
object as the last line of its output.  ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` pairs every untraced trio with a
traced repeat of the same seeds and reports the per-layer split.  Times
are in reference seconds (see ``calibrate.py``).  The line before the
result carries run metadata, raw wall times and the checked per-search
outputs.  README.md documents every metric.
"""

import time

import calibrate

_SETUP_CAL = calibrate.python_kernel()
_T0 = time.perf_counter()  # process start, before the program is imported

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from collections import defaultdict  # noqa: E402

# The load shape is one process and one thread: pin every BLAS pool
# before numpy is first imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
#: Set-up samples per run: this process plus fresh child processes.
SETUP_SAMPLES = 3

from workloads import METHODS, SMOKE, WORKLOADS, trio_seed  # noqa: E402


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny problem sizes (the smoke test)")
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    return args


# ----------------------------------------------------------------------
# Set-up
# ----------------------------------------------------------------------
def set_up(workload, seed: int) -> tuple:
    """Import, build the problem, warm up.

    Returns ``(problem, methods, timings)``; ``setup_s`` runs from
    process start to the end of the warm-up, and every timing is in
    reference seconds.
    """
    start = time.perf_counter()
    sys.path.insert(0, SRC)
    import repro  # noqa: F401
    from repro.methods import get_method

    imported = time.perf_counter()
    problem = workload.build_problem()
    built = time.perf_counter()
    methods = {name: get_method(name) for name in METHODS}
    for name in METHODS:
        methods[name].search(problem, **workload.search_args(
            trio_seed(seed, 0), warmup=True))
    done = time.perf_counter()
    factor = calibrate.scale(_SETUP_CAL, calibrate.python_kernel(),
                             calibrate.PYTHON_REFERENCE_S)
    return problem, methods, {
        "setup_s": (done - _T0) * factor,
        "import_s": (imported - start) * factor,
        "problem_s": (built - imported) * factor,
        "warmup_s": (done - built) * factor}


def setup_samples(args, first: dict) -> dict:
    """Median of each set-up timing over this process and fresh ones."""
    samples = [first]
    command = [sys.executable, os.path.abspath(__file__), "--workload",
               args.workload, "--seed", str(args.seed), "--setup-only"]
    if args.smoke:
        command.append("--smoke")
    for _ in range(SETUP_SAMPLES - 1):
        child = subprocess.run(command, capture_output=True, text=True,
                               timeout=150, check=True)
        samples.append(json.loads(child.stdout.strip().splitlines()[-1]))
    return {key: statistics.median(s[key] for s in samples)
            for key in first}


# ----------------------------------------------------------------------
# Searches
# ----------------------------------------------------------------------
class Runner:
    """Runs searches, each bracketed by calibration samples."""

    def __init__(self, workload, problem, methods: dict, seed: int,
                 tracer=None):
        self.workload = workload
        self.problem = problem
        self.methods = methods
        self.seed = seed
        self.tracer = tracer
        self.records: list[dict] = []
        #: per-layer self time of the traced searches, reference seconds
        self.layer_s: dict[str, float] = defaultdict(float)
        self._cal = calibrate.numpy_kernel()

    def search(self, name: str, index: int, traced: bool) -> None:
        search_args = self.workload.search_args(trio_seed(self.seed, index))
        record = {"method": name, "trio": index, "traced": traced,
                  "result": None, "error": None}
        method = self.methods[name]
        if traced:
            before = dict(self.tracer.self_s)
        start = time.perf_counter()
        try:
            if traced:
                with self.tracer.installed():
                    record["result"] = self.tracer.search(
                        method.search, self.problem, **search_args)
            else:
                record["result"] = method.search(self.problem, **search_args)
        except Exception:  # a failed search is counted, not fatal
            record["error"] = traceback.format_exc()
        record["seconds"] = time.perf_counter() - start
        cal = calibrate.numpy_kernel()
        factor = calibrate.scale(self._cal, cal)
        self._cal = cal
        record["ref_seconds"] = record["seconds"] * factor
        if traced:
            for layer, value in self.tracer.self_s.items():
                self.layer_s[layer] += (value - before.get(layer, 0.0)) \
                    * factor
        self.records.append(record)

    def measure(self, seconds: float) -> list[dict]:
        """Run trios until ``seconds`` have passed (at least one trio).

        With a tracer every trio runs twice on the same seeds, untraced
        and traced, alternating which goes first.
        """
        deadline = time.perf_counter() + seconds
        index = 0
        while True:
            passes = ([False] if self.tracer is None
                      else [False, True] if index % 2 == 0
                      else [True, False])
            for traced in passes:
                for name in METHODS:
                    self.search(name, index, traced)
            index += 1
            if time.perf_counter() >= deadline:
                return self.records


def check_records(problem, records: list[dict]) -> None:
    """Mark each record failed (``error``) unless its output checks out."""
    from checks import check_search

    untraced = {(r["method"], r["trio"]): r["result"] for r in records
                if not r["traced"] and r["result"] is not None}
    for record in records:
        result = record["result"]
        if record["error"] is not None:
            continue
        try:
            failure = check_search(problem, record["method"],
                                       result.best_genome, result.best_loss)
        except Exception:
            failure = traceback.format_exc()
        if failure is None and record["traced"]:
            twin = untraced.get((record["method"], record["trio"]))
            if twin is None or (twin.best_loss, twin.num_evaluations) != (
                    result.best_loss, result.num_evaluations):
                failure = (f"{record['method']}: traced search differs "
                               f"from its untraced twin")
        record["error"] = failure


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def end_to_end_metrics(records: list[dict], setup: dict) -> dict:
    metrics = {}
    for name in METHODS:
        metrics[f"{name}_search_s"] = (statistics.median(
            r["ref_seconds"] for r in records if r["method"] == name), "s")
    evaluations = sum(r["result"].num_evaluations for r in records
                      if r["error"] is None)
    metrics["candidates_per_s"] = (
        evaluations / sum(r["ref_seconds"] for r in records), "1/s")
    metrics["setup_s"] = (setup["setup_s"], "s")
    metrics["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    return metrics


def layer_metrics(runner: Runner, setup: dict) -> dict:
    """Per-layer metrics, per trio of traced searches."""
    tracer, records, layer_s = runner.tracer, runner.records, runner.layer_s
    counts, kernel = tracer.counts, tracer.kernel
    trios = tracer.num_searches / len(METHODS)
    stats = {"hits": 0, "misses": 0, "dedups": 0, "entries": 0}
    for r in records:
        if r["traced"] and r["result"] is not None:
            for key in stats:
                stats[key] += r["result"].cache_stats[key]
    traced_s = sum(layer_s.values())
    untraced_s = sum(r["ref_seconds"] for r in records if not r["traced"])
    lut_lookups = kernel["lut_hits"] + kernel["lut_misses"]
    return {
        "setup.import_s": (setup["import_s"], "s"),
        "setup.problem_s": (setup["problem_s"], "s"),
        "setup.warmup_s": (setup["warmup_s"], "s"),
        "search.breed_s": (layer_s["breed"] / trios, "s"),
        "search.self_s": (layer_s["search"] / trios, "s"),
        "search.batches": (tracer.calls["memo"] / trios, "count"),
        "memo.self_s": (layer_s["memo"] / trios, "s"),
        "memo.hits": (stats["hits"] / trios, "count"),
        "memo.misses": (stats["misses"] / trios, "count"),
        "memo.dedups": (stats["dedups"] / trios, "count"),
        "memo.entries": (stats["entries"] / trios, "count"),
        "memo.hit_ratio": (
            stats["hits"] / max(1, stats["hits"] + stats["misses"]),
            "ratio"),
        "loss.self_s": (layer_s["loss"] / trios, "s"),
        "loss.evaluations": (counts["loss.genomes"] / trios, "count"),
        "transform.self_s": (layer_s["transform"] / trios, "s"),
        "transform.rows": (counts["transform.rows"] / trios, "count"),
        "embed.s": (layer_s["embed"] / trios, "s"),
        "plan.schedule_s": (layer_s["plan"] / trios, "s"),
        "noise_walk.self_s": (layer_s["noise_walk"] / trios, "s"),
        "noise_walk.rows": (counts["noise_walk.rows"] / trios, "count"),
        "noise_walk.unique_row_ratio": (
            counts["noise_walk.unique_rows"]
            / max(1, counts["noise_walk.fixed_rows"]), "ratio"),
        "kernel.s": (layer_s["kernel"] / trios, "s"),
        "kernel.calls": (tracer.calls["kernel"] / trios, "count"),
        "kernel.words": (kernel["words"] / trios, "count"),
        "kernel.fused_passes": (kernel["fused_passes"] / trios, "count"),
        "kernel.lut_miss_ratio": (
            kernel["lut_misses"] / max(1, lut_lookups), "ratio"),
        "kernel.words_per_s": (
            kernel["words"] / max(layer_s["kernel"], 1e-12), "1/s"),
        "trace.self_s": (layer_s["trace"] / trios, "s"),
        "trace.search_s": (traced_s / trios, "s"),
        "trace.overhead_ratio": (traced_s / untraced_s, "ratio"),
    }


def run_metadata(args, records: list[dict]) -> dict:
    import numpy
    from repro.obs import build_info

    return {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "git_sha": build_info()["git_sha"],
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "load": {"processes": 1, "threads": 1, "executor": "serial"},
        "failed_search_ratio": (sum(r["error"] is not None for r in records)
                                / len(records)),
        "searches": [{
            "method": r["method"], "trio": r["trio"], "traced": r["traced"],
            "seconds": r["seconds"], "ref_seconds": r["ref_seconds"],
            "best_loss": (None if r["result"] is None
                          else r["result"].best_loss),
            "evaluations": (None if r["result"] is None
                            else r["result"].num_evaluations),
            "error": r["error"]} for r in records],
    }


# ----------------------------------------------------------------------
def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: program source not found at {SRC}; run from a "
              f"checkout of the repository", file=sys.stderr)
        return 2
    workload = (SMOKE if args.smoke else WORKLOADS)[args.workload]
    problem, methods, setup = set_up(workload, args.seed)
    if args.setup_only:
        print(json.dumps(setup))
        return 0

    tracer = None
    if args.trace:
        from layers import LayerTracer

        tracer = LayerTracer()
    runner = Runner(workload, problem, methods, args.seed, tracer)
    records = runner.measure(args.seconds)
    check_records(problem, records)
    setup = setup_samples(args, setup)

    if tracer is None:
        metrics = end_to_end_metrics(records, setup)
    else:
        attributed = tracer.attributed_s()
        if abs(attributed - tracer.search_s) > 1e-6 * tracer.search_s:
            raise RuntimeError(f"layer self times sum to {attributed} s, "
                               f"traced searches took {tracer.search_s} s")
        metrics = layer_metrics(runner, setup)
        out_dir = os.path.join(HERE, "out")
        os.makedirs(out_dir, exist_ok=True)
        tracer.write_spans(os.path.join(
            out_dir, f"spans-{args.workload}-seed{args.seed}.jsonl"))

    failed = sum(r["error"] is not None for r in records)
    for record in records:
        if record["error"] is not None:
            print(f"failed search: {record['error']}", file=sys.stderr)
    print(json.dumps({"meta": run_metadata(args, records)}))
    print(json.dumps({
        "correct": failed == 0, "attempted": len(records), "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
