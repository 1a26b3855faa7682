"""Command-line interface: ``repro <command>`` (or ``python -m repro``).

Thin wrappers over the :class:`~repro.experiments.Experiment` façade and
the campaign subsystem:

    repro list                      # benchmark suite (fixed names)
    repro benchmarks --kind physics # registered benchmarks + families
    repro methods                   # registered initialization methods
    repro strategies                # registered search strategies
    repro mitigations               # registered mitigation strategies
    repro ground-energy xxz_J0.50   # exact E0
    repro run ising:n=6,J=0.5 --backend nairobi --methods cafqa,clapton
    repro run ising:n=6 --strategy annealing --engine-population 20
    repro run ising:n=6 --mitigation "zne:folds=3|readout"
    repro molecule LiH 1.5          # chemistry pipeline summary
    repro sweep grid.json --jobs 4  # sharded campaign (resume: --resume)
    repro status grid.campaign      # done/failed/pending counts
    repro report grid.campaign      # markdown figure tables (+ --csv)

Campaigns can also run as a long-lived service (see
:mod:`repro.campaigns.service` for the architecture):

    repro serve --root ./campaigns --port 8000     # scheduler + HTTP
    repro worker --connect http://host:8000        # lease-driven worker
    repro submit grid.json --connect http://host:8000 --watch

The Figure-4 engine working point (s / m / k / |S| / retry rounds) is
adjustable from the command line via the ``--engine-*`` flags shared by
``run`` and ``sweep``.
"""

from __future__ import annotations

import argparse
import sys


def _setup_logging(verbosity: int, label: str | None = None) -> None:
    """Root logging config for the service verbs (``-v``/``-q`` counts).

    0 is quiet (warnings only); each ``-v`` raises the level, each
    ``-q`` lowers it.  ``label`` (the worker id) lands in every line so
    interleaved multi-worker logs stay attributable.
    """
    import logging

    if verbosity <= -1:
        level = logging.ERROR
    elif verbosity == 0:
        level = logging.WARNING
    elif verbosity == 1:
        level = logging.INFO
    else:
        level = logging.DEBUG
    tag = f" [{label}]" if label else ""
    logging.basicConfig(
        level=level,
        format=f"%(asctime)s %(levelname).1s %(name)s{tag}: %(message)s",
        datefmt="%H:%M:%S")


def _trace_context(trace: str | None, default_path) -> tuple:
    """``--trace`` value -> ``(context manager, path or None)``.

    ``--trace`` with no argument resolves to ``default_path`` (beside
    the campaign store where there is one); omitted entirely, tracing
    stays the no-op default.
    """
    from contextlib import nullcontext

    if trace is None:
        return nullcontext(None), None
    from .obs import JsonlTracer, use_tracer

    path = str(default_path) if trace == "auto" else trace
    return use_tracer(JsonlTracer(path)), path


def _cmd_list(args) -> int:
    from .hamiltonians import paper_benchmarks

    for bench in paper_benchmarks(args.qubits):
        print(f"{bench.name:<14} {bench.kind:<10} {bench.num_qubits}q")
    return 0


def _cmd_methods(args) -> int:
    from .methods import available_methods

    for name, method in available_methods().items():
        print(f"{name:<18} {method.description}")
    return 0


def _cmd_strategies(args) -> int:
    from .search import available_strategies

    for name, strategy in available_strategies().items():
        print(f"{name:<18} {strategy.description}")
    return 0


def _cmd_mitigations(args) -> int:
    from .mitigation import available_mitigations

    for name, mitigation in available_mitigations().items():
        print(f"{name:<18} {mitigation.description}")
    print("\ncompose with ':' parameters and '|' stages, e.g. "
          "\"zne:folds=5,fit=richardson|readout\"")
    return 0


def _cmd_benchmarks(args) -> int:
    from .hamiltonians import (benchmark_families, paper_benchmarks,
                               suite_benchmarks, suite_names)

    for bench in paper_benchmarks(args.qubits):
        if args.kind and bench.kind != args.kind:
            continue
        print(f"{bench.name:<22} {bench.kind:<10} {bench.num_qubits:>2}q  "
              f"{bench.description}")
    families = [f for f in benchmark_families().values()
                if not args.kind or f.kind == args.kind]
    if families:
        print("\nparameterized families (use as 'family:key=value,...'):")
        for family in families:
            print(f"{family.spec_syntax:<34} {family.kind:<10} "
                  f"{family.description}")
    if not args.kind:
        print("\nsuites (use as 'suite:<name>' in campaign benchmark "
              "lists):")
        for name in suite_names():
            print(f"suite:{name:<16} -> "
                  f"{', '.join(suite_benchmarks(name))}")
    return 0


def _resolve_benchmark(name: str, qubits: int):
    """Registry lookup; ``None`` (after a stderr message) when unknown."""
    from .hamiltonians import get_benchmark

    try:
        return get_benchmark(name, qubits)
    except (KeyError, ValueError) as exc:
        print(exc.args[0], file=sys.stderr)
        print(f"see `repro list --qubits {qubits}` and `repro benchmarks`",
              file=sys.stderr)
        return None


def _cmd_ground_energy(args) -> int:
    from .hamiltonians import ground_state_energy

    bench = _resolve_benchmark(args.benchmark, args.qubits)
    if bench is None:
        return 2
    hamiltonian = bench.hamiltonian()
    print(f"{bench.name}: {hamiltonian.num_terms} terms, "
          f"E0 = {ground_state_energy(hamiltonian):.6f}")
    return 0


def _resolve_method_names(text: str) -> list[str] | None:
    """Split + validate a comma-separated method list; ``None`` (after a
    stderr message with a did-you-mean hint) on any unknown name."""
    from .methods import get_method

    names = list(dict.fromkeys(  # dedupe, preserving order
        m.strip() for m in text.split(",") if m.strip()))
    if not names:
        print("no methods given; see `repro methods`", file=sys.stderr)
        return None
    for name in names:
        try:
            get_method(name)
        except KeyError as exc:
            print(exc.args[0], file=sys.stderr)
            print("see `repro methods`", file=sys.stderr)
            return None
    return names


#: ``--engine-*`` flag destinations -> EngineConfig field names (the
#: Figure-4 working point: s, m, k, |S|, retry rounds).
_ENGINE_FLAGS = {
    "engine_instances": "num_instances",
    "engine_generations": "generations_per_round",
    "engine_top_k": "top_k",
    "engine_population": "population_size",
    "engine_retry_rounds": "retry_rounds",
}


def _engine_overrides(args) -> dict:
    """EngineConfig overrides collected from the ``--engine-*`` flags."""
    return {field: getattr(args, dest)
            for dest, field in _ENGINE_FLAGS.items()
            if getattr(args, dest, None) is not None}


def _resolve_strategy_name(name: str) -> str | None:
    """Validate one strategy name; ``None`` (after a stderr message with
    a did-you-mean hint) when unknown."""
    from .search import get_strategy

    try:
        get_strategy(name)
    except KeyError as exc:
        print(exc.args[0], file=sys.stderr)
        print("see `repro strategies`", file=sys.stderr)
        return None
    return name


def _resolve_mitigation_spec(spec: str) -> str | None:
    """Validate one mitigation spec (name, parameterized, or composed);
    ``None`` (after a stderr message with a did-you-mean hint) when it
    does not resolve."""
    from .mitigation import resolve_mitigation

    try:
        resolve_mitigation(spec)
    except (KeyError, ValueError) as exc:
        print(exc.args[0], file=sys.stderr)
        print("see `repro mitigations`", file=sys.stderr)
        return None
    return spec


def _cmd_run(args) -> int:
    from dataclasses import replace

    from .backends import ALL_BACKENDS
    from .experiments import Experiment, bench_engine

    methods = _resolve_method_names(args.methods or args.method)
    if methods is None:
        return 2
    strategy = _resolve_strategy_name(args.strategy)
    if strategy is None:
        return 2
    mitigation = _resolve_mitigation_spec(args.mitigation)
    if mitigation is None:
        return 2
    if args.backend not in ALL_BACKENDS:
        print(f"unknown backend {args.backend!r}", file=sys.stderr)
        return 2
    backend = ALL_BACKENDS[args.backend]()
    num_qubits = args.qubits
    bench = _resolve_benchmark(args.benchmark, num_qubits)
    if bench is None:
        return 2
    try:
        hamiltonian = bench.hamiltonian()
    except (TypeError, ValueError) as exc:
        # a well-formed spec with a bad parameter *value* only surfaces
        # when the builder runs, e.g. ising:n=abc
        print(f"cannot build benchmark {args.benchmark!r}: {exc}",
              file=sys.stderr)
        return 2
    mitigation_tag = ("" if mitigation == "none"
                      else f", mitigation={mitigation}")
    print(f"{args.benchmark} ({hamiltonian.num_qubits}q) on "
          f"{backend.name}, methods={','.join(methods)}, "
          f"strategy={strategy}{mitigation_tag}, seed={args.seed}")
    experiment = Experiment(hamiltonian, backend=backend,
                            name=args.benchmark)
    config = replace(bench_engine(), seed=args.seed,
                     **_engine_overrides(args))
    ctx, trace_path = _trace_context(args.trace, "trace.jsonl")
    with ctx:
        from .obs import get_tracer

        with get_tracer().span("cli.run", benchmark=args.benchmark,
                               strategy=strategy, mitigation=mitigation,
                               seed=args.seed):
            result = experiment.run(methods=tuple(methods), config=config,
                                    vqe_iterations=args.vqe_iterations,
                                    seed=args.seed, strategy=strategy,
                                    mitigation=mitigation)
    if trace_path is not None:
        print(f"trace written to {trace_path} "
              f"(repro trace summary {trace_path})")
    print(f"E0              = {result.e0:.6f}")
    for method in methods:
        run = result.runs[method]
        evaluation = run.evaluation
        if len(methods) > 1:
            print(f"-- {method} --")
        print(f"noise-free      = {evaluation.noiseless:.6f}")
        print(f"clifford model  = {evaluation.clifford_model:.6f}")
        if evaluation.device_model_raw is not None:
            print(f"device model    = {evaluation.device_model:.6f} "
                  f"({run.mitigation}; raw "
                  f"{evaluation.device_model_raw:.6f})")
        else:
            print(f"device model    = {evaluation.device_model:.6f}")
        if run.vqe is not None:
            print(f"VQE final       = {run.vqe.final_energy:.6f} "
                  f"({run.vqe.num_evaluations} evaluations: "
                  f"{run.vqe.evaluations_by_tier})")
        print(f"search: {run.strategy}, {run.engine_rounds} rounds, "
              f"{run.engine_evaluations} evaluations, "
              f"{run.engine_seconds:.1f}s")
    if args.save:
        import json

        with open(args.save, "w") as fh:
            json.dump(result.to_dict(), fh, indent=2)
        print(f"saved to {args.save}")
    return 0


def _cmd_molecule(args) -> int:
    from .chem import molecular_hamiltonian
    from .hamiltonians import ground_state_energy

    problem = molecular_hamiltonian(args.name, args.bond_length)
    h = problem.hamiltonian
    print(f"{args.name} at l = {args.bond_length} A (STO-3G, "
          f"{problem.active_space.num_active} active orbitals)")
    print(f"RHF energy = {problem.hf_energy:.6f} Ha "
          f"(converged: {problem.scf.converged})")
    print(f"qubit Hamiltonian: {h.num_qubits} qubits, {h.num_terms} terms")
    print(f"FCI (active space) E0 = {ground_state_energy(h):.6f} Ha")
    if args.save:
        from .paulis.serialization import save_pauli_sum

        save_pauli_sum(h, args.save)
        print(f"saved to {args.save}")
    return 0


def _default_store(spec_path: str) -> str:
    from pathlib import Path

    path = Path(spec_path)
    return str(path.with_suffix(".campaign") if path.suffix
               else path.with_name(path.name + ".campaign"))


def _open_store(path):
    """Open a store for the CLI; ``None`` after a stderr message on any
    unusable path (missing, not a store, corrupt spec)."""
    from .campaigns import ResultStore

    try:
        return ResultStore.open(path)
    except (OSError, ValueError, TypeError, KeyError) as exc:
        print(f"cannot open campaign store {str(path)!r}: {exc}",
              file=sys.stderr)
        return None


def _cmd_sweep(args) -> int:
    from dataclasses import replace
    from pathlib import Path

    from .campaigns import CampaignRunner, CampaignSpec, ResultStore
    from .execution import ProcessExecutor

    try:
        spec = CampaignSpec.load(args.spec)
    except (OSError, ValueError, TypeError, KeyError) as exc:
        print(f"cannot load campaign spec {args.spec!r}: {exc}",
              file=sys.stderr)
        return 2
    changes = {}
    if args.strategies:
        names = list(dict.fromkeys(  # dedupe, preserving order
            s.strip() for s in args.strategies.split(",") if s.strip()))
        if not names:
            print("no strategies given; see `repro strategies`",
                  file=sys.stderr)
            return 2
        for name in names:
            if _resolve_strategy_name(name) is None:
                return 2
        changes["strategies"] = names
    if args.mitigations:
        from .mitigation import split_mitigation_specs

        # spec-aware split: "," inside one spec's parameters (e.g.
        # "zne:folds=3,fit=exp") does not separate axis values
        specs = split_mitigation_specs(args.mitigations)
        if not specs:
            print("no mitigations given; see `repro mitigations`",
                  file=sys.stderr)
            return 2
        for spec_text in specs:
            if _resolve_mitigation_spec(spec_text) is None:
                return 2
        changes["mitigations"] = specs
    overrides = _engine_overrides(args)
    if overrides:
        changes["engine_overrides"] = {**spec.engine_overrides,
                                       **overrides}
    if changes:
        try:  # replace re-runs the spec's declaration-time validation
            spec = replace(spec, **changes)
        except ValueError as exc:
            print(f"bad sweep overrides: {exc}", file=sys.stderr)
            return 2
    # fail on a typo'd benchmark now, not as N failed task records
    # (resolution is lazy: nothing is built here, and registry names do
    # not depend on the qubit-size axis)
    from .hamiltonians import get_benchmark

    unknown = []
    for name in spec.expanded_benchmarks():
        try:
            get_benchmark(name)
        except (KeyError, ValueError) as exc:
            unknown.append(name)
            print(exc.args[0], file=sys.stderr)
    if unknown:
        print(f"unknown benchmarks {unknown}; see `repro benchmarks`",
              file=sys.stderr)
        return 2
    store_path = Path(args.store or _default_store(args.spec))
    try:
        store = ResultStore.create(store_path, spec)
    except NotADirectoryError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    except FileExistsError:
        if not args.resume:
            print(f"store {store_path} already has results; pass --resume "
                  f"to continue it or choose a fresh --store",
                  file=sys.stderr)
            return 2
        store = _open_store(store_path)
        if store is None:
            return 2
        if store.spec.to_dict() != spec.to_dict():
            print(f"spec {args.spec} no longer matches the spec recorded "
                  f"in {store_path}; resume against the original spec "
                  f"(including any sweep overrides) or start a fresh "
                  f"--store", file=sys.stderr)
            return 2
        skipping = len({t.task_id for t in spec.tasks()}
                       & store.completed_ids())
        print(f"resume: skipping {skipping} completed task id(s) "
              f"already in {store_path}")
    total = spec.num_tasks
    done = {"n": len(store.completed_ids())}
    print(f"campaign {spec.name!r}: {total} tasks, "
          f"{done['n']} already done, jobs={args.jobs}, "
          f"store={store_path}")

    def on_record(record):
        done["n"] += 1
        status = record["status"]
        label = record["task"]["benchmark"]
        method = record["task"]["method"]
        print(f"[{done['n']}/{total}] {label}/{method} "
              f"{status} ({record['seconds']:.1f}s)")

    from .campaigns import RetryPolicy

    try:
        retry = RetryPolicy(max_attempts=args.max_attempts,
                            backoff_base=args.backoff)
    except ValueError as exc:
        print(f"bad retry policy: {exc}", file=sys.stderr)
        return 2
    executor = ProcessExecutor(args.jobs) if args.jobs > 1 else None
    runner = CampaignRunner(spec, store, executor=executor)
    ctx, trace_path = _trace_context(args.trace,
                                     store_path / "trace.jsonl")
    try:
        with ctx:
            from .obs import get_tracer

            with get_tracer().span("cli.sweep", campaign=spec.name,
                                   tasks=total, jobs=args.jobs):
                progress = runner.run(on_record=on_record, retry=retry)
    finally:
        store.close()
        if executor is not None:
            executor.close()
    counts = store.counts()
    retried = f", {progress.retried} retried" if progress.retried else ""
    print(f"done: {counts['done']}/{counts['total']} "
          f"({counts['failed']} failed, {progress.skipped} skipped"
          f"{retried}, {progress.seconds:.1f}s)")
    if trace_path is not None:
        print(f"trace written to {trace_path} "
              f"(repro trace summary {trace_path})")
    print(f"next: repro report {store_path}")
    return 0 if counts["failed"] == 0 else 1


def _print_strategy_progress(store) -> None:
    """Per-strategy done/failed/pending lines for multi-strategy sweeps."""
    from collections import Counter

    from .campaigns.store import STATUS_DONE, STATUS_FAILED

    try:
        totals = Counter(t.strategy for t in store.spec.tasks())
    except (KeyError, ValueError):
        # unregistered suite/benchmark in this process: per-strategy
        # totals are unknowable; fall back to recorded tasks only
        totals = Counter()
    done: Counter = Counter()
    failed: Counter = Counter()
    for record in store.records():
        strategy = (record.get("task") or {}).get("strategy", "multi_ga")
        if record["status"] == STATUS_DONE:
            done[strategy] += 1
        elif record["status"] == STATUS_FAILED:
            failed[strategy] += 1
    for strategy in store.spec.strategies:
        total = totals.get(strategy, done[strategy] + failed[strategy])
        pending = max(0, total - done[strategy] - failed[strategy])
        print(f"          {strategy:<14} {done[strategy]} done, "
              f"{failed[strategy]} failed, {pending} pending")


def _status_line(snapshot: dict) -> str:
    """One progress line with throughput and ETA columns.

    ``tasks_per_second`` / ``eta_seconds`` are ``None`` until the
    scheduler has seen enough completions to estimate them; render a
    dash rather than a bogus number.
    """
    rate = snapshot.get("tasks_per_second")
    eta = snapshot.get("eta_seconds")
    rate_col = "-" if rate is None else f"{rate:.2f}/s"
    eta_col = "-" if eta is None else f"{eta:.0f}s"
    return (f"{snapshot['done']}/{snapshot['total']} done, "
            f"{snapshot['failed']} failed, "
            f"{snapshot['leased']} leased, "
            f"{rate_col}, eta {eta_col}")


def _follow(client, campaign: str | None, stream: bool,
            interval: float) -> dict:
    """Print a progress line per change until the campaign completes,
    from the NDJSON stream or by polling; returns the last snapshot."""
    import time

    def poll():
        while True:
            yield client.status(campaign)
            time.sleep(interval)

    last = None
    for snapshot in client.status_stream(campaign) if stream else poll():
        line = _status_line(snapshot)
        if line != last:
            print(line)
            last = line
        if snapshot["complete"]:
            return snapshot
    return snapshot


def _remote_status(args) -> int:
    """``repro status --connect URL``: snapshot, stream, or poll."""
    from .campaigns.service import (CLIENT_ERRORS, HttpSchedulerClient,
                                    ServiceError)

    client = HttpSchedulerClient(args.connect)
    try:
        if args.watch:
            # the poll fallback serves proxies that buffer chunked replies
            _follow(client, args.campaign, not args.no_stream,
                    args.interval)
            return 0
        snapshot = client.status(args.campaign)
        print(f"campaign  {snapshot['campaign']} ({snapshot['name']})")
        print(f"progress  {_status_line(snapshot)}")
        return 0
    except ServiceError as exc:
        print(f"server rejected the request: {exc}", file=sys.stderr)
        return 2
    except CLIENT_ERRORS as exc:
        print(f"cannot reach {args.connect}: {exc}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        print()
        return 0


def _cmd_status(args) -> int:
    if args.connect:
        return _remote_status(args)
    if not args.store:
        print("a campaign store directory (or --connect URL) is "
              "required", file=sys.stderr)
        return 2
    store = _open_store(args.store)
    if store is None:
        return 2
    counts = store.counts()
    print(f"campaign  {store.spec.name}")
    print(f"store     {store.path}")
    print(f"tasks     {counts['total']} total: {counts['done']} done, "
          f"{counts['failed']} failed, {counts['pending']} pending")
    if len(store.spec.strategies) > 1:
        _print_strategy_progress(store)
    unresolved = store.spec.unresolved_suites()
    if unresolved:
        print(f"warning   {unresolved} not registered in this process; "
              f"totals are lower bounds (pending may be underestimated)")
    print(f"wall time {store.total_seconds():.1f}s recorded")
    for task_id in sorted(store.failed_ids()):
        record = store.record(task_id)
        error = (record.get("error") or "").strip().splitlines()
        print(f"  failed {task_id} "
              f"({record['task']['benchmark']}/{record['task']['method']}): "
              f"{error[-1] if error else 'unknown error'}")
    return 0


def _cmd_report(args) -> int:
    from .campaigns import CampaignAggregate, render_report

    store = _open_store(args.store)
    if store is None:
        return 2
    improver = args.improver or "clapton"
    if args.improver is not None and improver not in store.spec.methods:
        # an explicit but typo'd improver would silently drop every eta
        # table (the default may legitimately be absent, e.g. a
        # single-method campaign, and then skips them as before)
        print(f"improver {improver!r} is not a method of this campaign; "
              f"methods: {store.spec.methods}", file=sys.stderr)
        return 2
    aggregate = CampaignAggregate.from_store(store)
    try:
        print(render_report(store, tier=args.tier, aggregate=aggregate,
                            improver=improver, strategy=args.strategy,
                            mitigation=args.mitigation), end="")
    except KeyError as exc:
        # filtered() names the campaign's actual axis values
        print(exc.args[0], file=sys.stderr)
        return 2
    if args.csv:
        aggregate.write_csv(args.csv)
        print(f"\nrow-level CSV written to {args.csv}")
    return 0


# ----------------------------------------------------------------------
# Campaign service verbs (see repro.campaigns.service)
# ----------------------------------------------------------------------
def _load_spec_payload(path: str) -> dict | None:
    """Spec file -> JSON payload; ``None`` after a stderr message."""
    import json
    from pathlib import Path

    try:
        return json.loads(Path(path).read_text())
    except (OSError, ValueError) as exc:
        print(f"cannot load campaign spec {path!r}: {exc}",
              file=sys.stderr)
        return None


def _cmd_serve(args) -> int:
    import threading
    import time
    from pathlib import Path

    from .campaigns import RetryPolicy
    from .campaigns.service import ServiceState, run_worker, start_server
    from .campaigns.service.protocol import SubmitRequest

    _setup_logging(args.verbose - args.quiet)
    try:
        retry = RetryPolicy(max_attempts=args.max_attempts,
                            backoff_base=args.backoff)
    except ValueError as exc:
        print(f"bad retry policy: {exc}", file=sys.stderr)
        return 2
    state = ServiceState(root=args.root, retry=retry,
                         lease_ttl=args.lease_ttl,
                         max_outstanding=args.max_outstanding)
    for spec_path in args.spec or []:
        payload = _load_spec_payload(spec_path)
        if payload is None:
            return 2
        try:
            campaign, resumed = state.submit(
                SubmitRequest.from_dict(payload).spec)
        except (ValueError, OSError) as exc:
            print(f"cannot register {spec_path!r}: {exc}",
                  file=sys.stderr)
            return 2
        status = campaign.status()
        print(f"campaign {campaign.id}: {status['total']} tasks, "
              f"{status['done']} done"
              f"{' (resumed)' if resumed else ''}")
    for store_path in args.store or []:
        try:
            campaign = state.attach(store_path)
        except (OSError, ValueError, TypeError, KeyError) as exc:
            print(f"cannot attach store {store_path!r}: {exc}",
                  file=sys.stderr)
            return 2
        print(f"campaign {campaign.id}: attached from {store_path}")
    ctx, trace_path = _trace_context(args.trace,
                                     Path(args.root) / "trace.jsonl")
    with ctx:
        server = start_server(state, host=args.host, port=args.port,
                              verbose=args.verbose > 0)
        print(f"serving at {server.url} (lease ttl {args.lease_ttl:g}s, "
              f"max attempts {args.max_attempts}, root {args.root})")
        if trace_path is not None:
            print(f"tracing to {trace_path}")
        worker_threads = []
        for i in range(args.local_workers):
            thread = threading.Thread(
                target=run_worker, args=(state,),
                kwargs={"worker_id": f"local-{i}", "poll_interval": 0.2,
                        "exit_on_idle": args.until_done},
                daemon=True, name=f"local-worker-{i}")
            thread.start()
            worker_threads.append(thread)
        if worker_threads:
            print(f"{len(worker_threads)} local worker(s) attached")
        try:
            if args.until_done:
                while not state.all_done:
                    time.sleep(0.2)
                for thread in worker_threads:
                    thread.join(timeout=10)
                failed = 0
                for campaign in state.campaigns():
                    status = campaign.status()
                    failed += status["failed"]
                    print(f"campaign {campaign.id}: {status['done']}/"
                          f"{status['total']} done, {status['failed']} "
                          f"failed, {status['leases_stolen']} leases "
                          f"stolen")
                return 0 if failed == 0 else 1
            while True:  # serve forever; ctrl-C (or a signal) stops us
                time.sleep(1.0)
        except KeyboardInterrupt:
            print("\nshutting down")
            return 0
        finally:
            server.stop()


def _cmd_worker(args) -> int:
    from .campaigns.service import (
        CLIENT_ERRORS,
        HttpSchedulerClient,
        default_worker_id,
        run_worker,
    )

    client = HttpSchedulerClient(args.connect)
    worker_id = args.worker_id or default_worker_id()
    _setup_logging(args.verbose - args.quiet, label=worker_id)
    print(f"worker {worker_id} -> {args.connect}")

    def on_event(kind, payload):
        if kind == "lease":
            print(f"  lease {payload.task_id[:10]} "
                  f"{payload.task['benchmark']}/{payload.task['method']}")
        elif kind == "record":
            record = payload["record"]
            print(f"  {record['status']} {record['task_id'][:10]} "
                  f"({record['seconds']:.1f}s)")
        elif kind == "lost":
            print(f"  server unreachable: {payload['error']}",
                  file=sys.stderr)

    ctx, trace_path = _trace_context(args.trace,
                                     f"trace-{worker_id}.jsonl")
    try:
        with ctx:
            executed = run_worker(client, worker_id,
                                  poll_interval=args.poll,
                                  exit_on_idle=args.exit_on_idle,
                                  max_tasks=args.max_tasks,
                                  on_event=on_event)
    except CLIENT_ERRORS as exc:
        print(f"worker {worker_id}: lost the scheduler at "
              f"{args.connect}: {exc}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        print(f"\nworker {worker_id}: interrupted")
        return 0
    if trace_path is not None:
        print(f"trace written to {trace_path}")
    print(f"worker {worker_id}: {executed} task(s) executed")
    return 0


def _cmd_submit(args) -> int:
    from .campaigns.service import (CLIENT_ERRORS, HttpSchedulerClient,
                                    ServiceError)

    payload = _load_spec_payload(args.spec)
    if payload is None:
        return 2
    client = HttpSchedulerClient(args.connect)
    try:
        submitted = client.submit(payload)
    except ServiceError as exc:
        print(f"submit rejected: {exc.error}", file=sys.stderr)
        return 2
    except CLIENT_ERRORS as exc:
        print(f"cannot reach {args.connect}: {exc}", file=sys.stderr)
        return 1
    cid = submitted["campaign"]
    print(f"campaign {cid}: {submitted['total']} tasks, "
          f"{submitted['done']} done"
          f"{' (resumed)' if submitted['resumed'] else ''}")
    if not args.watch:
        print(f"watch:  repro submit {args.spec} --connect "
              f"{args.connect} --watch")
        return 0
    try:
        status = _follow(client, cid, stream=False, interval=args.poll)
        print(client.report(cid), end="")
    except CLIENT_ERRORS as exc:
        print(f"lost the server: {exc}", file=sys.stderr)
        return 1
    return 0 if status["failed"] == 0 else 1


def _cmd_trace_summary(args) -> int:
    from .obs import (parse_trace_lines, render_summary, summarize,
                      summarize_spans)

    if args.connect:
        from .campaigns.service import (CLIENT_ERRORS, HttpSchedulerClient,
                                        ServiceError)

        if not args.campaign:
            print("--connect requires --campaign ID", file=sys.stderr)
            return 2
        try:
            text = HttpSchedulerClient(args.connect).trace(args.campaign)
        except ServiceError as exc:
            print(f"server has no trace for campaign "
                  f"{args.campaign!r}: {exc.error}", file=sys.stderr)
            return 1
        except CLIENT_ERRORS as exc:
            print(f"cannot reach {args.connect}: {exc}", file=sys.stderr)
            return 1
        meta, spans = parse_trace_lines(text.splitlines())
        summary = summarize_spans(spans, meta)
        source = f"{args.connect} campaign {args.campaign}"
    elif args.trace:
        try:
            summary = summarize(args.trace)
        except (OSError, ValueError) as exc:
            print(f"cannot read trace {args.trace!r}: {exc}",
                  file=sys.stderr)
            return 2
        source = args.trace
    else:
        print("give a trace.jsonl path or --connect URL --campaign ID",
              file=sys.stderr)
        return 2
    if summary.num_spans == 0:
        print(f"no spans in {source}", file=sys.stderr)
        return 1
    if args.json:
        import json

        print(json.dumps(summary.to_dict(), indent=2))
    else:
        print(render_summary(summary, max_depth=args.depth), end="")
    return 0


def _cmd_trace_export(args) -> int:
    from .obs import export_chrome_trace

    output = args.output or (args.trace + ".perfetto.json")
    try:
        events = export_chrome_trace(args.trace, output)
    except (OSError, ValueError) as exc:
        print(f"cannot export trace {args.trace!r}: {exc}",
              file=sys.stderr)
        return 2
    print(f"{events} event(s) written to {output} "
          f"(open at https://ui.perfetto.dev)")
    return 0


def _cmd_bench_compare(args) -> int:
    from .obs import compare_files, parse_tolerance, render_markdown

    try:
        tolerance = parse_tolerance(args.tolerance)
    except ValueError as exc:
        print(f"bad --tolerance: {exc}", file=sys.stderr)
        return 2
    try:
        result = compare_files(args.run, args.baseline,
                               tolerance=tolerance)
    except (OSError, ValueError) as exc:
        print(f"cannot compare: {exc}", file=sys.stderr)
        return 2
    print(render_markdown(result, show_ok=not args.regressions_only))
    return 1 if result.regressions else 0


def _cmd_metrics(args) -> int:
    from .campaigns.service import CLIENT_ERRORS, HttpSchedulerClient

    try:
        text = HttpSchedulerClient(args.connect).metrics()
    except CLIENT_ERRORS as exc:
        print(f"cannot reach {args.connect}: {exc}", file=sys.stderr)
        return 1
    if args.name:
        # keep a family's HELP/TYPE header with its samples
        lines = [line for line in text.splitlines()
                 if args.name in line]
        text = "\n".join(lines) + ("\n" if lines else "")
    print(text, end="")
    return 0


def _add_engine_flags(parser) -> None:
    """The Figure-4 working-point flags shared by ``run`` and ``sweep``.

    Unset flags keep the engine preset's value (``run``) or the spec's
    ``engine_overrides`` (``sweep``).
    """
    group = parser.add_argument_group(
        "engine working point (Figure 4: s / m / k / |S| / retries)")
    group.add_argument("--engine-instances", type=int, metavar="S",
                       help="GA instances per round (s)")
    group.add_argument("--engine-generations", type=int, metavar="M",
                       help="generations per round (m)")
    group.add_argument("--engine-top-k", type=int, metavar="K",
                       help="elites pooled per instance (k)")
    group.add_argument("--engine-population", type=int, metavar="P",
                       help="population size per instance (|S|)")
    group.add_argument("--engine-retry-rounds", type=int, metavar="R",
                       help="non-improving rounds before convergence")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="Clapton reproduction command line")
    sub = parser.add_subparsers(dest="command", required=True)

    p_list = sub.add_parser("list", help="list the benchmark suite")
    p_list.add_argument("--qubits", type=int, default=10)
    p_list.set_defaults(fn=_cmd_list)

    p_methods = sub.add_parser(
        "methods", help="list registered initialization methods")
    p_methods.set_defaults(fn=_cmd_methods)

    p_strategies = sub.add_parser(
        "strategies", help="list registered search strategies")
    p_strategies.set_defaults(fn=_cmd_strategies)

    p_mitigations = sub.add_parser(
        "mitigations", help="list registered mitigation strategies")
    p_mitigations.set_defaults(fn=_cmd_mitigations)

    p_bench = sub.add_parser(
        "benchmarks",
        help="list registered benchmarks, families, and suites")
    p_bench.add_argument("--kind", choices=["physics", "chemistry"],
                         help="only list benchmarks of this kind")
    p_bench.add_argument("--qubits", type=int, default=10)
    p_bench.set_defaults(fn=_cmd_benchmarks)

    p_ge = sub.add_parser("ground-energy", help="exact E0 of a benchmark")
    p_ge.add_argument("benchmark")
    p_ge.add_argument("--qubits", type=int, default=10)
    p_ge.set_defaults(fn=_cmd_ground_energy)

    p_run = sub.add_parser("run", help="run one initialization method")
    p_run.add_argument("benchmark")
    p_run.add_argument("--backend", default="toronto")
    p_run.add_argument("--method", default="clapton",
                       help="one registered method (see `repro methods`)")
    p_run.add_argument("--methods",
                       help="comma-separated registered methods; "
                            "overrides --method")
    p_run.add_argument("--strategy", default="multi_ga",
                       help="search strategy every method searches with "
                            "(see `repro strategies`)")
    p_run.add_argument("--mitigation", default="none",
                       help="mitigation applied to noisy evaluations, "
                            "e.g. zne:folds=3 or \"zne|readout\" "
                            "(see `repro mitigations`)")
    p_run.add_argument("--qubits", type=int, default=6)
    p_run.add_argument("--vqe-iterations", type=int, default=0,
                       help="SPSA iterations of the online VQE phase")
    p_run.add_argument("--seed", type=int, default=0,
                       help="engine + VQE seed (same seed, same numbers)")
    p_run.add_argument("--save", help="write the ExperimentResult JSON here")
    p_run.add_argument("--trace", nargs="?", const="auto", metavar="PATH",
                       help="record a span trace to PATH "
                            "(default: ./trace.jsonl)")
    _add_engine_flags(p_run)
    p_run.set_defaults(fn=_cmd_run)

    p_sweep = sub.add_parser(
        "sweep", help="run a campaign grid from a CampaignSpec JSON file")
    p_sweep.add_argument("spec", help="CampaignSpec JSON file")
    p_sweep.add_argument("--store",
                         help="store directory (default: <spec>.campaign)")
    p_sweep.add_argument("--jobs", type=int, default=1,
                         help="worker processes tasks are sharded over")
    p_sweep.add_argument("--resume", action="store_true",
                         help="continue an interrupted store, skipping "
                              "completed task ids")
    p_sweep.add_argument("--strategies", "--strategy", dest="strategies",
                         help="comma-separated search strategies "
                              "overriding the spec's strategy axis "
                              "(see `repro strategies`)")
    p_sweep.add_argument("--mitigations", "--mitigation",
                         dest="mitigations",
                         help="comma-separated mitigation specs "
                              "overriding the spec's mitigation axis, "
                              "e.g. none,zne:folds=3,\"zne|readout\" "
                              "(see `repro mitigations`)")
    p_sweep.add_argument("--max-attempts", type=int, default=1,
                         help="executions a failing cell gets this run "
                              "(retried with exponential backoff)")
    p_sweep.add_argument("--backoff", type=float, default=0.5,
                         help="seconds before the first retry (doubles "
                              "per further attempt)")
    p_sweep.add_argument("--trace", nargs="?", const="auto",
                         metavar="PATH",
                         help="record a span trace to PATH (default: "
                              "<store>/trace.jsonl)")
    _add_engine_flags(p_sweep)
    p_sweep.set_defaults(fn=_cmd_sweep)

    p_serve = sub.add_parser(
        "serve", help="run the campaign service (scheduler + HTTP)")
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--port", type=int, default=8000,
                         help="0 picks a free port (printed at startup)")
    p_serve.add_argument("--root", default="./campaigns",
                         help="directory submitted campaign stores are "
                              "created under")
    p_serve.add_argument("--spec", action="append", metavar="FILE",
                         help="CampaignSpec JSON to register at startup "
                              "(repeatable)")
    p_serve.add_argument("--store", action="append", metavar="DIR",
                         help="existing campaign store to attach and "
                              "resume (repeatable)")
    p_serve.add_argument("--lease-ttl", type=float, default=30.0,
                         help="seconds a worker lease lives between "
                              "heartbeats")
    p_serve.add_argument("--max-attempts", type=int, default=1,
                         help="executions a failing task gets before it "
                              "is parked as permanently failed")
    p_serve.add_argument("--backoff", type=float, default=0.5,
                         help="seconds before the first retry (doubles "
                              "per further attempt)")
    p_serve.add_argument("--max-outstanding", type=int, default=None,
                         help="backpressure: cap on simultaneously "
                              "leased tasks per campaign")
    p_serve.add_argument("--local-workers", type=int, default=0,
                         metavar="N",
                         help="also run N in-process worker threads")
    p_serve.add_argument("--until-done", action="store_true",
                         help="exit (status 0/1) once every registered "
                              "campaign completes, instead of serving "
                              "forever")
    p_serve.add_argument("-v", "--verbose", action="count", default=0,
                         help="more logging (-v requests and lease "
                              "events, -vv debug)")
    p_serve.add_argument("-q", "--quiet", action="count", default=0,
                         help="less logging (errors only)")
    p_serve.add_argument("--trace", nargs="?", const="auto",
                         metavar="PATH",
                         help="record a span trace to PATH (default: "
                              "<root>/trace.jsonl)")
    p_serve.set_defaults(fn=_cmd_serve)

    p_worker = sub.add_parser(
        "worker", help="lease-driven campaign worker")
    p_worker.add_argument("--connect", required=True, metavar="URL",
                          help="base URL of a running `repro serve`")
    p_worker.add_argument("--worker-id",
                          help="stable worker identity (default: "
                               "host-pid-random)")
    p_worker.add_argument("--poll", type=float, default=0.5,
                          help="idle seconds between lease polls")
    p_worker.add_argument("--exit-on-idle", action="store_true",
                          help="exit once the server reports every "
                               "campaign complete")
    p_worker.add_argument("--max-tasks", type=int, default=None,
                          help="stop after this many task executions")
    p_worker.add_argument("-v", "--verbose", action="count", default=0,
                          help="more logging (-v lease/task events, "
                               "-vv debug)")
    p_worker.add_argument("-q", "--quiet", action="count", default=0,
                          help="less logging (errors only)")
    p_worker.add_argument("--trace", nargs="?", const="auto",
                          metavar="PATH",
                          help="record a span trace to PATH (default: "
                               "trace-<worker-id>.jsonl)")
    p_worker.set_defaults(fn=_cmd_worker)

    p_submit = sub.add_parser(
        "submit", help="submit a campaign spec to a running service")
    p_submit.add_argument("spec", help="CampaignSpec JSON file")
    p_submit.add_argument("--connect", required=True, metavar="URL",
                          help="base URL of a running `repro serve`")
    p_submit.add_argument("--watch", action="store_true",
                          help="poll status until the campaign completes, "
                               "then print its report")
    p_submit.add_argument("--poll", type=float, default=1.0,
                          help="seconds between --watch status polls")
    p_submit.set_defaults(fn=_cmd_submit)

    p_status = sub.add_parser(
        "status", help="campaign progress (local store or live service)")
    p_status.add_argument("store", nargs="?",
                          help="campaign store directory (omit with "
                               "--connect)")
    p_status.add_argument("--connect", metavar="URL",
                          help="query a running `repro serve` instead "
                               "of a local store")
    p_status.add_argument("--campaign", metavar="ID",
                          help="campaign id on the server (optional "
                               "when only one is registered)")
    p_status.add_argument("--watch", action="store_true",
                          help="with --connect: follow progress until "
                               "the campaign completes")
    p_status.add_argument("--interval", type=float, default=1.0,
                          help="seconds between --watch polls "
                               "(poll mode only)")
    p_status.add_argument("--no-stream", action="store_true",
                          help="with --watch: poll with repeated GETs "
                               "instead of the NDJSON stream")
    p_status.set_defaults(fn=_cmd_status)

    p_trace = sub.add_parser(
        "trace", help="inspect span traces recorded with --trace")
    trace_sub = p_trace.add_subparsers(dest="trace_command",
                                       required=True)
    p_tsum = trace_sub.add_parser(
        "summary", help="hierarchical time breakdown of a trace.jsonl")
    p_tsum.add_argument("trace", nargs="?",
                        help="trace.jsonl file (omit with --connect)")
    p_tsum.add_argument("--connect", metavar="URL",
                        help="fetch the merged fleet trace from a "
                             "running `repro serve` instead of a file")
    p_tsum.add_argument("--campaign", metavar="ID",
                        help="campaign id for --connect")
    p_tsum.add_argument("--json", action="store_true",
                        help="machine-readable summary instead of tables")
    p_tsum.add_argument("--depth", type=int, default=6,
                        help="max span-tree depth shown")
    p_tsum.set_defaults(fn=_cmd_trace_summary)

    p_texp = trace_sub.add_parser(
        "export",
        help="convert a trace.jsonl to Chrome trace-event JSON "
             "(Perfetto / chrome://tracing)")
    p_texp.add_argument("trace", help="trace.jsonl file (local run or "
                                      "merged fleet trace)")
    p_texp.add_argument("--perfetto", action="store_true",
                        help="Chrome trace-event format (the default "
                             "and only format; flag kept for "
                             "readability in scripts)")
    p_texp.add_argument("-o", "--output", metavar="PATH",
                        help="output path (default: "
                             "<trace>.perfetto.json)")
    p_texp.set_defaults(fn=_cmd_trace_export)

    p_benchtool = sub.add_parser(
        "bench", help="micro-benchmark tooling (perf-regression gate)")
    bench_sub = p_benchtool.add_subparsers(dest="bench_command",
                                           required=True)
    p_bcmp = bench_sub.add_parser(
        "compare",
        help="diff a BENCH JSON against a committed baseline; exits "
             "nonzero on regression")
    p_bcmp.add_argument("run", help="fresh BENCH JSON (a benchmarks/ "
                                    "run's CLAPTON_BENCH_JSON output)")
    p_bcmp.add_argument("--baseline", required=True, metavar="JSON",
                        help="committed baseline (e.g. benchmarks/"
                             "bench_results/baseline.json)")
    p_bcmp.add_argument("--tolerance", default="15%",
                        help="allowed worsening per metric before the "
                             "gate fails ('15%%' or '0.15'; "
                             "default 15%%)")
    p_bcmp.add_argument("--regressions-only", action="store_true",
                        help="omit in-tolerance rows from the table")
    p_bcmp.set_defaults(fn=_cmd_bench_compare)

    p_metrics = sub.add_parser(
        "metrics", help="scrape /metrics from a running `repro serve`")
    p_metrics.add_argument("--connect", required=True, metavar="URL",
                           help="base URL of a running `repro serve`")
    p_metrics.add_argument("--name", metavar="SUBSTR",
                           help="only lines containing this substring")
    p_metrics.set_defaults(fn=_cmd_metrics)

    p_report = sub.add_parser(
        "report", help="markdown figure tables from a campaign store")
    p_report.add_argument("store", help="campaign store directory")
    p_report.add_argument("--tier", default="device_model",
                          choices=["noiseless", "clifford_model",
                                   "device_model", "hardware"],
                          help="noise tier for the eta tables")
    p_report.add_argument("--csv", help="also write row-level CSV here")
    p_report.add_argument("--improver", default=None,
                          help="method the eta tables credit improvements "
                               "to (default: clapton); must be one of the "
                               "campaign's methods")
    p_report.add_argument("--strategy", default=None,
                          help="only rows with this search strategy "
                               "(errors list the campaign's strategies)")
    p_report.add_argument("--mitigation", default=None,
                          help="only rows with this mitigation spec "
                               "(errors list the campaign's mitigations)")
    p_report.set_defaults(fn=_cmd_report)

    p_mol = sub.add_parser("molecule", help="build a molecular Hamiltonian")
    p_mol.add_argument("name", choices=["H2O", "H6", "LiH"])
    p_mol.add_argument("bond_length", type=float)
    p_mol.add_argument("--save", help="write the Hamiltonian to a JSON file")
    p_mol.set_defaults(fn=_cmd_molecule)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    raise SystemExit(main())
