"""Subcommand implementations for ``repro-numa``.

Each command imports the layers it drives, so a call pays only for its
own: ``hardware`` never loads the benchmarks, experiments or service.
"""

from __future__ import annotations

import argparse

from repro.errors import ReproError

__all__ = [
    "cmd_hardware",
    "cmd_stream",
    "cmd_fio",
    "cmd_iomodel",
    "cmd_predict",
    "cmd_advise",
    "cmd_experiment",
    "cmd_stats",
    "cmd_numastat",
    "cmd_chaos",
    "cmd_serve",
    "cmd_obs_report",
    "cmd_recover",
]

def _machine(args: argparse.Namespace):
    from repro.topology import builders

    return {
        "reference": builders.reference_host,
        "magny-cours-a": lambda: builders.magny_cours_4p("a"),
        "magny-cours-b": lambda: builders.magny_cours_4p("b"),
        "magny-cours-c": lambda: builders.magny_cours_4p("c"),
        "magny-cours-d": lambda: builders.magny_cours_4p("d"),
        "intel-4s4n": builders.intel_4s4n,
        "amd-4s8n": builders.amd_4s8n,
        "amd-8s8n": builders.amd_8s8n,
        "hp-blade-32n": builders.hp_blade_32n,
    }[args.machine]()


def _registry(args: argparse.Namespace):
    from repro.rng import RngRegistry

    return RngRegistry(args.seed) if args.seed is not None else RngRegistry()


def _open_journal(run_dir, meta: dict, total_units: int):
    """Create-or-resume the run journal, with resume notes on stderr.

    Notes go to stderr on purpose: a resumed run's *stdout* must stay
    byte-identical to an uninterrupted run's.
    """
    import sys

    from repro.journal import RunJournal

    journal = RunJournal(run_dir, meta)
    if journal.truncated_tail:
        print(
            f"journal: truncated a torn tail record in {journal.path}",
            file=sys.stderr,
        )
    if journal.resumed_units:
        print(
            f"journal: {journal.resumed_units}/{total_units} unit(s) already "
            f"completed, re-running the rest",
            file=sys.stderr,
        )
    return journal


def cmd_hardware(args: argparse.Namespace) -> int:
    """``repro-numa hardware``."""
    from repro.osmodel.numactl import Numactl
    from repro.topology.hwloc import render_links, render_machine

    machine = _machine(args)
    print(render_machine(machine))
    print()
    print(Numactl(machine).hardware())
    if args.links:
        print()
        print(render_links(machine))
    if getattr(args, "audit", False):
        from repro.topology.audit import render_port_budget

        print()
        print(render_port_budget(machine))
    return 0


def cmd_stream(args: argparse.Namespace) -> int:
    """``repro-numa stream``."""
    from repro.bench.stream import StreamBenchmark

    machine = _machine(args)
    bench = StreamBenchmark(
        machine, registry=_registry(args), runs=args.runs, kernel=args.kernel
    )
    if args.cpu is None:
        print(bench.matrix().render())
        return 0
    if args.mem is None:
        raise ReproError("--mem is required with --cpu")
    measurement = bench.measure(args.cpu, args.mem)
    print(
        f"STREAM {args.kernel} CPU{args.cpu}->MEM{args.mem}: "
        f"{measurement.gbps:.2f} Gbps (max of {measurement.runs} runs, "
        f"spread {measurement.spread:.2f})"
    )
    return 0


def cmd_fio(args: argparse.Namespace) -> int:
    """``repro-numa fio``."""
    from repro.bench.fio import FioRunner
    from repro.bench.jobfile import FioJob, parse_jobfile

    machine = _machine(args)
    runner = FioRunner(machine, registry=_registry(args))
    if args.jobfile:
        with open(args.jobfile, "r", encoding="utf-8") as handle:
            jobs = parse_jobfile(handle.read())
    else:
        if not args.engine or not args.rw:
            raise ReproError("either --jobfile or both --engine and --rw are required")
        jobs = [
            FioJob(
                name=f"cli-{args.engine}-{args.rw}",
                engine=args.engine,
                rw=args.rw,
                numjobs=args.numjobs,
                cpunodebind=args.node,
                target_node=args.target,
            )
        ]
    for result in runner.run_jobs(jobs):
        print(result.render())
    return 0


def _iomodel_targets(args: argparse.Namespace, machine) -> list[int]:
    """The target list for ``iomodel``: ``--targets`` wins, ``all`` sweeps
    every node, otherwise the single ``--target``.

    An empty list, or a node listed twice, raises :class:`ReproError`:
    the sweep's results are keyed by node, so a repeat cannot be merged.
    """
    spec = getattr(args, "targets", None)
    if spec is None:
        return [args.target]
    if spec.strip().lower() == "all":
        return list(machine.node_ids)
    try:
        targets = [int(tok) for tok in spec.split(",") if tok.strip()]
    except ValueError as exc:
        raise ReproError(f"cannot parse --targets {spec!r}") from exc
    if not targets:
        raise ReproError(f"--targets {spec!r} names no node")
    for index, target in enumerate(targets):
        if target in targets[:index]:
            raise ReproError(f"--targets {spec!r} lists node {target} twice")
    return targets


def cmd_iomodel(args: argparse.Namespace) -> int:
    """``repro-numa iomodel`` (the paper's numademo extension).

    ``--targets a,b,c`` (or ``all``) sweeps several targets in one
    batched run; ``--jobs N`` shards that sweep over the worker fabric.
    Output is byte-identical for any jobs value — the fabric's
    determinism contract — so the sharded path needs no separate golden
    files.  A target listed twice is an error on every path.

    ``--resume RUN_DIR`` journals the sweep (one record per target):
    interrupted anywhere and re-run, stdout is byte-identical to an
    uninterrupted run and completed targets are never recomputed.
    """
    from repro.analysis.report import render_node_sweep
    from repro.core.characterize import HostCharacterizer
    from repro.core.iomodel import IOModelBuilder

    machine = _machine(args)
    registry = _registry(args)
    targets = _iomodel_targets(args, machine)
    jobs = getattr(args, "jobs", None)
    if jobs is not None and jobs < 1:
        raise ReproError(f"--jobs must be >= 1, got {jobs}")
    resume = getattr(args, "resume", None)
    journal = None
    pool = None
    try:
        if resume:
            # Journaled runs always dispatch through the fabric with
            # per-target units, so resume granularity (and the journal's
            # identity) is independent of the jobs count.
            from repro.fabric import FabricPool

            journal = _open_journal(resume, {
                "command": "iomodel",
                "machine": args.machine,
                "seed": registry.seed,
                "targets": [int(t) for t in targets],
                "mode": args.mode,
                "runs": args.runs,
            }, len(targets))
            pool = FabricPool(jobs=min(jobs or 1, max(len(targets), 1)))
        elif jobs is not None and jobs > 1:
            from repro.fabric import FabricPool

            pool = FabricPool(jobs=min(jobs, max(len(targets), 1)))
        if args.mode == "both":
            if pool is not None:
                results = pool.characterize_many(
                    machine, targets, registry=registry, journal=journal,
                    runs=args.runs
                )
            else:
                characterizer = HostCharacterizer(
                    machine, registry=registry, runs=args.runs
                )
                results = characterizer.characterize_many(tuple(targets))
            for index, target in enumerate(targets):
                if index:
                    print()
                print(results[target].render())
        else:
            if pool is not None:
                models = pool.build_many(
                    machine, targets, args.mode, registry=registry,
                    journal=journal, runs=args.runs
                )
            else:
                builder = IOModelBuilder(machine, registry=registry, runs=args.runs)
                models = builder.build_many(tuple(targets), args.mode)
            for index, target in enumerate(targets):
                if index:
                    print()
                model = models[target]
                print(model.render())
                print()
                print(
                    render_node_sweep(
                        f"per-node memcpy {args.mode} bandwidth", model.values
                    )
                )
    finally:
        if pool is not None:
            pool.close()
        if journal is not None:
            journal.close()
    return 0


def cmd_predict(args: argparse.Namespace) -> int:
    """``repro-numa predict``."""
    from repro.bench.fio import FioRunner
    from repro.bench.jobfile import FioJob
    from repro.core.iomodel import IOModelBuilder
    from repro.core.predictor import MixturePredictor
    from repro.experiments.sweeps import operation_sweep

    machine = _machine(args)
    registry = _registry(args)
    try:
        stream_nodes = tuple(int(tok) for tok in args.streams.split(",") if tok.strip())
    except ValueError as exc:
        raise ReproError(f"cannot parse --streams {args.streams!r}") from exc
    direction = "read" if args.rw in ("read", "recv") else "write"
    model = IOModelBuilder(machine, registry=registry).build(args.target, direction)
    runner = FioRunner(machine, registry=registry)
    sweep = operation_sweep(runner, args.engine, args.rw, numjobs=4)
    predictor = MixturePredictor(model, sweep)
    predicted = predictor.predict_streams(stream_nodes)
    print(f"Eq. 1 prediction for streams {stream_nodes}: {predicted:.3f} Gbps")
    if args.measure:
        job = FioJob(
            name="cli-mixture",
            engine=args.engine,
            rw=args.rw,
            numjobs=len(stream_nodes),
            stream_nodes=stream_nodes,
        )
        measured = runner.run(job).aggregate_gbps
        print(predictor.validate(measured, stream_nodes).render())
    return 0


def cmd_advise(args: argparse.Namespace) -> int:
    """``repro-numa advise``."""
    from repro.bench.fio import FioRunner
    from repro.bench.jobfile import FioJob
    from repro.core.iomodel import IOModelBuilder
    from repro.core.scheduler_advisor import PlacementAdvisor
    from repro.experiments.sweeps import operation_sweep

    machine = _machine(args)
    registry = _registry(args)
    direction = "read" if args.rw in ("read", "recv") else "write"
    model = IOModelBuilder(machine, registry=registry).build(args.target, direction)
    runner = FioRunner(machine, registry=registry)
    sweep = operation_sweep(runner, args.engine, args.rw, numjobs=4)
    advisor = PlacementAdvisor(machine, model, sweep)
    plan = advisor.advise(args.tasks)
    print(plan.render())
    if args.compare:
        naive = advisor.naive_plan(args.tasks)
        for tag, p in (("spread", plan), ("all-local", naive)):
            job = FioJob(
                name=f"cli-advise-{tag}",
                engine=args.engine,
                rw=args.rw,
                numjobs=p.n_tasks,
                stream_nodes=tuple(p.stream_nodes()),
            )
            print(f"{tag}: {runner.run(job).aggregate_gbps:.2f} Gbps")
    return 0


def cmd_experiment(args: argparse.Namespace) -> int:
    """``repro-numa experiment``."""
    from repro.experiments import list_experiments, run_experiment

    if not args.id:
        for exp_id, title in list_experiments().items():
            print(f"{exp_id:5s} {title}")
        return 0
    if args.id == "all":
        return _run_all_experiments(args)
    result = run_experiment(args.id, quick=args.quick)
    print(result.render())
    if getattr(args, "json_path", None):
        from repro.journal import atomic_write_json

        atomic_write_json(
            args.json_path,
            {
                "exp_id": result.exp_id,
                "title": result.title,
                "passed": result.passed,
                "data": result.data,
                "checks": [
                    {"name": c.name, "ok": c.ok, "detail": c.detail}
                    for c in result.checks
                ],
            },
            indent=2,
            sort_keys=False,
            default=str,
        )
    return 0 if result.passed else 1


def _experiment_worker(task: tuple[str, bool]) -> tuple[str, bool, str, str, list[str], float]:
    """Run one experiment in a worker process; returns primitives only.

    ``ExperimentResult.data`` can hold arbitrary objects, so workers
    pre-render everything the parent prints or writes and ship strings
    back across the process boundary.
    """
    import os
    import time

    from repro.experiments import run_experiment

    exp_id, quick = task
    if os.environ.get("REPRO_CHAOS_KILL_EXPERIMENT") == exp_id:
        # Test hook: die exactly like a worker hit by the OOM killer,
        # so the merge path's crash handling can be exercised for real.
        import signal

        os.kill(os.getpid(), signal.SIGKILL)
    start = time.perf_counter()
    result = run_experiment(exp_id, quick=quick)
    wall_s = time.perf_counter() - start
    failed_lines = [c.render() for c in result.failed_checks()]
    return (exp_id, result.passed, result.title, result.render(), failed_lines, wall_s)


def _run_all_experiments(args: argparse.Namespace) -> int:
    """``repro-numa experiment all [--outdir DIR] [--jobs N]``.

    Without ``--jobs`` the experiments run sequentially with the
    historical output format.  With ``--jobs N`` they fan out over a
    multiprocessing pool; results are merged back in registry order
    (deterministic regardless of completion order) and the report gains
    a per-experiment wall-time column.

    With ``--resume RUN_DIR`` every experiment is one journal unit and
    the report uses the wall-time-free serial format, so an interrupted
    and resumed run prints byte-identical output to an uninterrupted
    one (and to the serial path) while re-running only the experiments
    the crash lost.
    """
    import pathlib

    from repro.experiments import EXPERIMENTS, run_experiment

    outdir = pathlib.Path(args.outdir) if args.outdir else None
    if outdir is not None:
        outdir.mkdir(parents=True, exist_ok=True)
    jobs = getattr(args, "jobs", None)
    if jobs is not None and jobs < 1:
        raise ReproError(f"--jobs must be >= 1, got {jobs}")
    resume = getattr(args, "resume", None)
    failed = []
    if resume:
        from repro.fabric import FabricPool
        from repro.journal import atomic_write_text

        journal = _open_journal(resume, {
            "command": "experiment",
            "id": "all",
            "quick": bool(args.quick),
        }, len(EXPERIMENTS))
        try:
            with FabricPool(jobs=min(jobs or 1, len(EXPERIMENTS))) as pool:
                outcomes = pool.run_experiments(
                    list(EXPERIMENTS), quick=args.quick, journal=journal
                )
        finally:
            journal.close()
        for exp_id, passed, title, rendered, failed_lines, _wall_s in outcomes:
            status = "CRASH" if passed is None else "PASS" if passed else "FAIL"
            print(f"{exp_id:5s} {status}  {title}")
            if not passed:
                failed.append(exp_id)
                for line in failed_lines:
                    print(f"      {line}")
            if outdir is not None:
                atomic_write_text(outdir / f"{exp_id}.txt", rendered + "\n")
    elif jobs is None:
        for exp_id in EXPERIMENTS:
            result = run_experiment(exp_id, quick=args.quick)
            status = "PASS" if result.passed else "FAIL"
            print(f"{exp_id:5s} {status}  {result.title}")
            if not result.passed:
                failed.append(exp_id)
                for check in result.failed_checks():
                    print(f"      {check.render()}")
            if outdir is not None:
                from repro.journal import atomic_write_text

                atomic_write_text(outdir / f"{exp_id}.txt", result.render() + "\n")
    else:
        import time

        tasks = [(exp_id, args.quick) for exp_id in EXPERIMENTS]
        start = time.perf_counter()
        if jobs == 1:
            outcomes = [_experiment_worker(t) for t in tasks]
        else:
            # The worker fabric: a persistent pool whose workers die
            # loudly (a SIGKILLed worker degrades to a structured
            # "crashed" row and a nonzero exit — never a stuck merge)
            # and whose telemetry grafts back into the parent recorder,
            # so --obs-dir keeps worker spans.
            from repro.fabric import FabricPool

            with FabricPool(jobs=min(jobs, len(tasks))) as pool:
                outcomes = pool.run_experiments(
                    [t[0] for t in tasks], quick=args.quick
                )
        total_s = time.perf_counter() - start
        for exp_id, passed, title, rendered, failed_lines, wall_s in outcomes:
            status = "CRASH" if passed is None else "PASS" if passed else "FAIL"
            print(f"{exp_id:5s} {status}  {wall_s:6.2f} s  {title}")
            if not passed:
                failed.append(exp_id)
                for line in failed_lines:
                    print(f"      {line}")
            if outdir is not None:
                from repro.journal import atomic_write_text

                atomic_write_text(outdir / f"{exp_id}.txt", rendered + "\n")
        busy_s = sum(o[5] for o in outcomes)
        print(
            f"{len(outcomes)} experiments in {total_s:.2f} s wall "
            f"({busy_s:.2f} s of experiment time, {jobs} jobs)"
        )
    if outdir is not None:
        print(f"artifacts written to {outdir}/")
    if failed:
        print(f"failed: {', '.join(failed)}")
        return 1
    return 0


def cmd_plan(args: argparse.Namespace) -> int:
    """``repro-numa plan``: rank device attachment points."""
    from repro.analysis.planner import DeviceAttachmentPlanner

    planner = DeviceAttachmentPlanner(_machine(args), write_weight=args.write_weight)
    print(planner.render())
    best = planner.best()
    print(f"recommendation: attach at node {best.node}")
    return 0


def _serve_machine(args: argparse.Namespace):
    """The machine ``serve`` operates on: ``--machine-file`` wins."""
    if getattr(args, "machine_file", None):
        from repro.topology.serialize import machine_from_json_file

        return machine_from_json_file(args.machine_file)
    return _machine(args)


def _warm_targets(machine, spec: "str | None") -> "tuple[int, ...] | None":
    """Parse ``--warm``: ``None`` (device nodes), ``'all'``, or id list."""
    if spec is None:
        return None
    text = spec.strip().lower()
    if text == "all":
        return tuple(machine.node_ids)
    try:
        targets = tuple(
            int(part) for part in text.split(",") if part.strip()
        )
    except ValueError:
        raise ReproError(
            f"--warm must be 'all' or comma-separated node ids, got {spec!r}"
        ) from None
    if not targets:
        raise ReproError(
            f"--warm must name at least one node, got {spec!r}"
        )
    unknown = [t for t in targets if t not in machine.node_ids]
    if unknown:
        raise ReproError(
            f"--warm names nodes {unknown} not on {machine.name!r} "
            f"(nodes {list(machine.node_ids)})"
        )
    return targets


def cmd_serve(args: argparse.Namespace) -> int:
    """``repro-numa serve``: the placement-advisory JSON-RPC service.

    Three modes: ``--soak`` runs the deterministic chaos soak and exits
    nonzero unless every request was answered exactly once (and, with
    the fault window on, the breaker recovered); ``--stdio`` answers
    line requests serially on stdin/stdout (on a logical clock, so the
    response stream — tier and staleness tags included — is a pure
    function of the request stream); the default binds the asyncio TCP
    transport, warms tiers 1–2 in the background (``ready`` stays false
    until warmup completes), and serves until interrupted.
    """
    import asyncio
    import sys

    from repro.rng import DEFAULT_SEED
    from repro.service import (
        AdvisoryBackend,
        AsyncPlacementServer,
        CircuitBreaker,
        PlacementService,
        ServiceConfig,
        run_soak,
        serve_stdio,
    )
    from repro.service.soak import LogicalClock

    if args.soak and getattr(args, "converge", False):
        import json

        from repro.service.soak import run_convergence_soak

        report = run_convergence_soak(
            machine=_serve_machine(args),
            requests=args.requests,
            seed=args.seed if args.seed is not None else DEFAULT_SEED,
            runs=min(args.runs, 10),
        )
        if args.json:
            print(json.dumps(report.to_dict(), indent=2))
        else:
            print(report.render())
        total = report.answered == report.requests
        return 0 if total and report.converged else 1

    if args.soak:
        import json

        report = run_soak(
            machine=_serve_machine(args),
            requests=args.requests,
            seed=args.seed if args.seed is not None else DEFAULT_SEED,
            runs=min(args.runs, 10),  # soak favours wall-time over noise
            fault=args.fault,
            failure_threshold=min(args.failure_threshold, 2),
        )
        if args.json:
            print(json.dumps(report.to_dict(), indent=2))
        else:
            print(report.render())
        total = report.answered == report.requests
        healthy_end = report.recovered if args.fault else not report.tripped
        return 0 if total and healthy_end else 1

    machine = _serve_machine(args)
    warm = _warm_targets(machine, getattr(args, "warm", None))
    backend = AdvisoryBackend(
        machine,
        registry=_registry(args),
        runs=args.runs,
        tier_max_staleness_s=getattr(args, "tier_max_staleness", None),
    )

    if args.stdio:
        # A logical clock ticking once per answered line keeps the
        # response stream (staleness tags included) byte-stable.
        service = PlacementService(
            backend,
            breaker=CircuitBreaker(failure_threshold=args.failure_threshold),
            clock=LogicalClock(),
        )
        backend.warm(warm)
        serve_stdio(service)
        return 0

    service = PlacementService(
        backend,
        breaker=CircuitBreaker(failure_threshold=args.failure_threshold),
    )
    # Black-box evidence on the two paths that need it most: a
    # breaker trip streams the flight recorder to stderr, and an
    # unexpected transport crash dumps it on the way down.
    service.flight_dump_sink = _print_flight_dump
    config = ServiceConfig(
        host=args.host,
        port=args.port,
        queue_limit=args.queue_limit,
        workers=args.workers,
        failure_threshold=args.failure_threshold,
    )

    async def _run() -> None:
        server = AsyncPlacementServer(service, config)
        # Warm off-loop so the listener binds immediately; 'ready'
        # answers false until the warmup thread completes.
        warm_task = asyncio.create_task(asyncio.to_thread(backend.warm, warm))

        def _warm_done(task: "asyncio.Task") -> None:
            if task.cancelled():
                return
            exc = task.exception()
            if exc is not None:
                print(
                    f"warmup failed: {type(exc).__name__}: {exc}",
                    file=sys.stderr, flush=True,
                )

        warm_task.add_done_callback(_warm_done)
        await server.start()
        print(
            f"serving {machine.name} on {config.host}:{server.port} "
            f"(queue {config.queue_limit}, workers {config.workers})",
            flush=True,
        )
        try:
            await server.serve_forever()
        finally:
            if not warm_task.done():
                warm_task.cancel()
            await server.drain()

    try:
        asyncio.run(_run())
    except KeyboardInterrupt:
        pass
    except Exception:
        service._drain_obs()  # the dump must show the final lines
        _print_flight_dump(service.live.flight.dump())
        raise
    return 0


def _print_flight_dump(dump: dict) -> None:
    """Stream a flight-recorder dump to stderr as one JSON document."""
    import json
    import sys

    print("--- flight recorder dump ---", file=sys.stderr, flush=True)
    print(json.dumps(dump, sort_keys=True), file=sys.stderr, flush=True)


def cmd_numademo(args: argparse.Namespace) -> int:
    """``repro-numa numademo``: seven modules x three policies."""
    from repro.bench.numademo import Numademo

    machine = _machine(args)
    demo = Numademo(machine, registry=_registry(args))
    print(demo.render(args.node))
    return 0


def cmd_online(args: argparse.Namespace) -> int:
    """``repro-numa online``: compare online placement policies."""
    from repro.core.iomodel import IOModelBuilder
    from repro.core.migration import OnlineSimulator, OnlineWorkload
    from repro.core.traces import load_trace, save_trace

    machine = _machine(args)
    registry = _registry(args)
    model = IOModelBuilder(machine, registry=registry).build(args.target, "write")
    if getattr(args, "trace", None):
        jobs = load_trace(args.trace)
        print(f"replaying {len(jobs)} streams from {args.trace}")
    else:
        workload = OnlineWorkload(registry.child("cli"), rate_per_s=args.rate)
        jobs = workload.generate(args.streams, label="cli")
    if getattr(args, "save_trace", None):
        save_trace(jobs, args.save_trace)
        print(f"workload saved to {args.save_trace}")
    simulator = OnlineSimulator(machine, model, registry=registry.child("sim"))
    for outcome in simulator.compare(jobs).values():
        print(outcome.render())
    return 0


def cmd_export(args: argparse.Namespace) -> int:
    """``repro-numa export``: machine description as JSON on stdout."""
    import json

    from repro.topology.serialize import machine_to_dict

    print(json.dumps(machine_to_dict(_machine(args)), indent=2))
    return 0


def cmd_concurrent(args: argparse.Namespace) -> int:
    """``repro-numa concurrent``: a job file's jobs, all at once."""
    from repro.bench.concurrent import ConcurrentRunner
    from repro.bench.jobfile import parse_jobfile

    machine = _machine(args)
    with open(args.jobfile, "r", encoding="utf-8") as handle:
        jobs = parse_jobfile(handle.read())
    result = ConcurrentRunner(machine, _registry(args)).run(jobs)
    print(result.render())
    print(f"total: {result.total_gbps:.2f} Gbps")
    return 0


def cmd_stats(args: argparse.Namespace) -> int:
    """``repro-numa stats``: solver-session instrumentation for a workload.

    Runs one representative workload through a fresh solver session and
    prints what the session actually did — max-min solves, allocation
    cache hit rate, simulation events, capacity builds, per-phase wall
    time.  The numbers a contributor watches when touching the solver.
    """
    from repro.bench.fio import FioRunner
    from repro.bench.jobfile import FioJob
    from repro.bench.stream import StreamBenchmark
    from repro.core.iomodel import IOModelBuilder
    from repro.solver import get_session, reset_sessions

    reset_sessions()
    machine = _machine(args)
    registry = _registry(args)
    if args.workload == "iomodel":
        builder = IOModelBuilder(machine, registry=registry, runs=args.runs)
        builder.build_both(args.target)
    elif args.workload == "stream":
        StreamBenchmark(machine, registry=registry, runs=args.runs).matrix()
    else:  # fio
        runner = FioRunner(machine, registry=registry)
        runner.run(
            FioJob(
                name="stats-memcpy",
                engine="memcpy",
                rw="write",
                numjobs=4,
                cpunodebind=machine.node_ids[0],
                target_node=args.target,
            )
        )
    session = get_session(machine)
    print(f"workload: {args.workload} on {machine.name}")
    print(session.stats.render())
    return 0


def cmd_chaos(args: argparse.Namespace) -> int:
    """``repro-numa chaos``: seeded fault scenarios + resilience report.

    The machine-level scenarios run on ``--machine``; the
    ``flapping-uplink`` scenario always builds its own small cluster of
    reference hosts.  Same seed, same report — bit for bit.  With
    ``--resume RUN_DIR`` each scenario is one journal unit: a run
    interrupted mid-soak resumes with completed scenarios replayed from
    the journal and the same bit-for-bit report.
    """
    from repro.faults.chaos import SCENARIOS, run_chaos
    from repro.retrying import RetryPolicy

    machine = _machine(args)
    registry = _registry(args)
    names = tuple(SCENARIOS) if args.scenario == "all" else (args.scenario,)
    budget = getattr(args, "retry_budget", 4)
    base = getattr(args, "retry_base", 0.25)
    if budget < 0:
        raise ReproError(f"--retry-budget must be >= 0, got {budget}")
    if base <= 0:
        raise ReproError(f"--retry-base must be > 0, got {base}")
    retry = RetryPolicy(max_retries=budget, base_delay_s=base)
    resume = getattr(args, "resume", None)
    if resume:
        from repro.journal import journaled_chaos

        journal = _open_journal(resume, {
            "command": "chaos",
            "machine": args.machine,
            "seed": registry.seed,
            "scenarios": list(names),
            "quick": bool(args.quick),
            "retry_budget": budget,
            "retry_base": base,
        }, len(names))
        try:
            report = journaled_chaos(
                machine, registry, names, args.quick, journal, retry=retry
            )
        finally:
            journal.close()
    else:
        report = run_chaos(
            machine=machine, registry=registry, scenarios=names,
            quick=args.quick, retry=retry,
        )
    if args.json:
        import json

        print(json.dumps(report.to_dict(), indent=2))
    else:
        print(report.render())
    return 0


def cmd_recover(args: argparse.Namespace) -> int:
    """``repro-numa recover``: the seeded crash-recovery soak.

    For each selected workload the soak runs a golden journaled run,
    then ``--trials`` crash trials: SIGKILL the run at a seeded journal
    record (half of them mid-write, leaving a torn tail), resume it,
    and gate two invariants —

    * resumed stdout is byte-identical to the golden run's,
    * the ``--obs-dir`` manifests are deterministic twins,

    both without any manual journal cleanup.  Each crash run starts in a
    session of its own; once it has exited, its process group is
    SIGKILLed, and a member still alive 10 s later fails the trial.
    Exit 0 only when every trial holds every invariant.
    """
    import os
    import pathlib
    import shutil
    import subprocess
    import sys
    import tempfile

    from repro.experiments import EXPERIMENTS
    from repro.faults.execution import reap_process_group
    from repro.journal import CRASH_ENV, JOURNAL_FILENAME, scan_journal
    from repro.obs import diff_manifests, load_manifest

    if args.trials < 1:
        raise ReproError(f"--trials must be >= 1, got {args.trials}")
    if args.jobs < 1:
        raise ReproError(f"--jobs must be >= 1, got {args.jobs}")
    machine = _machine(args)
    registry = _registry(args)
    points = registry.stream("recover/points")
    base = [sys.executable, "-m", "repro.cli.main", "--machine", args.machine]
    if args.seed is not None:
        base += ["--seed", str(args.seed)]
    workloads = []
    if args.workload in ("iomodel", "both"):
        workloads.append((
            "iomodel",
            ["iomodel", "--targets", "all", "--mode", "both",
             "--runs", str(args.runs), "--jobs", str(args.jobs)],
            len(machine.node_ids),
        ))
    if args.workload in ("experiment", "both"):
        workloads.append((
            "experiment",
            ["experiment", "all", "--quick", "--jobs", str(args.jobs)],
            len(EXPERIMENTS),
        ))
    root = pathlib.Path(tempfile.mkdtemp(prefix="repro_recover_"))
    failures: list[str] = []
    trials = 0
    # Never let an ambient crash point leak into the golden/resume runs.
    clean_env = {k: v for k, v in os.environ.items() if k != CRASH_ENV}
    try:
        for name, argv, units in workloads:
            golden_dir = root / f"{name}_golden"
            golden_obs = root / f"{name}_golden_obs"
            golden = subprocess.run(
                base + argv + ["--resume", str(golden_dir),
                               "--obs-dir", str(golden_obs)],
                capture_output=True, env=clean_env,
            )
            if golden.returncode != 0:
                failures.append(
                    f"{name}: golden journaled run exited {golden.returncode}"
                )
                continue
            print(f"{name}: golden journaled run ok ({units} units)")
            for trial in range(args.trials):
                trials += 1
                # Seeded kill point: any data record but the last, so
                # the resume always has work left to prove itself on.
                point = int(points.integers(1, max(units, 2)))
                torn = bool(points.integers(0, 2))
                run_dir = root / f"{name}_trial{trial}"
                obs_dir = root / f"{name}_trial{trial}_obs"
                trial_argv = base + argv + ["--resume", str(run_dir),
                                            "--obs-dir", str(obs_dir)]
                env = dict(clean_env)
                env[CRASH_ENV] = f"{point}:torn" if torn else str(point)
                # The SIGKILLed run's pool workers and resource tracker
                # outlive it in its process group: a session of its own
                # keeps that group apart from ours so it can be reaped
                # whole, and DEVNULL keeps them off our pipes.
                with subprocess.Popen(
                    trial_argv, env=env,
                    stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                    start_new_session=True,
                ) as crash:
                    try:
                        crash.wait()
                    finally:
                        survivors = reap_process_group(crash.pid)
                tag = (
                    f"{name} trial {trial} (crash after record {point}"
                    f"{', torn' if torn else ''})"
                )
                if survivors:
                    failures.append(
                        f"{tag}: crash run left live process(es) "
                        f"{survivors} after SIGKILL of its group"
                    )
                    continue
                if crash.returncode == 0:
                    failures.append(
                        f"{tag}: crash run exited 0 — injection never fired"
                    )
                    continue
                _, _, tail_torn = scan_journal(run_dir / JOURNAL_FILENAME)
                if torn and not tail_torn:
                    failures.append(
                        f"{tag}: expected a torn journal tail, found none"
                    )
                resumed = subprocess.run(
                    trial_argv, capture_output=True, env=clean_env
                )
                if resumed.returncode != 0:
                    failures.append(f"{tag}: resume exited {resumed.returncode}")
                    continue
                if resumed.stdout != golden.stdout:
                    failures.append(
                        f"{tag}: resumed stdout differs from the golden run"
                    )
                    continue
                manifest_a = load_manifest(golden_obs / "manifest.json")
                manifest_b = load_manifest(obs_dir / "manifest.json")
                diff = diff_manifests(manifest_a, manifest_b)
                # Cache-effect counters (solver hit/miss splits) follow
                # the task -> worker-process assignment, which a resume
                # legitimately changes; the determinism evidence is the
                # identity, the config, and the RNG draw ledger.
                ledger_a = manifest_a["seed"]["streams"]
                ledger_b = manifest_b["seed"]["streams"]
                if diff["identity"] or diff["config"] or ledger_a != ledger_b:
                    failures.append(
                        f"{tag}: resumed manifest is not a deterministic twin "
                        f"(identity {diff['identity']}, "
                        f"config {diff['config']}, "
                        f"ledger match {ledger_a == ledger_b})"
                    )
                    continue
                print(
                    f"{tag}: resumed byte-identical, manifests are "
                    f"deterministic twins"
                )
    finally:
        if args.keep:
            print(f"soak artifacts kept in {root}")
        else:
            shutil.rmtree(root, ignore_errors=True)
    if failures:
        for line in failures:
            print(f"FAIL: {line}")
        return 1
    print(
        f"recovery soak passed: {len(workloads)} workload(s), "
        f"{trials} crash trial(s)"
    )
    return 0


def cmd_obs_report(args: argparse.Namespace) -> int:
    """``repro-numa obs report DIR [DIR2]``: render or diff recordings."""
    from repro.obs import render_diff, render_report, report_json

    if len(args.dirs) > 2:
        raise ReproError(
            f"obs report takes one dir to summarize or two to diff, "
            f"got {len(args.dirs)}"
        )
    if args.json:
        import json

        other = args.dirs[1] if len(args.dirs) > 1 else None
        print(json.dumps(report_json(args.dirs[0], other), indent=2, sort_keys=True))
        return 0
    if len(args.dirs) > 1:
        print(render_diff(args.dirs[0], args.dirs[1]))
        tolerance = getattr(args, "phase_tolerance", None)
        if tolerance is not None:
            import pathlib

            from repro.obs import load_manifest, phase_regressions
            from repro.obs.report import render_phase_triage

            print()
            print(render_phase_triage(
                args.dirs[0], args.dirs[1], tolerance=tolerance
            ))
            if getattr(args, "gate_phases", False):
                shifts = phase_regressions(
                    load_manifest(pathlib.Path(args.dirs[0]) / "manifest.json"),
                    load_manifest(pathlib.Path(args.dirs[1]) / "manifest.json"),
                    tolerance=tolerance,
                )
                if shifts:
                    return 4
    else:
        print(render_report(args.dirs[0], top=args.top))
    return 0


def _metrics_call(host: str, port: int, flight: bool = False) -> dict:
    """Fetch one ``metrics`` result from a live server over TCP."""
    import json
    import socket

    from repro.service.protocol import encode_message

    request = encode_message({
        "jsonrpc": "2.0",
        "id": 1,
        "method": "metrics",
        "params": {"flight": flight} if flight else {},
    })
    try:
        with socket.create_connection((host, port), timeout=10.0) as sock:
            sock.sendall(request.encode("utf-8"))
            with sock.makefile("r", encoding="utf-8") as stream:
                line = stream.readline()
    except OSError as exc:
        raise ReproError(
            f"cannot reach a server on {host}:{port}: {exc}"
        ) from exc
    if not line:
        raise ReproError(f"server on {host}:{port} closed without answering")
    response = json.loads(line)
    if "error" in response:
        err = response["error"]
        raise ReproError(
            f"metrics call failed: {err.get('kind')}: {err.get('message')}"
        )
    return response["result"]


def cmd_obs_scrape(args: argparse.Namespace) -> int:
    """``repro-numa obs scrape``: Prometheus-style text exposition."""
    import json
    import sys

    from repro.obs.live import render_scrape

    if getattr(args, "from_json", None):
        if args.from_json == "-":
            payload = json.load(sys.stdin)
        else:
            with open(args.from_json, "r", encoding="utf-8") as handle:
                payload = json.load(handle)
    else:
        payload = _metrics_call(args.host, args.port)
    sys.stdout.write(render_scrape(payload))
    return 0


def _render_top(payload: dict) -> str:
    """One ``obs top`` frame: tier mix, percentiles, breaker, drift."""
    lines = [
        f"{payload['machine']}  up {payload['uptime_s']:.1f}s  "
        f"requests {payload['requests']}  "
        f"degraded {payload['degraded_served']}",
        f"  breaker : {payload['breaker']['state']} "
        f"(trips {payload['breaker']['trips']})",
    ]
    tiers = payload.get("tiers", {})
    total = sum(tiers.values()) or 1
    mix = ", ".join(
        f"tier {t} {tiers[t]} ({100.0 * tiers[t] / total:.0f}%)"
        for t in sorted(tiers)
    )
    lines.append(f"  tiers   : {mix or '(none answered yet)'}")
    hists = payload.get("histograms", {})
    shown = [
        name for name in sorted(hists)
        if name.startswith("service.latency.") or "/" not in name
    ]
    for name in shown:
        h = hists[name]
        lines.append(
            f"  {name:34s} n={h['count']:<7d} "
            f"p50={h['p50']:.6f}s p90={h['p90']:.6f}s p99={h['p99']:.6f}s"
        )
    drift = payload.get("drift")
    if drift is not None:
        lines.append(
            f"  drift   : {drift['events']} event(s), "
            f"{drift['watched']} watched, threshold {drift['threshold']}"
        )
    occ = payload.get("flight_recorder", {})
    if occ:
        lines.append(
            f"  flight  : {occ['spans']}/{occ['span_capacity']} spans, "
            f"{occ['events']}/{occ['event_capacity']} events"
        )
    return "\n".join(lines)


def cmd_obs_top(args: argparse.Namespace) -> int:
    """``repro-numa obs top``: poll a live server and render tier mix,
    latency percentiles, breaker and drift state."""
    import time as _time

    polls = 0
    while True:
        print(_render_top(_metrics_call(args.host, args.port)), flush=True)
        polls += 1
        if args.count and polls >= args.count:
            return 0
        print(flush=True)
        try:
            _time.sleep(max(args.interval, 0.0))
        except KeyboardInterrupt:  # pragma: no cover - interactive exit
            return 0


def cmd_obs_tail(args: argparse.Namespace) -> int:
    """``repro-numa obs tail``: dump a live server's flight recorder."""
    import json

    payload = _metrics_call(args.host, args.port, flight=True)
    dump = payload["flight"]
    if args.json:
        print(json.dumps(dump, indent=2, sort_keys=True))
        return 0
    occ = dump["occupancy"]
    print(
        f"flight recorder: {occ['spans']}/{occ['span_capacity']} spans "
        f"({occ['span_total']} total), "
        f"{occ['events']}/{occ['event_capacity']} events "
        f"({occ['event_total']} total)"
    )
    spans = dump["spans"][-max(args.spans, 0):]
    if spans:
        print("spans (oldest first):")
        for s in spans:
            print(
                f"  #{s['seq']:<6d} t={s['t']:<12.6f} {s['name']:12s} "
                f"tier={s['tag']}  wall={s['wall_s']:.6f}s"
            )
    events = dump["events"][-max(args.events, 0):]
    if events:
        print("events (oldest first):")
        for e in events:
            tags = json.dumps(e.get("tags"), sort_keys=True)
            print(f"  #{e['seq']:<6d} t={e['t']:<12.6f} {e['kind']:12s} {tags}")
    return 0


def cmd_numastat(args: argparse.Namespace) -> int:
    """``repro-numa numastat``: counters after a small demo workload."""
    from repro.memory.allocator import PageAllocator
    from repro.memory.policy import MemBinding
    from repro.units import MiB

    machine = _machine(args)
    allocator = PageAllocator(machine)
    # A little demo traffic: one local-preferred, one bound, one interleave.
    first = machine.node_ids[0]
    last = machine.node_ids[-1]
    allocator.allocate(64 * MiB, cpu_node=first)
    allocator.allocate(64 * MiB, cpu_node=first, binding=MemBinding.bind(last))
    allocator.allocate(
        64 * MiB, cpu_node=first, binding=MemBinding.interleave(*machine.node_ids)
    )
    print(allocator.stats.render())
    return 0
