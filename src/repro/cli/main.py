"""``repro-numa`` entry point and argument wiring."""

from __future__ import annotations

import argparse
import sys

from repro.cli import commands
from repro.errors import ReproError

__all__ = ["build_parser", "main"]

#: Machines selectable with ``--machine``.
MACHINE_CHOICES = (
    "reference",
    "magny-cours-a",
    "magny-cours-b",
    "magny-cours-c",
    "magny-cours-d",
    "intel-4s4n",
    "amd-4s8n",
    "amd-8s8n",
    "hp-blade-32n",
)


def _add_resume(parser: argparse.ArgumentParser, unit: str) -> None:
    """Attach the checkpoint/resume flag to one subcommand parser."""
    parser.add_argument(
        "--resume",
        default=None,
        metavar="RUN_DIR",
        help=f"journal the run into RUN_DIR (one record per {unit}); "
             "re-running after a crash skips completed units and prints "
             "byte-identical output to an uninterrupted run",
    )


def _add_obs_dir(parser: argparse.ArgumentParser) -> None:
    """Attach the telemetry opt-in flag to one subcommand parser."""
    parser.add_argument(
        "--obs-dir",
        default=None,
        metavar="DIR",
        help="record a span trace and run manifest into DIR "
             "(telemetry is off without this flag; computed output is "
             "byte-identical either way)",
    )


def build_parser() -> argparse.ArgumentParser:
    """Construct the CLI parser (exposed for tests and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro-numa",
        description=(
            "NUMA I/O bandwidth characterisation (ICPP 2013 reproduction): "
            "a simulated NUMA host, the paper's benchmarks, and its "
            "memcpy-based I/O performance-model methodology."
        ),
    )
    parser.add_argument(
        "--machine",
        default="reference",
        choices=MACHINE_CHOICES,
        help="host to operate on (default: the calibrated reference host)",
    )
    parser.add_argument(
        "--seed", type=int, default=None, help="override the experiment RNG seed"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("hardware", help="numactl --hardware plus the fabric links")
    p.add_argument("--links", action="store_true", help="include the directed link table")
    p.add_argument("--audit", action="store_true",
                   help="include the G34 HT port-budget audit")
    p.set_defaults(func=commands.cmd_hardware)

    p = sub.add_parser("stream", help="run the STREAM benchmark")
    p.add_argument("--cpu", type=int, help="CPU node (omit for the full matrix)")
    p.add_argument("--mem", type=int, help="memory node (with --cpu)")
    p.add_argument("--kernel", default="copy",
                   choices=("copy", "scale", "add", "triad"))
    p.add_argument("--runs", type=int, default=100)
    _add_obs_dir(p)
    p.set_defaults(func=commands.cmd_stream)

    p = sub.add_parser("fio", help="run fio jobs")
    p.add_argument("--jobfile", help="ini-format job file path")
    p.add_argument("--engine", choices=("tcp", "rdma", "libaio", "memcpy"))
    p.add_argument("--rw", help="direction (send/recv/write/read)")
    p.add_argument("--numjobs", type=int, default=4)
    p.add_argument("--node", type=int, help="cpunodebind")
    p.add_argument("--target", type=int, help="memcpy target node")
    _add_obs_dir(p)
    p.set_defaults(func=commands.cmd_fio)

    p = sub.add_parser("iomodel", help="Algorithm 1: memcpy I/O performance model")
    p.add_argument("--target", type=int, default=7, help="device-attached node")
    p.add_argument("--targets", metavar="A,B,... | all",
                   help="sweep several target nodes (overrides --target; "
                        "'all' sweeps every node)")
    p.add_argument("--mode", default="both", choices=("write", "read", "both"))
    p.add_argument("--runs", type=int, default=100)
    p.add_argument("--jobs", type=int, default=None, metavar="N",
                   help="shard the target sweep over N fabric worker "
                        "processes (output is byte-identical for any N)")
    _add_resume(p, "target node")
    _add_obs_dir(p)
    p.set_defaults(func=commands.cmd_iomodel)

    p = sub.add_parser("predict", help="Eq. 1 mixture prediction")
    p.add_argument("--target", type=int, default=7)
    p.add_argument("--engine", default="rdma", choices=("tcp", "rdma", "libaio"))
    p.add_argument("--rw", default="read")
    p.add_argument(
        "--streams",
        required=True,
        help="comma-separated source node per stream, e.g. 2,2,0,0",
    )
    p.add_argument("--measure", action="store_true",
                   help="also run the mixture and report the error")
    p.set_defaults(func=commands.cmd_predict)

    p = sub.add_parser("advise", help="class-aware placement advice")
    p.add_argument("--target", type=int, default=7)
    p.add_argument("--engine", default="rdma", choices=("tcp", "rdma", "libaio"))
    p.add_argument("--rw", default="write")
    p.add_argument("--tasks", type=int, default=16)
    p.add_argument("--compare", action="store_true",
                   help="measure the spread plan against all-local binding")
    p.set_defaults(func=commands.cmd_advise)

    p = sub.add_parser("experiment", help="regenerate a paper table/figure")
    p.add_argument("id", nargs="?",
                   help="experiment id, or 'all' (omit to list)")
    p.add_argument("--quick", action="store_true", help="reduced run counts")
    p.add_argument("--json", dest="json_path",
                   help="also write the structured result data to this file")
    p.add_argument("--outdir",
                   help="with 'all': write each artifact to <outdir>/<id>.txt")
    p.add_argument("--jobs", type=int, default=None, metavar="N",
                   help="with 'all': run experiments in N worker processes "
                        "(deterministic merge order, per-experiment wall time)")
    _add_resume(p, "experiment")
    _add_obs_dir(p)
    p.set_defaults(func=commands.cmd_experiment)

    p = sub.add_parser(
        "stats", help="solver-session instrumentation for a workload"
    )
    p.add_argument("--workload", default="iomodel",
                   choices=("iomodel", "stream", "fio"),
                   help="which workload to instrument")
    p.add_argument("--target", type=int, default=7, help="target node")
    p.add_argument("--runs", type=int, default=25)
    p.set_defaults(func=commands.cmd_stats)

    p = sub.add_parser("plan", help="rank nodes as device attachment points")
    p.add_argument("--write-weight", type=float, default=0.5,
                   help="fraction of expected traffic that is device-write")
    p.set_defaults(func=commands.cmd_plan)

    p = sub.add_parser("numastat", help="allocation counters after a demo workload")
    p.set_defaults(func=commands.cmd_numastat)

    p = sub.add_parser("numademo", help="the numademo module x policy grid")
    p.add_argument("--node", type=int, default=0, help="CPU node to run on")
    p.set_defaults(func=commands.cmd_numademo)

    p = sub.add_parser(
        "online", help="online placement/migration policy comparison"
    )
    p.add_argument("--target", type=int, default=7)
    p.add_argument("--streams", type=int, default=40)
    p.add_argument("--rate", type=float, default=0.1,
                   help="stream arrivals per second")
    p.add_argument("--trace", help="replay a workload trace instead of generating")
    p.add_argument("--save-trace", dest="save_trace",
                   help="save the generated workload to this trace file")
    p.set_defaults(func=commands.cmd_online)

    p = sub.add_parser(
        "chaos",
        help="seeded fault-injection scenarios with a resilience report",
    )
    p.add_argument(
        "--scenario",
        default="all",
        choices=("single-link-loss", "cascading-node-isolation",
                 "flapping-uplink", "all"),
        help="which scenario to run (default: all three)",
    )
    p.add_argument("--json", action="store_true",
                   help="emit the structured report as JSON")
    p.add_argument("--quick", action="store_true",
                   help="smaller transfers and fewer streams")
    p.add_argument("--retry-budget", dest="retry_budget", type=int,
                   default=4, metavar="N",
                   help="retries a blocked stream may spend before it "
                        "fails structurally (default: 4)")
    p.add_argument("--retry-base", dest="retry_base", type=float,
                   default=0.25, metavar="S",
                   help="base backoff delay in seconds, doubled per "
                        "retry with seeded jitter (default: 0.25)")
    _add_resume(p, "scenario")
    _add_obs_dir(p)
    p.set_defaults(func=commands.cmd_chaos)

    p = sub.add_parser(
        "recover",
        help="seeded crash-recovery soak: SIGKILL journaled runs, resume, "
             "gate bit-identity",
    )
    p.add_argument("--workload", default="both",
                   choices=("iomodel", "experiment", "both"),
                   help="which journaled workload(s) to crash and resume")
    p.add_argument("--trials", type=int, default=2, metavar="N",
                   help="crash trials per workload (seeded kill points)")
    p.add_argument("--jobs", type=int, default=2, metavar="N",
                   help="fabric workers inside each run under test")
    p.add_argument("--runs", type=int, default=10,
                   help="Algorithm 1 copies per probe in the iomodel workload")
    p.add_argument("--keep", action="store_true",
                   help="keep the soak's journals and obs dirs for inspection")
    p.set_defaults(func=commands.cmd_recover)

    p = sub.add_parser(
        "serve",
        help="placement-advisory JSON-RPC service (TCP, stdio, or chaos soak)",
    )
    p.add_argument("--stdio", action="store_true",
                   help="serve line requests serially on stdin/stdout")
    p.add_argument("--host", default="127.0.0.1", help="TCP bind address")
    p.add_argument("--port", type=int, default=8713,
                   help="TCP port (0 picks a free one)")
    p.add_argument("--machine-file", dest="machine_file", metavar="JSON",
                   help="serve a machine loaded from a JSON description "
                        "instead of --machine")
    p.add_argument("--runs", type=int, default=25,
                   help="Algorithm 1 copies per probe (latency/accuracy)")
    p.add_argument("--queue-limit", type=int, default=32,
                   help="bounded admission queue size (TCP backpressure)")
    p.add_argument("--workers", type=int, default=4,
                   help="concurrent solver workers (TCP transport)")
    p.add_argument("--failure-threshold", type=int, default=3,
                   help="consecutive solver failures that trip the breaker")
    p.add_argument("--tier-max-staleness", dest="tier_max_staleness",
                   type=float, default=None, metavar="S",
                   help="re-characterize when tier 1-2 cache entries are "
                        "older than S seconds (default: never stale)")
    p.add_argument("--warm", default=None, metavar="TARGETS",
                   help="pre-characterize at startup: 'all' or "
                        "comma-separated node ids (default: device nodes); "
                        "'ready' stays false until warmup completes")
    p.add_argument("--soak", action="store_true",
                   help="run the deterministic chaos soak instead of serving")
    p.add_argument("--converge", action="store_true",
                   help="with --soak: run the self-healing convergence "
                        "drill (derate window, drift, quarantine, repair) "
                        "instead of the breaker-tripping partition soak")
    p.add_argument("--requests", type=int, default=120,
                   help="scripted requests in the soak trace")
    p.add_argument("--no-fault", dest="fault", action="store_false",
                   help="soak without the fault window (healthy twin)")
    p.add_argument("--json", action="store_true",
                   help="emit the soak report as JSON")
    _add_obs_dir(p)
    p.set_defaults(func=commands.cmd_serve)

    p = sub.add_parser("export", help="dump the machine description as JSON")
    p.set_defaults(func=commands.cmd_export)

    p = sub.add_parser(
        "concurrent",
        help="run a job file's jobs simultaneously with traffic counters",
    )
    p.add_argument("jobfile", help="ini-format fio job file")
    _add_obs_dir(p)
    p.set_defaults(func=commands.cmd_concurrent)

    p = sub.add_parser(
        "obs", help="inspect telemetry recorded with --obs-dir"
    )
    obs_sub = p.add_subparsers(dest="obs_command", required=True)
    rp = obs_sub.add_parser(
        "report", help="summarize one recorded run, or diff two"
    )
    rp.add_argument(
        "dirs",
        nargs="+",
        metavar="DIR",
        help="one obs dir to summarize, or two to diff (A B)",
    )
    rp.add_argument(
        "--json", action="store_true", help="emit the structured form"
    )
    rp.add_argument(
        "--top", type=int, default=10, help="slowest spans to list (default 10)"
    )
    rp.add_argument(
        "--phase-tolerance", dest="phase_tolerance", type=float, default=None,
        metavar="FRAC",
        help="with two dirs: flag spans whose wall time shifted by more "
             "than FRAC (e.g. 0.5 = ±50%%) between A and B",
    )
    rp.add_argument(
        "--gate-phases", dest="gate_phases", action="store_true",
        help="exit 4 when --phase-tolerance flags any span",
    )
    rp.set_defaults(func=commands.cmd_obs_report)

    def _add_endpoint(sp: argparse.ArgumentParser) -> None:
        sp.add_argument("--host", default="127.0.0.1",
                        help="serve transport address")
        sp.add_argument("--port", type=int, default=8713,
                        help="serve transport port")

    sp = obs_sub.add_parser(
        "scrape",
        help="Prometheus-style text exposition of a live server's metrics",
    )
    _add_endpoint(sp)
    sp.add_argument(
        "--from-json", dest="from_json", metavar="FILE",
        help="render a saved `metrics` result payload instead of polling "
             "a server ('-' reads stdin)",
    )
    sp.set_defaults(func=commands.cmd_obs_scrape)

    sp = obs_sub.add_parser(
        "top", help="live tier mix / latency percentiles / breaker state"
    )
    _add_endpoint(sp)
    sp.add_argument("--interval", type=float, default=2.0,
                    help="seconds between polls")
    sp.add_argument("--count", type=int, default=1,
                    help="polls before exiting (0 = until interrupted)")
    sp.set_defaults(func=commands.cmd_obs_top)

    sp = obs_sub.add_parser(
        "tail", help="dump the flight recorder (recent spans and events)"
    )
    _add_endpoint(sp)
    sp.add_argument("--spans", type=int, default=16,
                    help="most recent spans to show")
    sp.add_argument("--events", type=int, default=16,
                    help="most recent events to show")
    sp.add_argument("--json", action="store_true",
                    help="emit the raw flight-recorder dump as JSON")
    sp.set_defaults(func=commands.cmd_obs_tail)

    return parser


def _obs_config(args: argparse.Namespace) -> dict:
    """The manifest ``config`` block: the run's plain-value options."""
    # "resume" is excluded like "obs_dir": both are per-invocation paths
    # that must not break the deterministic-twin verdict between a
    # resumed run and its golden twin.
    return {
        key: value
        for key, value in sorted(vars(args).items())
        if key not in ("func", "obs_dir", "resume")
        and isinstance(value, (str, int, float, bool, type(None)))
    }


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code.

    When the subcommand was given ``--obs-dir``, the whole dispatch runs
    under a telemetry recording: spans and counters are captured and a
    trace + manifest land in that directory.  Everything the command
    prints stays byte-identical to an unrecorded run.
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    obs_dir = getattr(args, "obs_dir", None)
    try:
        if obs_dir:
            from repro.obs import recording
            from repro.rng import DEFAULT_SEED

            with recording(
                obs_dir,
                command=args.command,
                argv=list(argv) if argv is not None else sys.argv[1:],
                seed=args.seed if args.seed is not None else DEFAULT_SEED,
                config=_obs_config(args),
            ):
                return args.func(args)
        return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
