"""The repository benchmark: ``paper``, ``sweep`` and ``advisory`` workloads.

Usage, from the repository root::

    python3 perfbench/run.py --workload paper --seed 7 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 20130701

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json: set-up
time (median of three fresh-interpreter set-ups), peak RSS (pool
workers included), operations per second and per-operation latency.
``--trace 1`` reports the per-layer metrics instead: a fresh
``-X importtime`` import of ``repro.cli.main`` (three times), an
untraced run, and a traced run whose wrappers time every layer entry
point (see ``tracer.py``).  Both print a human report, then one JSON
line: ``{"correct", "attempted", "failed", "metrics"}``.  The exit code
is non-zero when any operation failed its correctness check.

Everything the run leaves behind goes to ``.perfbench/`` under the
repository root: the result JSON and, for traced runs, the spans.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time

from tracer import METRIC_SPANS
from workloads import cpu_times, jiffies

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ("paper", "sweep", "advisory")
#: Set-ups per ``--trace 0`` run; ``setup_s`` is their median.
SETUPS = 3
#: Fresh ``-X importtime`` imports per ``--trace 1`` run.
IMPORT_SAMPLES = 3
#: Wall-clock budget of one invocation, which must end within 180 s.
BUDGET_S = 170.0


class BenchError(Exception):
    """The benchmark could not run (not a failed correctness check)."""


def steal_share(before: list[int], after: list[int]) -> float:
    """Stolen share of the busy CPU time between two ``cpu_times`` reads."""
    stolen, busy, _total = jiffies(before, after)
    return stolen / busy if busy > 0 else 0.0


def host_record(steal: float, factor: float) -> dict:
    from importlib.metadata import PackageNotFoundError, version

    def ver(dist: str) -> str:
        try:
            return version(dist)
        except PackageNotFoundError:
            return "absent"

    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as info:
            hypervisor = any(
                line.startswith("flags") and " hypervisor" in line for line in info
            )
    except OSError:
        hypervisor = False
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": ver("numpy"),
        "scipy": ver("scipy"),
        "hypervisor": hypervisor,
        "cpu_steal_share": steal,
        "speed_factor": factor,
    }


def _env() -> dict:
    env = dict(os.environ)
    path = [str(ROOT / "src")]
    if env.get("PYTHONPATH"):
        path.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(path)
    return env


def _end_session(proc: subprocess.Popen, grace_s: float = 0.0) -> None:
    """Stop whatever is left of a child's session and wait until it is gone.

    With ``grace_s``, SIGTERM first, so an interrupted child can close its
    worker pool and unlink its shared memory; then SIGKILL.
    """
    steps = ((signal.SIGTERM, grace_s),) if grace_s else ()
    for sig, wait_s in steps + ((signal.SIGKILL, 5.0),):
        try:
            os.killpg(proc.pid, sig)
        except ProcessLookupError:
            return
        end = time.monotonic() + wait_s
        while time.monotonic() < end:  # orphans are not ours to wait() for
            try:
                os.killpg(proc.pid, 0)
            except ProcessLookupError:
                return
            time.sleep(0.01)


def _spawn(argv: list[str], deadline: float) -> tuple[float, str, str]:
    """Run one child in its own session; returns (spawned_at, stdout, stderr)."""
    spawned_at = time.monotonic()
    proc = subprocess.Popen(
        argv, cwd=ROOT, env=_env(), stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True, start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        _end_session(proc, grace_s=3.0)
        proc.communicate()
        raise BenchError(f"timed out: {' '.join(argv[1:4])}") from None
    except BaseException:  # interrupted or terminated: leave nothing running
        _end_session(proc, grace_s=3.0)
        proc.wait()
        raise
    _end_session(proc)
    if proc.returncode != 0:
        raise BenchError(f"child failed ({proc.returncode}): {err.strip()[-2000:]}")
    return spawned_at, out, err


def _child(workload: str, seed: int, role: str, seconds: float, trace: int,
           out_dir: pathlib.Path, deadline: float) -> dict:
    argv = [sys.executable, str(HERE / "child.py"), "--workload", workload,
            "--seed", str(seed), "--role", role, "--seconds", str(seconds),
            "--trace", str(trace), "--out", str(out_dir)]
    spawned_at, out, _err = _spawn(argv, deadline)
    report = json.loads(out.strip().splitlines()[-1])
    report["setup_s"] = report["ready_at"] - spawned_at
    return report


def import_times(deadline: float) -> dict:
    """Medians over fresh ``-X importtime`` imports of ``repro.cli.main``."""
    samples = {"total": [], "scipy": [], "numpy": [], "repro": []}
    for _ in range(IMPORT_SAMPLES):
        _t, _out, err = _spawn(
            [sys.executable, "-X", "importtime", "-c", "import repro.cli.main"],
            deadline,
        )
        parsed = parse_importtime(err)
        for key in samples:
            samples[key].append(parsed[key])
    return {key: statistics.median(v) for key, v in samples.items()}


def parse_importtime(text: str) -> dict:
    """Seconds importing ``repro.cli.main`` and the self time per package."""
    out = {"total": 0.0, "scipy": 0.0, "numpy": 0.0, "repro": 0.0}
    for line in text.splitlines():
        m = re.match(r"import time:\s+(\d+) \|\s+(\d+) \|( *)(\S+)", line)
        if not m:
            continue
        own, cumulative, indent, name = int(m[1]), int(m[2]), len(m[3]), m[4]
        top = name.split(".")[0]
        if top in out and top != "total":
            out[top] += own / 1e6
        if indent == 1 and top == "repro":
            out["total"] += cumulative / 1e6
    return out


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(children: list[dict], measure: dict) -> dict:
    lat = measure["latency"]
    return {
        "setup_s": _metric(statistics.median(c["setup_s"] for c in children), "s"),
        "peak_rss_mb": _metric(measure["peak_rss_kib"] * 1024 / 1e6, "MB"),
        "ops_per_s": _metric(measure["ops"] / sum(measure["pass_time_s"]), "1/s"),
        "latency_p50_us": _metric(lat["p50"] * 1e6, "us"),
        "latency_p99_us": _metric(lat["p99"] * 1e6, "us"),
    }


def per_layer(imports: dict, plain: dict, traced: dict, per_layer_spec: list) -> dict:
    """Every per-layer metric of BENCHMARK.json from the two runs."""
    ledger = traced["ledger"]
    passes = ledger["passes"]
    spans = ledger["spans"]
    layers = {}
    for side in ("parent_layers", "worker_layers"):
        for layer, own in ledger[side].items():
            layers[layer] = layers.get(layer, 0.0) + own
    values: dict[str, float] = {
        "import.total_s": imports["total"],
        "import.scipy_s": imports["scipy"],
        "import.numpy_s": imports["numpy"],
        "import.repro_s": imports["repro"],
    }
    for layer, own in layers.items():
        values[f"{layer}.self_s"] = own / passes
    for metric, names in METRIC_SPANS.items():
        calls = sum(spans.get(n, [0])[0] for n in names)
        key = metric if metric == "rng.streams" else f"{metric}.calls"
        values[key] = calls / passes
    values["routing.populate.self_s"] = (
        spans.get("routing.RoutingTable.populate", [0, 0.0])[1] / passes
    )
    solver = ledger["solver"]

    def ratio(hit: str, miss: str) -> float:
        total = solver.get(hit, 0) + solver.get(miss, 0)
        return solver.get(hit, 0) / total if total else 0.0

    values["solver.solves"] = solver.get("solves", 0) / passes
    values["solver.cache_hit_ratio"] = ratio("cache_hits", "cache_misses")
    values["solver.capacity_hit_ratio"] = ratio("capacity_hits", "capacity_builds")
    values["solver.path_hit_ratio"] = ratio("path_hits", "path_misses")
    for exp_id, wall in plain.get("artifact_walls_s", {}).items():
        values[f"experiments.{exp_id}.wall_s"] = wall
    fabric = ledger.get("fabric")
    if fabric is not None:
        values["fabric.tasks"] = fabric["tasks"] / passes
        values["fabric.retried"] = fabric["retried"] / passes
        values["fabric.dispatch_s"] = fabric["dispatch_s"] / passes
        values["fabric.idle_frac"] = fabric["idle_frac"]
    service = ledger.get("service")
    if service is not None:
        # Reply kinds: the request's method, or "error" for a typed error.
        for kind, entry in service["by_method"].items():
            values[f"service.{kind}.calls"] = entry["calls"] / passes
            values[f"service.{kind}.self_s"] = entry.get("service", 0.0) / passes
        counters = service["counters"]
        tiers = [sum(c[f"tier{t}"] for c in counters) for t in (1, 2, 3)]
        answered = sum(tiers)
        values["service.tier1.share"] = tiers[0] / answered if answered else 0.0
        values["service.tier2.share"] = tiers[1] / answered if answered else 0.0
        values["service.tier3.solves"] = (
            sum(c["tier3_solves"] for c in counters) / passes
        )
    values["trace.coverage"] = (
        sum(ledger["parent_layers"].values()) / ledger["traced_wall_s"]
    )
    values["trace.overhead_frac"] = (
        statistics.median(traced["pass_time_s"]) / statistics.median(plain["pass_time_s"])
        - 1.0
    )
    # A layer the workload never enters reads 0.
    return {m["name"]: _metric(values.get(m["name"], 0.0), m["unit"])
            for m in per_layer_spec}


def run_workload(workload: str, seed: int, seconds: float, trace: int,
                 per_layer_spec: list, deadline: float) -> dict:
    """One workload end to end; returns the result record."""
    out_dir = ROOT / ".perfbench" / f"{workload}-seed{seed}-trace{trace}"
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    before = cpu_times()
    record: dict = {"workload": workload, "seed": seed, "seconds": seconds,
                    "trace": trace}
    if trace == 0:
        children = [
            _child(workload, seed, "setup", 0, 0, out_dir, deadline)
            for _ in range(SETUPS - 1)
        ]
        measure = _child(workload, seed, "measure", seconds, 0, out_dir, deadline)
        children.append(measure)
        record["setup_samples_s"] = [c["setup_s"] for c in children]
        metrics = end_to_end(children, measure)
        runs = [measure]
    else:
        imports = import_times(deadline)
        plain = _child(workload, seed, "measure", seconds, 0, out_dir, deadline)
        traced = _child(workload, seed, "measure", seconds, 1, out_dir, deadline)
        record["imports"] = imports
        record["ledger"] = traced["ledger"]
        metrics = per_layer(imports, plain, traced, per_layer_spec)
        runs = [plain, traced]
    record["host"] = host_record(steal_share(before, cpu_times()),
                                 runs[-1]["speed_factor"])
    record["runs"] = runs
    record["metrics"] = metrics
    record["attempted"] = sum(r["attempted"] for r in runs)
    record["failed"] = sum(r["failed"] for r in runs)
    record["correct"] = record["failed"] == 0
    (out_dir / "result.json").write_text(json.dumps(record, indent=1) + "\n",
                                         encoding="utf-8")
    return record


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def _host_line(host: dict) -> str:
    steal = host["cpu_steal_share"]
    where = (
        f"a {host['nproc']}-vCPU virtual machine that lost {100 * steal:.1f} % "
        "of its busy CPU time to steal during the run"
        if host["hypervisor"] else
        f"{host['nproc']} CPUs, {100 * steal:.1f} % CPU steal during the run"
    )
    return (f"host: {where}; Python {host['python']}, numpy {host['numpy']}, "
            f"scipy {host['scipy']}.  Pass times exclude steal and are scaled to a "
            f"reference speed by one factor per run, {host['speed_factor']:.3f}, "
            "from calibration loops run between the passes; set-up is wall time")


def render(record: dict) -> list[str]:
    """The human part of the report: host, metrics, checks, the ledger."""
    rationale = json.loads((HERE / "rationale.json").read_text(encoding="utf-8"))
    lines = [
        f"perfbench {record['workload']}: seed {record['seed']}, "
        f"{record['seconds']:g} s per run, trace {record['trace']}",
        _host_line(record["host"]),
    ]
    runs = record["runs"]
    measure = runs[0]
    lat_n = measure["latency"]["n"]
    samples = {
        "setup_s": "median wall time of fresh set-ups " + ", ".join(
            f"{s:.3f}" for s in record.get("setup_samples_s", [])),
        "peak_rss_mb": f"after {min(4, len(measure['pass_time_s']))} passes, "
                       "measuring process" + (
                           " + pool workers" if record["workload"] == "sweep" else ""),
        "ops_per_s": f"{measure['ops']} operations in {len(measure['pass_time_s'])} "
                     f"passes, {sum(measure['pass_walls_s']):.2f} s wall",
        "latency_p50_us": f"n={lat_n}",
        "latency_p99_us": f"n={lat_n}, {lat_n - 1 - int(0.99 * (lat_n - 1))} above",
    }
    moves = rationale["per_layer"]
    for name, metric in record["metrics"].items():
        if record["trace"] == 0:
            note = samples.get(name, "")
        else:
            target = moves.get(name, {})
            note = ("-> " + ", ".join(target["moves"]) + " on "
                    + ", ".join(target["workloads"])) if target.get("moves") else (
                "quality of the trace itself")
        lines.append(f"  {name:28s} {_fmt(metric['value']):>13s} "
                     f"{metric['unit']:10s} {note}")
    for note in dict.fromkeys(n for run in runs for n in run.get("notes", [])):
        lines.append("  " + note)
    shape = measure.get("shape_checks")
    if shape is not None:
        failing = {k: v for k, v in shape.items() if v}
        lines.append(
            f"shape checks at seed {record['seed']}: "
            f"{len(shape) - len(failing)}/{len(shape)} experiments pass all checks"
            f" (artifact bytes compared against {measure['expected_source']})"
        )
        for exp_id, checks in failing.items():
            lines.extend(f"  {exp_id}: {c}" for c in checks)
    if "ledger" in record:
        lines.extend(render_ledger(record["ledger"]))
    lines.append(
        f"correctness: {record['attempted']} operations attempted, "
        f"{record['failed']} failed"
    )
    return lines


def render_ledger(ledger: dict) -> list[str]:
    """Per-layer self time per pass, and the sum of parts against the total."""
    passes = ledger["passes"]
    lines = [f"traced ledger: {passes} passes; wall-clock self time per pass "
             "by layer, in ms"]
    layers: dict[str, list] = {}
    for side, col in (("parent_layers", 0), ("worker_layers", 1)):
        for layer, own in ledger[side].items():
            layers.setdefault(layer, [0.0, 0.0])[col] += own
    workers = ledger["workers"]
    lines.append(f"  {'layer':20s} {'process':>10s}" + (
        f" {'workers':>10s}" if workers else ""))
    lines.append(f"  {'harness':20s} {1e3 * ledger['harness_self_s'] / passes:10.3f}")
    for layer, (parent, worker) in sorted(layers.items(), key=lambda x: -sum(x[1])):
        lines.append(f"  {layer:20s} {1e3 * parent / passes:10.3f}" + (
            f" {1e3 * worker / passes:10.3f}" if workers else ""))
    wall = ledger["traced_wall_s"]
    parts = sum(ledger["parent_layers"].values())
    lines.append(
        f"sum of parts: layers {parts:.4f} s + harness {ledger['harness_self_s']:.4f} s"
        f" = {parts + ledger['harness_self_s']:.4f} s against {wall:.4f} s traced "
        f"wall; coverage {100 * parts / wall:.2f} %"
    )
    fabric = ledger.get("fabric")
    if fabric is not None:
        waiting = ledger["parent_layers"].get("fabric", 0.0) - fabric["dispatch_s"]
        lines.append(
            f"  fabric in the process = dispatch {fabric['dispatch_s']:.4f} s + waiting "
            f"on the slowest worker {waiting:.4f} s over {fabric['calls']} pool calls; "
            f"{workers} workers ran {sum(ledger['worker_layers'].values()):.4f} s of "
            f"layer self time, idle {100 * fabric['idle_frac']:.1f} % of their "
            "worker-seconds while a call waited on its slowest shard"
        )
    service = ledger.get("service")
    if service is not None:
        lines.append("  per reply kind, per pass: calls, unscaled CPU ms, and self ms in "
                     "service / service.protocol / obs.live")
        for label, entry in sorted(service["by_method"].items()):
            lines.append(
                f"    {label:12s} {entry['calls'] / passes:8.0f} "
                f"{1e3 * entry['cpu_s'] / passes:9.3f} "
                + " ".join(f"{1e3 * entry.get(k, 0.0) / passes:9.3f}"
                           for k in ("service", "service.protocol", "obs.live"))
            )
    lines.append(f"  spans written {ledger['spans_kept']}, past the per-process "
                 f"cap {ledger['spans_dropped']} (the aggregates cover all)")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed (default: the library seed 20130701)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="timed seconds per run (default: BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Terminated: unwind through _spawn, which stops the running child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    deadline = time.monotonic() + BUDGET_S
    try:
        if not (ROOT / "src" / "repro").is_dir():
            raise BenchError(f"no repro sources under {ROOT / 'src'}")
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        seed = 20130701 if args.seed is None else args.seed
        if seed < 0:
            raise BenchError(f"--seed must be >= 0, got {seed}")
        seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
        names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
        if args.workload == "all":
            deadline += BUDGET_S * (len(names) - 1)
        records = []
        for name in names:
            record = run_workload(name, seed, seconds, args.trace,
                                  spec["per_layer"], deadline)
            print("\n".join(render(record)), flush=True)
            records.append(record)
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"perfbench: error: {exc}", file=sys.stderr)
        return 2
    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v
                   for r in records for k, v in r["metrics"].items()}
    correct = all(r["correct"] for r in records)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
