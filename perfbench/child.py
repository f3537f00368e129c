"""One benchmark process: set a workload up, then optionally time it.

``run.py`` starts this script in fresh interpreters, because set-up time
is measured from interpreter start:

* ``--role setup`` sets up (imports, inputs, pool, warm-up pass) and
  reports the instant its first timed operation would have started;
* ``--role measure`` then runs timed passes for ``--seconds`` (on
  sweep, a fixed number of hosts that takes about as long), checks
  every operation, and reports timings, failures and peak RSS; with
  ``--trace 1`` every layer entry point is wrapped before set-up and
  the per-layer ledger and spans of the timed passes are reported too.

The last line of standard output is one JSON object for ``run.py``.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import signal
import statistics
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
#: Peak RSS is read after this many timed passes (or at the end of a
#: shorter run), so it measures a fixed amount of work, not run speed.
RSS_PASSES = 4
#: Before every timed pass, calibration loops run for about this share of
#: the previous pass's wall time (at least three); the run's pass times
#: are scaled by the median of all of them (``workloads.speed_factor``).
CALIBRATION_SHARE = 0.05


def _quantiles(values: list[float]) -> dict:
    ordered = sorted(values)
    cuts = (statistics.quantiles(ordered, n=100, method="inclusive")
            if len(ordered) > 1 else ordered * 99)
    return {"n": len(ordered), "p50": statistics.median(ordered), "p99": cuts[98]}


def _ledger(tracer, workload, passes, solver, loop_start, out_dir) -> dict:
    """Per-layer self times and counts of the timed passes."""
    from tracer import read_worker_records

    stats = {name: list(v) for name, v in tracer.stats.items() if v[0]}
    layer_of = dict(tracer.layer_of)
    workers = read_worker_records(out_dir / "workers")
    worker_layers: dict[str, float] = {}
    for record in workers.values():
        layer_of.update(record["layer_of"])
        for name, (calls, own, total) in record["stats"].items():
            entry = stats.setdefault(name, [0, 0.0, 0.0])
            entry[0] += calls
            entry[1] += own
            entry[2] += total
            layer = record["layer_of"][name]
            worker_layers[layer] = worker_layers.get(layer, 0.0) + own
        for key, value in record["solver"].items():
            solver[key] = solver.get(key, 0) + value
    parent_layers: dict[str, float] = {}
    for name, (calls, own, total) in tracer.stats.items():
        if calls and tracer.layer_of[name] != "harness":
            layer = tracer.layer_of[name]
            parent_layers[layer] = parent_layers.get(layer, 0.0) + own
    traced_wall = tracer.stats["harness.pass"][2]
    harness = sum(v[1] for n, v in tracer.stats.items()
                  if tracer.layer_of[n] == "harness")
    ledger = {
        "passes": len(passes),
        "traced_wall_s": traced_wall,
        "harness_self_s": harness,
        "parent_layers": parent_layers,
        "worker_layers": worker_layers,
        "spans": stats,
        "layer_of": layer_of,
        "solver": solver,
        "spans_kept": len(tracer.spans) + sum(len(r["spans"]) for r in workers.values()),
        "spans_dropped": sum(v[0] for v in stats.values()) - len(tracer.spans)
        - sum(len(r["spans"]) for r in workers.values()),
        "workers": len(workers),
    }
    if workload.name == "sweep":
        ledger["fabric"] = _fabric(workload, workers)
    if workload.name == "advisory":
        ledger["service"] = {"by_method": workload.by_method,
                             "counters": workload.counters}
    _write_spans(out_dir / "spans.jsonl", tracer, workers, loop_start)
    return ledger


def _fabric(workload, workers: dict) -> dict:
    """Dispatch time and worker idleness of every timed pool call.

    A call's dispatch time is its wall time minus the busy time of its
    slowest worker; idle worker-seconds are what the other workers spend
    waiting for that slowest shard.
    """
    dispatch = idle = capacity = 0.0
    for start, end in workload.calls:
        busy = []
        for record in workers.values():
            busy.append(sum(
                min(e, end) - max(s, start)
                for s, e in record["busy"] if s < end and e > start
            ))
        busy += [0.0] * max(0, workload.jobs - len(busy))
        slowest = max(busy) if busy else 0.0
        dispatch += (end - start) - slowest
        idle += sum(slowest - b for b in busy)
        capacity += slowest * len(busy)
    stats, base = workload.pool.stats(), workload.setup_stats
    return {
        "calls": len(workload.calls),
        "tasks": stats["dispatched"] - base["dispatched"],
        "retried": stats["retried"] - base["retried"],
        "dispatch_s": dispatch,
        "idle_frac": idle / capacity if capacity else 0.0,
    }


def _write_spans(path, tracer, workers: dict, t0: float) -> None:
    """One JSON line per kept span, times relative to the timed phase."""
    from tracer import link_spans

    with open(path, "w", encoding="utf-8") as out:
        for pid, spans in [("parent", tracer.spans)] + [
            (pid, r["spans"]) for pid, r in workers.items()
        ]:
            layer_of = tracer.layer_of if pid == "parent" else workers[pid]["layer_of"]
            for span_id, parent, name, start, end, req in link_spans(spans):
                row = {"pid": pid, "id": span_id, "parent": parent, "name": name,
                       "layer": layer_of.get(name, "?"),
                       "start": round(start - t0, 9), "end": round(end - t0, 9)}
                if req is not None:
                    row["request_id"] = req
                out.write(json.dumps(row) + "\n")


def _peak_rss(workload) -> int:
    """Peak RSS so far (KiB) of this process plus any pool workers."""
    from workloads import peak_rss_kib

    rss = peak_rss_kib()
    if hasattr(workload, "worker_peak_rss_kib"):
        rss += workload.worker_peak_rss_kib()
    return rss


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--role", choices=("setup", "measure"), required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    out_dir = pathlib.Path(args.out)
    # Terminated: unwind, so ``workload.close()`` stops the worker pool.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    import repro.cli.main  # noqa: F401 -- what every CLI invocation imports
    from repro.obs.stats import solver_totals
    from workloads import CALIBRATION_REF_S, WORKLOADS, Calibrator, speed_factor

    tracer = None
    if args.trace:
        from repro.experiments import EXPERIMENTS, get_experiment
        from tracer import Tracer

        tracer = Tracer()
        tracer.install({e: get_experiment(e) for e in EXPERIMENTS})
        tracer.record_workers(out_dir / "workers")

    workload = WORKLOADS[args.workload](args.seed, ROOT)
    calibrator = None
    try:
        workload.setup()
        report: dict = {"ready_at": time.monotonic()}
        if args.role == "setup":
            print(json.dumps(report))
            return 0

        calibrator = Calibrator()
        if tracer is not None:
            tracer.mark_timed()
        # Sweep measures a fixed number of hosts; the other workloads
        # repeat the same operations until the deadline.
        timed_passes = getattr(workload, "timed_passes", None)
        due = timed_passes(args.seconds) if timed_passes else None
        loop_start = time.perf_counter()
        deadline = loop_start + args.seconds
        passes, loops, solver = [], [], {}
        before_pass = getattr(workload, "before_pass", None)
        while True:
            share = CALIBRATION_SHARE * passes[-1].wall_s if passes else 0.0
            loops += calibrator.run(max(3, round(share / CALIBRATION_REF_S)))
            if tracer is not None:
                tracer.begin("harness.pass")
            if before_pass is not None:
                before_pass()
            s0 = solver_totals()
            result = workload.run_pass(tracer)
            if tracer is not None:
                tracer.end()
                with tracer.suspended():
                    result.failed = workload.check(result)
            else:
                result.failed = workload.check(result)
            result.outputs = None
            for key, value in solver_totals().items():
                solver[key] = solver.get(key, 0) + value - s0.get(key, 0)
            passes.append(result)
            if len(passes) == RSS_PASSES:
                rss = _peak_rss(workload)
            if (len(passes) == due) if due else time.perf_counter() >= deadline:
                break
        if len(passes) < RSS_PASSES:
            rss = _peak_rss(workload)
        if tracer is not None:
            with tracer.suspended():
                extra_failed, notes = workload.finish()
            report["ledger"] = _ledger(tracer, workload, passes, solver,
                                       loop_start, out_dir)
        else:
            extra_failed, notes = workload.finish()
    finally:
        workload.close()
        if calibrator is not None:
            calibrator.close()

    # One factor for the whole run scales every pass to the reference speed.
    factor = speed_factor(loops)
    if workload.repeats_ops:
        # The same operations run every pass: take each one's median over
        # the passes, so a slow moment of the machine does not become the
        # tail of the program's latency distribution.
        latencies = [statistics.median(op) for op in zip(*(p.latencies_s for p in passes))]
    else:
        latencies = [x for p in passes for x in p.latencies_s]
    report.update({
        "pass_walls_s": [p.wall_s for p in passes],
        "pass_time_s": [p.time_s * factor for p in passes],
        "ops": sum(p.attempted for p in passes),
        "attempted": sum(p.attempted for p in passes),
        "failed": sum(p.failed for p in passes) + extra_failed,
        "latency": _quantiles([t * factor for t in latencies]),
        "peak_rss_kib": rss,
        "speed_factor": factor,
        "calibration_s": loops,
        "notes": notes,
    })
    if args.workload == "paper":
        per_id: dict[str, list[float]] = {}
        for p in passes:
            for exp_id, wall in zip(p.labels, p.op_walls_s):
                per_id.setdefault(exp_id, []).append(wall)
        report["artifact_walls_s"] = {k: statistics.median(v) for k, v in per_id.items()}
        report["shape_checks"] = workload.shape_checks
        report["expected_source"] = workload.expected_source
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
