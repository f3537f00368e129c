#!/usr/bin/env sh
# Benchmark smoke with regression gating.
#
# Runs the solver-layer, routing-engine, per-figure experiment, and
# service tiered-answer-path benchmark suites and compares the fresh
# means, kept in a temporary work directory, against the committed
# BENCH_solver.json / BENCH_routing.json / BENCH_experiments.json /
# BENCH_service.json baselines (scripts/bench_gate.py, tolerance +25%).
# A benchmark whose mean regressed by more than the tolerance fails the
# script; improvements and new benchmarks pass.  The service suite
# additionally hard-asserts its own bar (>= 50x the
# solve-every-request baseline, tier-1 p99 < 1 ms, analytic tier within
# the documented error bound) on every run.
#
# The smoke never rewrites a committed baseline.  Re-record one on
# purpose by pointing its suite's output at the repo root, e.g.
#   PYTHONPATH=src python -m pytest benchmarks/bench_library_performance.py \
#       -q --benchmark-only --benchmark-json=BENCH_solver.json
#   PYTHONPATH=src python scripts/bench_service.py BENCH_service.json
#   PYTHONPATH=src python -m repro.cli.main iomodel --targets all \
#       --mode both --runs 10 --obs-dir BENCH_obs
#
# Pass BENCH_TOLERANCE=0.40 (etc.) in the environment to loosen the gate
# on noisy machines.
set -eu

cd "$(dirname "$0")/.."

TOLERANCE="${BENCH_TOLERANCE:-0.25}"
TMPDIR_BENCH="$(mktemp -d)"
trap 'rm -rf "$TMPDIR_BENCH"' EXIT

PYTHONPATH=src python -m pytest benchmarks/bench_library_performance.py \
    -q --benchmark-only --benchmark-json="$TMPDIR_BENCH/solver.json" "$@"

PYTHONPATH=src python -m pytest benchmarks/bench_routing_engine.py \
    -q --benchmark-only --benchmark-json="$TMPDIR_BENCH/routing.json" "$@"

PYTHONPATH=src python -m pytest \
    benchmarks/bench_fig3_stream_matrix.py \
    benchmarks/bench_fig4_node7_models.py \
    benchmarks/bench_fig5_tcp.py \
    benchmarks/bench_fig6_rdma.py \
    benchmarks/bench_fig7_ssd.py \
    benchmarks/bench_fig10_iomodel.py \
    benchmarks/bench_table1_numa_factor.py \
    benchmarks/bench_table2_table3_configs.py \
    benchmarks/bench_table4_write_model.py \
    benchmarks/bench_table5_read_model.py \
    -q --benchmark-only --benchmark-json="$TMPDIR_BENCH/experiments.json" "$@"

# The service suite writes the same pytest-benchmark JSON shape and
# enforces its own hard acceptance asserts as it runs.
PYTHONPATH=src python scripts/bench_service.py "$TMPDIR_BENCH/service.json"

# Gate each fresh run against its committed baseline.
for suite in solver routing experiments service; do
    baseline="BENCH_${suite}.json"
    fresh="$TMPDIR_BENCH/${suite}.json"
    if [ -f "$baseline" ]; then
        PYTHONPATH=src python scripts/bench_gate.py "$baseline" "$fresh" \
            --tolerance "$TOLERANCE"
    else
        echo "no committed $baseline baseline; nothing to gate against"
    fi
done

PYTHONPATH=src BENCH_FRESH="$TMPDIR_BENCH" python - <<'EOF'
import json
import os

for suite in ("solver", "routing", "experiments", "service"):
    with open(os.path.join(os.environ["BENCH_FRESH"], f"{suite}.json")) as fh:
        data = json.load(fh)
    print(f"\nfresh BENCH_{suite}.json snapshot:")
    for bench in sorted(data["benchmarks"], key=lambda b: b["name"]):
        stats = bench["stats"]
        print(f"  {bench['name']:50s} mean {stats['mean'] * 1e3:8.2f} ms  "
              f"min {stats['min'] * 1e3:8.2f} ms")
EOF

# Fault-layer overhead gate: the fault subsystem is strictly opt-in, so a
# healthy STREAM matrix on a zero-fault FaultedMachine view must cost
# within 5 % of the same matrix on the plain host (min-of-5 each).
PYTHONPATH=src python - <<'EOF'
import time

from repro.bench.stream import StreamBenchmark
from repro.faults.plan import FaultedMachine
from repro.topology.builders import reference_host


def best_of(machine, repeats=5, runs=20):
    times = []
    for _ in range(repeats):
        bench = StreamBenchmark(machine, runs=runs)
        t0 = time.perf_counter()
        bench.matrix()
        times.append(time.perf_counter() - t0)
    return min(times)


host = reference_host()
best_of(host, repeats=1)  # warmup (imports, caches)
healthy = best_of(host)
faulted = best_of(FaultedMachine(host, ()))
ratio = faulted / healthy
print(f"\nfault-layer overhead on healthy stream matrix: "
      f"healthy {healthy * 1e3:.1f} ms, zero-fault view {faulted * 1e3:.1f} ms "
      f"({(ratio - 1) * 100:+.1f} %)")
if ratio > 1.05:
    raise SystemExit("FAIL: fault layer adds >5% overhead to the healthy path")
print("OK: fault layer overhead within 5%")
EOF

# Telemetry overhead gate: recording spans/counters must cost within 5 %
# of the identical workload with telemetry off (min-of-5 each).  The
# no-op path (no recorder installed) is covered by the unit suite; this
# gates the *enabled* path.
PYTHONPATH=src python - <<'EOF'
import tempfile
import time

from repro.bench.stream import StreamBenchmark
from repro.obs import recording
from repro.topology.builders import reference_host


def best_of(recorded, repeats=5, runs=20):
    times = []
    for i in range(repeats):
        bench = StreamBenchmark(reference_host(), runs=runs)
        if recorded:
            with tempfile.TemporaryDirectory() as obs_dir:
                with recording(obs_dir, command="bench"):
                    t0 = time.perf_counter()
                    bench.matrix()
                    times.append(time.perf_counter() - t0)
        else:
            t0 = time.perf_counter()
            bench.matrix()
            times.append(time.perf_counter() - t0)
    return min(times)


best_of(False, repeats=1)  # warmup (imports, caches)
off = best_of(False)
on = best_of(True)
ratio = on / off
print(f"\ntelemetry overhead on stream matrix: "
      f"off {off * 1e3:.1f} ms, recording {on * 1e3:.1f} ms "
      f"({(ratio - 1) * 100:+.1f} %)")
if ratio > 1.05:
    raise SystemExit("FAIL: enabled telemetry adds >5% overhead")
print("OK: enabled telemetry overhead within 5%")
EOF

# Span-driven phase triage: record the obs manifest of a fixed iomodel
# sweep and flag per-phase wall-time shifts against the committed
# BENCH_obs baseline beyond the noise band.  Advisory by default (wall
# times vary across machines — the gates above own pass/fail); opt into
# hard gating with `repro-numa obs report A B --phase-tolerance F
# --gate-phases` (exit 4 on a shift).
PHASE_TOLERANCE="${PHASE_TOLERANCE:-0.50}"
PYTHONPATH=src python -m repro.cli.main iomodel --targets all --mode both \
    --runs 10 --obs-dir "$TMPDIR_BENCH/obs" > /dev/null
if [ -f BENCH_obs/manifest.json ]; then
    echo ""
    PYTHONPATH=src python -m repro.cli.main obs report BENCH_obs \
        "$TMPDIR_BENCH/obs" --phase-tolerance "$PHASE_TOLERANCE"
else
    echo "no committed BENCH_obs baseline; nothing to compare against"
fi
