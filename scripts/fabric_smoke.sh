#!/usr/bin/env sh
# Worker-fabric smoke: the determinism contract, end to end.
#
# Gates, in order:
#   1. `iomodel --targets ... --jobs N` stdout is byte-identical to the
#      serial run (the sharded-sweep contract).
#   2. `experiment all --quick --jobs 2` writes byte-identical artifacts
#      to the serial run, and the jobs run survives a SIGKILLed worker
#      with every experiment still reported exactly once.
#   3. With --obs-dir, the sharded run's manifest carries the same RNG
#      draw ledger as the serial run (worker telemetry grafting).
#   4. BENCH_fabric.json is re-recorded and gated against the committed
#      baseline (tolerance +50% — process fork times are noisy).
set -eu

cd "$(dirname "$0")/.."

TMPDIR="${TMPDIR:-/tmp}"
WORK="$TMPDIR/fabric_smoke.$$"
trap 'rm -rf "$WORK"' EXIT
mkdir -p "$WORK"

TOLERANCE="${BENCH_TOLERANCE:-0.50}"

echo "== 1. sharded iomodel sweep: stdout byte-identity"
PYTHONPATH=src python -m repro.cli.main iomodel --targets all --mode both \
    --runs 10 > "$WORK/io_serial.txt"
PYTHONPATH=src python -m repro.cli.main iomodel --targets all --mode both \
    --runs 10 --jobs 3 > "$WORK/io_jobs.txt"
if ! cmp -s "$WORK/io_serial.txt" "$WORK/io_jobs.txt"; then
    echo "FAIL: --jobs 3 changed the iomodel sweep's stdout" >&2
    diff "$WORK/io_serial.txt" "$WORK/io_jobs.txt" >&2 || true
    exit 1
fi
echo "iomodel sweep byte-identical at --jobs 3"

echo "== 2. experiment artifacts: serial vs --jobs 2"
PYTHONPATH=src python -m repro.cli.main experiment all --quick \
    --outdir "$WORK/exp_serial" > /dev/null
PYTHONPATH=src python -m repro.cli.main experiment all --quick --jobs 2 \
    --outdir "$WORK/exp_jobs" > "$WORK/exp_jobs_stdout.txt"
if ! diff -r "$WORK/exp_serial" "$WORK/exp_jobs" > /dev/null; then
    echo "FAIL: --jobs 2 changed the experiment artifacts" >&2
    diff -r "$WORK/exp_serial" "$WORK/exp_jobs" >&2 || true
    exit 1
fi
if grep -q "CRASH" "$WORK/exp_jobs_stdout.txt"; then
    echo "FAIL: healthy jobs run reported a crash" >&2
    exit 1
fi
echo "experiment artifacts byte-identical at --jobs 2"

echo "== 2b. chaos: SIGKILLed experiment worker degrades, never hangs"
if PYTHONPATH=src REPRO_CHAOS_KILL_EXPERIMENT=t1 timeout 120 \
    python -m repro.cli.main experiment all --quick --jobs 2 \
    > "$WORK/exp_crash.txt" 2>&1; then
    echo "FAIL: a killed worker should produce a nonzero exit" >&2
    exit 1
fi
grep -q 'status="crashed"' "$WORK/exp_crash.txt"
count="$(grep -c '^t1 ' "$WORK/exp_crash.txt" || true)"
if [ "$count" != "1" ]; then
    echo "FAIL: crashed experiment t1 reported $count times" >&2
    exit 1
fi
echo "worker SIGKILL degraded to a structured crash row"

echo "== 3. telemetry grafting: manifest draw ledgers match"
PYTHONPATH=src python -m repro.cli.main iomodel --targets 0,3,7 \
    --mode write --runs 10 --obs-dir "$WORK/obs_serial" > /dev/null
PYTHONPATH=src python -m repro.cli.main iomodel --targets 0,3,7 \
    --mode write --runs 10 --jobs 3 --obs-dir "$WORK/obs_jobs" > /dev/null
PYTHONPATH=src FABRIC_SMOKE_WORK="$WORK" python - <<'EOF'
import json
import os

work = os.environ["FABRIC_SMOKE_WORK"]
manifests = {}
for tag in ("obs_serial", "obs_jobs"):
    with open(os.path.join(work, tag, "manifest.json"), encoding="utf-8") as fh:
        manifests[tag] = json.load(fh)
serial = manifests["obs_serial"]["seed"]["streams"]
jobs = manifests["obs_jobs"]["seed"]["streams"]
assert serial, "serial manifest recorded no RNG streams"
assert serial == jobs, "worker draws were lost or double-counted"
with open(os.path.join(work, "obs_jobs", "trace.jsonl"), encoding="utf-8") as fh:
    names = [json.loads(line)["name"] for line in fh]
assert names.count("fabric.build_many") == 3, names
print(f"draw ledgers identical ({len(serial)} streams); "
      f"worker spans grafted into the parent trace")
EOF

echo "== 4. record + gate BENCH_fabric.json"
PYTHONPATH=src python scripts/bench_fabric.py "$WORK/fabric.json"
if [ -f BENCH_fabric.json ]; then
    PYTHONPATH=src python scripts/bench_gate.py BENCH_fabric.json \
        "$WORK/fabric.json" --tolerance "$TOLERANCE"
else
    echo "no committed BENCH_fabric.json baseline; recording a first snapshot"
fi
cp "$WORK/fabric.json" BENCH_fabric.json

echo "fabric smoke passed"
