#!/usr/bin/env sh
# Crash-recovery smoke: the journal's resume contract, end to end.
#
# Gates, in order:
#   1. A deterministic torn-tail drill: an iomodel sweep is SIGKILLed
#      halfway through writing journal record 2 (TornWrite), resumed,
#      and the resumed stdout must be byte-identical to an
#      uninterrupted golden run — with the torn tail truncated and the
#      completed shards never recomputed.
#   2. The same drill for a clean crash point (CrashPoint: the record
#      lands, then SIGKILL), resuming `experiment all --quick`.
#   3. The full seeded soak: `repro-numa recover` kills both workloads
#      at randomized (seeded, reproducible) points, resumes, and gates
#      stdout bit-identity and manifest twin-ness.
set -eu

cd "$(dirname "$0")/.."

TMPDIR="${TMPDIR:-/tmp}"
WORK="$TMPDIR/recovery_smoke.$$"
trap 'rm -rf "$WORK"' EXIT
mkdir -p "$WORK"

echo "== 1. torn-write drill: iomodel sweep killed mid-record"
PYTHONPATH=src python -m repro.cli.main --seed 7 iomodel --targets all \
    --mode both --runs 5 --jobs 2 > "$WORK/io_golden.txt"
if PYTHONPATH=src REPRO_JOURNAL_CRASH=2:torn python -m repro.cli.main \
    --seed 7 iomodel --targets all --mode both --runs 5 --jobs 2 \
    --resume "$WORK/io_run" > /dev/null 2>&1; then
    echo "FAIL: the armed crash point never fired" >&2
    exit 1
fi
PYTHONPATH=src python -m repro.cli.main --seed 7 iomodel --targets all \
    --mode both --runs 5 --jobs 2 --resume "$WORK/io_run" \
    > "$WORK/io_resumed.txt" 2> "$WORK/io_notes.txt"
if ! cmp -s "$WORK/io_golden.txt" "$WORK/io_resumed.txt"; then
    echo "FAIL: resumed iomodel stdout differs from the golden run" >&2
    diff "$WORK/io_golden.txt" "$WORK/io_resumed.txt" >&2 || true
    exit 1
fi
grep -q "truncated a torn tail" "$WORK/io_notes.txt"
grep -q "unit(s) already completed" "$WORK/io_notes.txt"
echo "torn tail truncated; resumed sweep byte-identical to golden"

echo "== 2. crash-point drill: experiment batch killed after record 5"
# Journaled runs print the serial format (no wall-time columns — those
# are scheduling noise), so the golden is the serial run.
PYTHONPATH=src python -m repro.cli.main experiment all --quick \
    > "$WORK/exp_golden.txt"
if PYTHONPATH=src REPRO_JOURNAL_CRASH=5 python -m repro.cli.main \
    experiment all --quick --jobs 2 --resume "$WORK/exp_run" \
    > /dev/null 2>&1; then
    echo "FAIL: the armed crash point never fired" >&2
    exit 1
fi
PYTHONPATH=src python -m repro.cli.main experiment all --quick --jobs 2 \
    --resume "$WORK/exp_run" > "$WORK/exp_resumed.txt" 2> "$WORK/exp_notes.txt"
if ! cmp -s "$WORK/exp_golden.txt" "$WORK/exp_resumed.txt"; then
    echo "FAIL: resumed experiment stdout differs from the golden run" >&2
    diff "$WORK/exp_golden.txt" "$WORK/exp_resumed.txt" >&2 || true
    exit 1
fi
grep -q "unit(s) already completed" "$WORK/exp_notes.txt"
echo "completed experiments skipped; resumed batch byte-identical to golden"

echo "== 3. seeded randomized soak: repro-numa recover"
PYTHONPATH=src python -m repro.cli.main --seed 2013 recover \
    --workload both --trials "${RECOVERY_TRIALS:-2}" --jobs 2 --runs 5

echo "recovery smoke passed"
