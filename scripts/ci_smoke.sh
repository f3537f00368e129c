#!/usr/bin/env sh
# The one-command CI gate: run every smoke suite and print a pass/fail
# summary table.  Each smoke runs to completion even if an earlier one
# failed, so one run reports the full picture; the script exits nonzero
# if any suite failed.
#
# Usage:
#   scripts/ci_smoke.sh          # everything (bench included)
#   scripts/ci_smoke.sh --fast   # skip the slow suites (bench,
#                                # recovery) and trim recovery trials
#
# Per-suite logs land in $TMPDIR/ci_smoke.<pid>/<name>.log and the
# failing logs' tails are echoed after the table.
set -u

cd "$(dirname "$0")/.."

FAST=0
for arg in "$@"; do
    case "$arg" in
        --fast) FAST=1 ;;
        *)
            echo "usage: scripts/ci_smoke.sh [--fast]" >&2
            exit 2
            ;;
    esac
done

TMPDIR="${TMPDIR:-/tmp}"
WORK="$TMPDIR/ci_smoke.$$"
mkdir -p "$WORK"
trap 'rm -rf "$WORK"' EXIT

SUITES="chaos obs fabric service perfbench recovery bench"
if [ "$FAST" = "1" ]; then
    SUITES="chaos obs fabric service perfbench"
    # Keep any suite that honours trial knobs cheap if re-enabled.
    RECOVERY_TRIALS=1
    export RECOVERY_TRIALS
fi

RESULTS="$WORK/results.txt"
: > "$RESULTS"
FAILED=0

for name in $SUITES; do
    script="scripts/${name}_smoke.sh"
    log="$WORK/$name.log"
    echo "== running $script"
    start=$(date +%s)
    if sh "$script" > "$log" 2>&1; then
        status=PASS
    else
        status=FAIL
        FAILED=1
    fi
    end=$(date +%s)
    printf '%s %s %s\n' "$name" "$status" "$((end - start))" >> "$RESULTS"
    echo "   $status (${name}, $((end - start)) s)"
done

echo
echo "== ci smoke summary"
printf '%-10s %-6s %8s\n' "suite" "status" "seconds"
printf '%-10s %-6s %8s\n' "-----" "------" "-------"
while read -r name status seconds; do
    printf '%-10s %-6s %8s\n' "$name" "$status" "$seconds"
done < "$RESULTS"
if [ "$FAST" = "1" ]; then
    echo "(--fast: bench and recovery suites skipped)"
fi

if [ "$FAILED" = "1" ]; then
    echo
    while read -r name status seconds; do
        if [ "$status" = "FAIL" ]; then
            echo "== tail of failing suite: $name"
            tail -30 "$WORK/$name.log"
        fi
    done < "$RESULTS"
    echo
    echo "ci smoke FAILED"
    exit 1
fi

echo
echo "ci smoke passed"
