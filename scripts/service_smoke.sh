#!/usr/bin/env sh
# Service smoke: replay the scripted soak trace twice — once healthy,
# once with the fault plan firing mid-stream — and prove the
# deterministic-twin contract: same seed -> byte-identical response
# streams, every request answered exactly once, breaker tripped and
# recovered.  Then drive the stdio transport with a scripted session
# and check it, too, answers identically across runs.  Finally the
# tier drill: a cold question is answered by a full solve (tier 3), its
# repeat by the analytic fast tier (tier 1) within the documented error
# bound, the class model serves tier 2, and with the breaker forced
# open the service degrades to last-good tier-2 answers instead of
# failing.
set -eu

cd "$(dirname "$0")/.."

TMPDIR="${TMPDIR:-/tmp}"
A="$TMPDIR/service_smoke_a.$$"
B="$TMPDIR/service_smoke_b.$$"
trap 'rm -f "$A" "$B"' EXIT

echo "== chaos soak: fault plan firing mid-stream"
PYTHONPATH=src python -m repro.cli.main --seed 7 serve --soak \
    --requests 120 --runs 3

echo
echo "== determinism: faulted soak twice with seed 7 (full JSON report)"
PYTHONPATH=src python -m repro.cli.main --seed 7 serve --soak \
    --requests 120 --runs 3 --json > "$A"
PYTHONPATH=src python -m repro.cli.main --seed 7 serve --soak \
    --requests 120 --runs 3 --json > "$B"
if ! cmp -s "$A" "$B"; then
    echo "FAIL: faulted soak report is not bit-identical across runs" >&2
    diff "$A" "$B" >&2 || true
    exit 1
fi
echo "OK: faulted response stream bit-identical across runs"

echo
echo "== determinism: healthy soak twice with seed 7"
PYTHONPATH=src python -m repro.cli.main --seed 7 serve --soak \
    --requests 120 --runs 3 --no-fault --json > "$A"
PYTHONPATH=src python -m repro.cli.main --seed 7 serve --soak \
    --requests 120 --runs 3 --no-fault --json > "$B"
if ! cmp -s "$A" "$B"; then
    echo "FAIL: healthy soak report is not bit-identical across runs" >&2
    diff "$A" "$B" >&2 || true
    exit 1
fi
echo "OK: healthy response stream bit-identical across runs"

echo
echo "== stdio transport: scripted session twice"
TRACE='{"jsonrpc":"2.0","id":1,"method":"ready"}
{"jsonrpc":"2.0","id":2,"method":"classify","params":{"target":7}}
{"jsonrpc":"2.0","id":3,"method":"advise","params":{"target":7,"tasks":4,"avoid_irq_node":true}}
{"jsonrpc":"2.0","id":4,"method":"predict_eq1","params":{"target":7,"streams":[0,1,6]}}
{"jsonrpc":"2.0","id":5,"method":"advise","params":{"target":99,"tasks":1}}
not even json
{"jsonrpc":"2.0","id":7,"method":"classify","params":{"target":7,"deadline_ms":0}}'
printf '%s\n' "$TRACE" | PYTHONPATH=src python -m repro.cli.main --seed 7 \
    serve --stdio --runs 3 > "$A"
printf '%s\n' "$TRACE" | PYTHONPATH=src python -m repro.cli.main --seed 7 \
    serve --stdio --runs 3 > "$B"
if ! cmp -s "$A" "$B"; then
    echo "FAIL: stdio response stream is not bit-identical across runs" >&2
    diff "$A" "$B" >&2 || true
    exit 1
fi
RESPONSES=$(wc -l < "$A" | tr -d ' ')
if [ "$RESPONSES" != "7" ]; then
    echo "FAIL: expected 7 responses (one per request), got $RESPONSES" >&2
    exit 1
fi
echo "OK: stdio session answered 7/7 requests, bit-identical across runs"

echo
echo "== tier drill: cold -> 3, repeat -> 1, class -> 2, breaker open -> degraded 2"
PYTHONPATH=src python - <<'EOF'
import json

from repro.rng import RngRegistry
from repro.service import AdvisoryBackend, PlacementService
from repro.service.soak import LogicalClock
from repro.topology.builders import reference_host

backend = AdvisoryBackend(reference_host(), registry=RngRegistry(), runs=3)
service = PlacementService(backend, clock=LogicalClock())


def call(method, params):
    line = json.dumps({"jsonrpc": "2.0", "id": 1,
                       "method": method, "params": params})
    response = json.loads(service.handle_line(line))
    assert "result" in response, response
    return response["result"]


cold = call("predict_eq1", {"target": 7, "mode": "write", "streams": [0, 1]})
assert cold["tier"] == 3 and cold["staleness_s"] == 0.0, cold
warm = call("predict_eq1", {"target": 7, "mode": "write", "streams": [0, 1]})
assert warm["tier"] == 1, warm
drift = abs(warm["predicted_gbps"] - cold["predicted_gbps"]) / cold["predicted_gbps"]
assert drift <= 0.05, f"analytic tier drifted {drift:.4f} from the solve"
assert warm["fit_rel_err_bound"] <= 0.05, warm
classed = call("classify", {"target": 7, "mode": "write"})
assert classed["tier"] == 2, classed
# Force the breaker open: the solver is untouchable, yet covered
# questions still get last-good class-model answers, honestly marked.
for _ in range(service.breaker.failure_threshold):
    service.breaker.record_failure()
assert not service.breaker.allow()
degraded = call("advise", {"target": 7, "mode": "write", "tasks": 4})
assert degraded["tier"] == 2 and degraded["degraded"] is True, degraded
assert degraded["source"] == "last-good-characterization", degraded
print("OK: tier drill — cold solve 3, analytic repeat 1 "
      f"(drift {drift:.4f} <= 0.05), class model 2, degraded tier 2")
EOF

echo
echo "== faulted soak serves every tier and degrades, never drops"
PYTHONPATH=src python -m repro.cli.main --seed 7 serve --soak \
    --requests 120 --runs 3 --json > "$A"
PYTHONPATH=src python - "$A" <<'EOF'
import json
import sys

report = json.load(open(sys.argv[1]))
tiers = {int(k): v for k, v in report["tiers"].items()}
assert report["requests"] == 120, report["requests"]
assert tiers.get(1, 0) > 0, f"no analytic answers: {tiers}"
assert tiers.get(2, 0) > 0, f"no class-model answers: {tiers}"
assert tiers.get(3, 0) > 0, f"no solves: {tiers}"
assert report["degraded"] > 0, "fault plan never forced a degraded answer"

# The live plane's counters must agree exactly with the report's own
# accounting (they ride the same dispatch path on the same clock).
counters = report["counters"]
for tier, answered in tiers.items():
    key = f"service.tier.{tier}.answers"
    assert counters.get(key, 0) == answered, (key, counters, tiers)
trips = sum(1 for _, s in report["breaker_transitions"] if s == "open")
assert counters.get("service.breaker.trips", 0) == trips, counters
# Mid-fault solves fail outright (LinkFail partitions the fabric), so
# no faulted characterization ever lands: drift events stay at zero —
# deterministically — in the soak.  The drift drill below uses a
# degraded (still solvable) fabric to prove the detector does fire.
assert report["drift"] is not None and report["drift"]["events"] == 0, (
    report["drift"]
)
assert counters.get("service.drift.events", 0) == 0, counters
print(f"OK: tiers {tiers}, degraded {report['degraded']}, "
      f"ok {report['ok']} of {report['requests']}; live counters agree "
      f"(trips {trips}, drift events 0)")
EOF

echo
echo "== drift drill: derated fabric past threshold fires the drift watch"
PYTHONPATH=src python - <<'EOF'
import json

from repro.faults.events import LinkDegrade
from repro.faults.plan import FaultedMachine
from repro.rng import RngRegistry
from repro.service import AdvisoryBackend, PlacementService
from repro.service.soak import LogicalClock
from repro.topology.builders import reference_host

host = reference_host()
backend = AdvisoryBackend(host, registry=RngRegistry(), runs=3)
service = PlacementService(backend, clock=LogicalClock())
backend.warm((7,))  # the reference characterization


def call(method, params):
    line = json.dumps({"jsonrpc": "2.0", "id": 1,
                       "method": method, "params": params})
    response = json.loads(service.handle_line(line))
    assert "result" in response, response
    return response["result"]


for _ in range(4):  # fast-tier answers served off the healthy model
    call("classify", {"target": 7, "mode": "write"})
assert service.drift.events == 0

# Derate every cable touching the device node (both directions) to
# 40%: solves still succeed, but the class bandwidths collapse far
# past the 10% drift threshold.
cables = sorted({tuple(sorted(ends)) for ends in host.links if 7 in ends})
faults = [LinkDegrade(src, dst, 0.4)
          for a, b in cables for src, dst in ((a, b), (b, a))]
backend.set_machine(FaultedMachine(host, faults))
faulted = call("classify", {"target": 7, "mode": "write"})
assert faulted["tier"] == 3, faulted  # the derated solve itself lands

stats = service.drift.stats()
assert stats["events"] == 1, stats
event = stats["last"]
assert event["target"] == 7 and event["mode"] == "write", event
assert event["deviation"] > 0.10, event
assert event["regime"] in ("bandwidth-bound", "contention-bound",
                           "latency-bound", "reclassified"), event
assert event["served_answers"] == 4, event
assert service.live.counters["service.drift.events"] == 1
flight = [e for e in service.live.flight.events() if e["kind"] == "drift"]
assert len(flight) == 1 and flight[0]["tags"] == event, flight

# Restore the healthy fabric: the cached healthy model is refit into
# the tier store on the first answer (tier 3, no new solve), and the
# fast tier serves again from the next one.
solves = backend.solves
backend.restore_machine()
restored = call("classify", {"target": 7, "mode": "write"})
assert restored["tier"] == 3, restored
resumed = call("classify", {"target": 7, "mode": "write"})
assert resumed["tier"] == 2 and resumed["source"] == "class-model", resumed
assert backend.solves == solves, (solves, backend.solves)
print(f"OK: drift drill — deviation {event['deviation']:.3f} > 0.10, "
      f"regime {event['regime']}, {event['served_answers']} answers "
      "exposed, flight-recorder event present; tier 2 resumes after "
      "restore without a re-solve")
EOF

echo
echo "== convergence soak: derate -> drift -> quarantine -> repair -> promote"
PYTHONPATH=src python -m repro.cli.main --seed 7 serve --soak --converge \
    --requests 120 --runs 3 --json > "$A"
PYTHONPATH=src python -m repro.cli.main --seed 7 serve --soak --converge \
    --requests 120 --runs 3 --json > "$B"
if ! cmp -s "$A" "$B"; then
    echo "FAIL: convergence soak report is not bit-identical across runs" >&2
    diff "$A" "$B" >&2 || true
    exit 1
fi
PYTHONPATH=src python - "$A" <<'EOF'
import json
import sys

report = json.load(open(sys.argv[1]))
assert report["answered"] == report["requests"], report
assert report["converged"] is True, report
assert report["converged_during_fault"] is True, report
assert report["reconverged_after_clear"] is True, report
assert report["unlabelled_stale"] == 0, report
assert report["final_quarantined"] == 0, report
repair = report["repair"]
assert repair["jobs"] == 0 and repair["failed"] == 0, repair
assert repair["promoted"] >= 2, repair  # fault window + clearance
counters = report["counters"]
assert counters["service.repair.started"] == repair["started"], counters
assert counters["service.repair.promoted"] == repair["promoted"], counters
assert counters["service.repair.failed"] == 0, counters
assert counters["routing.rerouted_pairs"] > 0, counters
assert report["drift"]["events"] >= 1, report["drift"]
phases = [e["tags"].get("phase") for e in report["flight_events"]
          if e["kind"] == "repair"]
for phase in ("quarantine", "start", "promote"):
    assert phase in phases, phases
print(f"OK: convergence soak — {repair['promoted']} promotions "
      f"({repair['started']} repair solves, 0 failed), "
      f"{report['drift']['events']} drift events, "
      f"0 unlabelled stale answers, byte-identical twins")
EOF
