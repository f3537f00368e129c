"""The placement service: sync dispatch core + asyncio transports.

Layering, outermost in:

* :class:`AsyncPlacementServer` — TCP transport.  A bounded admission
  queue gives **explicit backpressure** (queue full → immediate typed
  ``overloaded`` rejection, never silent buffering); worker tasks apply
  **per-request deadlines** with real cancellation at the await point;
  :meth:`~AsyncPlacementServer.drain` stops admissions, finishes
  queued work, then closes — every in-flight request still gets its
  response.
* :func:`serve_stdio` — the strictly serial stdio transport: read a
  line, answer it, repeat.  Serial order makes the response stream a
  pure function of the request stream (the deterministic-twin property
  the smoke test pins).
* :class:`PlacementService` — the shared synchronous dispatch core:
  decode → validate → breaker gate → backend → encode.  Both
  transports and the chaos soak drive this one object, so robustness
  semantics cannot drift between them.

Breaker semantics (the degraded-mode contract):

* breaker **closed** → the solver is consulted.  A solver failure is
  counted; when the count trips the breaker *and* a last-good snapshot
  covers the request, the reply downgrades to the degraded answer in
  the same turn — otherwise a typed ``solver_error``.
* breaker **open** → the solver is not touched; last-good class-level
  answers are served (marked ``degraded: true``), or ``unavailable``
  when no snapshot covers the request.
* breaker **half-open** → exactly one probe request reaches the solver;
  success closes the breaker, failure re-opens it with a longer window.

``health``, ``ready`` and ``metrics`` never touch the solver and are
answered even while the breaker is open or the server is draining.

Every served line is also folded into the service's **live metrics
plane** (:mod:`repro.obs.live`): one latency observation into its
method's and its tier's streaming histograms, one completed span into
the flight recorder, and — for errors, degraded answers, slow requests
and breaker trips — a flight-recorder event.  All of it is measured on
the service clock (no wall-clock reads of its own), so the
deterministic soak's logical clock keeps same-seed twins
byte-identical, and all of it is plain dict/array updates gated under
5 % of serving throughput by ``scripts/bench_service.py``.
"""

from __future__ import annotations

import asyncio
import json
import sys
import threading
import time
from collections import Counter
from dataclasses import dataclass

from repro.errors import ServiceError
from repro.obs import recorder as _obs
from repro.obs.live import DriftWatch, LivePlane
from repro.service.backend import SOLVER_FAILURES, AdvisoryBackend
from repro.service.breaker import CircuitBreaker
from repro.service.protocol import (
    METHODS,
    decode_request,
    encode_message,
    encode_result_line,
    error_response,
    result_response,
    validate_params,
)
from repro.service.tiers import WireAnswer

__all__ = [
    "ServiceConfig",
    "PlacementService",
    "AsyncPlacementServer",
    "serve_stdio",
]

#: Pre-built per-tier counter names — an f-string per answered request
#: is measurable at tier-1 rates.
_TIER_COUNTERS = {t: f"service.tier.{t}.answers" for t in (1, 2, 3)}

#: Flat-buffer entries (4 per line) that force a drain — a memory
#: bound; every read of the plane (``metrics``, a flight dump) drains
#: too.  The buffer is a flat list of scalars rather than one tuple
#: per line deliberately: floats, strings and ints are invisible to
#: the cyclic GC, so a full buffer adds nothing to gen-0 collection
#: scans — with per-line tuples the GC tax alone was ~1us per request.
_OBS_BATCH = 4 * 4096

#: Error responses have no ``result``; a shared empty dict keeps the
#: hot-path tier lookup branch-free.
_NO_RESULT: dict = {}

#: Where a ``metrics`` reply's histograms object goes: before the
#: result's ``machine`` key, the next key in sorted order.  Every key
#: after it has a fixed schema (an escaped string, ints, a float), so
#: the last match in an encoded reply is always the top-level key.
_AFTER_HISTOGRAMS = ',"machine":'

#: Self-healing counters pre-seeded at zero so `metrics`/`obs scrape`
#: always expose the repair plane, active or not.
_HEALING_COUNTERS = (
    "routing.rerouted_pairs",
    "routing.reroute_skipped_pairs",
    "service.repair.started",
    "service.repair.promoted",
    "service.repair.failed",
)


class _MetricsResult(dict):
    """A ``metrics`` result whose histograms ride along as wire text.

    The dict holds every field but ``histograms``;
    :meth:`PlacementService.handle_line` splices ``histograms_wire``
    (:meth:`~repro.obs.live.LivePlane.histograms_wire`) into the
    encoded envelope, byte-identical to encoding
    :meth:`PlacementService.metrics_payload`, so a reply re-renders
    only the histograms that changed since the last one.
    """

    __slots__ = ("histograms_wire",)


@dataclass(frozen=True)
class ServiceConfig:
    """Tunables for the service transports and robustness machinery."""

    host: str = "127.0.0.1"
    port: int = 8713
    queue_limit: int = 32  # bounded admission queue (backpressure)
    workers: int = 4  # concurrent solver-side workers (TCP transport)
    failure_threshold: int = 3  # consecutive solver failures that trip

    def __post_init__(self) -> None:
        if self.queue_limit < 1:
            raise ServiceError(
                "invalid_params",
                f"queue_limit must be >= 1, got {self.queue_limit}",
            )
        if self.workers < 1:
            raise ServiceError(
                "invalid_params", f"workers must be >= 1, got {self.workers}"
            )


class PlacementService:
    """The synchronous dispatch core shared by every transport.

    Parameters
    ----------
    backend:
        The advisory backend (models, snapshots, warm sessions).
    breaker:
        Circuit breaker guarding the solver path (defaults to a
        3-failure breaker on the wall clock).
    clock:
        Monotonic seconds; injected by the soak for determinism.
    live:
        The live metrics plane (defaults to a fresh always-on
        :class:`~repro.obs.live.LivePlane`); pass a
        :class:`~repro.obs.live.NullLivePlane` to opt out — that is
        how the benchmark measures the plane's overhead.
    drift_threshold:
        Relative deviation of served fast-tier answers from a fresh
        solve past which the drift watch fires (see
        :class:`~repro.obs.live.DriftWatch`).
    slow_request_s:
        Requests slower than this (service clock) leave a ``slow``
        flight-recorder event.
    """

    def __init__(
        self,
        backend: AdvisoryBackend,
        breaker: CircuitBreaker | None = None,
        clock=time.monotonic,
        live: LivePlane | None = None,
        drift_threshold: float = 0.10,
        slow_request_s: float = 0.25,
    ) -> None:
        self.backend = backend
        self.breaker = breaker if breaker is not None else CircuitBreaker()
        self.clock = clock
        # One clock rules the whole stack: staleness tags on tiered
        # answers tick on the service clock, so the soak's logical
        # clock makes same-seed twins byte-identical.
        backend.clock = clock
        self.live = live if live is not None else LivePlane()
        self.drift = (
            DriftWatch(self.live, threshold=drift_threshold)
            if self.live.enabled else None
        )
        self.slow_request_s = slow_request_s
        self.started_at = clock()
        # The backend reports through the same plane/watch (solve-time
        # histogram, drift estimators) — assigned like the clock is.
        backend.live = self.live
        backend.drift = self.drift
        backend._drift_note = (
            None if self.drift is None else self.drift.note_fast
        )
        # Breaker trips land in the flight recorder (and, when a sink
        # is wired — the TCP CLI wires stderr — dump it immediately).
        self.breaker.on_trip = self._on_breaker_trip
        self.flight_dump_sink = None
        # The self-healing repair loop, assigned by
        # RepairSupervisor.attach (None = no supervision, the pre-PR-10
        # behavior: fingerprint mismatches bypass the fast tiers and
        # nothing re-characterizes in the background).
        self.repair = None
        if self.live.enabled:
            for name in _HEALING_COUNTERS:
                self.live.count(name, 0)
        # Per-line observation buffer (None when the plane is off):
        # the hot path appends four scalars per line — flat, so the
        # buffer is invisible to the GC; _drain_obs folds them.
        self._obs_buf: "list | None" = [] if self.live.enabled else None
        # A hand-advanced clock (the soak's LogicalClock) cannot move
        # within a synchronous handle_line call, so per-line elapsed
        # is identically 0.0 — skip the second clock read on the hot
        # path and spend it only on real clocks.
        self._obs_end = None if hasattr(clock, "advance") else clock
        # Typed-error events ride the same drain cycle as flat
        # (t, kind) pairs: the error path is hot under hostile traffic
        # and must not pay a per-line ring insert.
        self._obs_err: list = []
        # The TCP transport runs handle_line on several threads.  Appends
        # and a drain's detach of both buffers hold _obs_lock (never
        # contended on the serial stdio and soak paths); _drain_lock
        # serializes the folds, so lines appended during one land in the
        # next drain, and the plane's views take one fold at a time.
        self._obs_lock = threading.Lock()
        self._drain_lock = threading.Lock()
        self.draining = False
        self.requests = 0
        self.degraded_served = 0
        self.tier_answers: dict[int, int] = {1: 0, 2: 0, 3: 0}
        self.errors: dict[str, int] = {}

    # --- bookkeeping -------------------------------------------------------
    def _on_breaker_trip(self) -> None:
        """The breaker just opened: event, counter, immediate dump."""
        self._drain_obs()  # the dump must show the lines leading here
        live = self.live
        live.count("service.breaker.trips")
        live.flight.note_event(self.clock(), "breaker-trip", {
            "trips": self.breaker.trip_count, "state": self.breaker.state,
        })
        sink = self.flight_dump_sink
        if sink is not None:
            sink(live.flight.dump())

    def _error(self, req_id, exc: ServiceError) -> dict:
        self.errors[exc.kind] = self.errors.get(exc.kind, 0) + 1
        _obs.count(f"service.error.{exc.kind}")
        if self._obs_buf is not None:
            event = (self.clock(), exc.kind)
            with self._obs_lock:
                self._obs_err.extend(event)
        return error_response(req_id, exc)

    def _note_tier(self, result: dict) -> None:
        """Account which tier answered (live and degraded results alike)."""
        tier = result.get("tier")
        if tier in self.tier_answers:
            # The live plane's per-tier counters are not bumped here:
            # the batched drain derives them from the buffered tiers.
            self.tier_answers[tier] += 1
            _obs.count(_TIER_COUNTERS[tier])

    def health_payload(self) -> dict:
        """The ``health`` result: breaker, pools, counters."""
        # Flight occupancy must reflect every line, but health is on
        # the hot soak path — adjust arithmetically instead of paying
        # a small drain per call.
        occ = self.live.flight.occupancy()
        buf = self._obs_buf
        if buf:
            pending = len(buf) // 4
            occ["span_total"] += pending
            occ["spans"] = min(occ["spans"] + pending, occ["span_capacity"])
        errs = len(self._obs_err) // 2
        if errs:
            occ["event_total"] += errs
            occ["events"] = min(occ["events"] + errs, occ["event_capacity"])
        payload = {
            "status": "degraded" if self.breaker.state != CircuitBreaker.CLOSED
            else "ok",
            "uptime_s": round(max(0.0, self.clock() - self.started_at), 6),
            "breaker": self.breaker.state,
            "breaker_trips": self.breaker.trip_count,
            "draining": self.draining,
            "flight_recorder": occ,
            "machine": self.backend.machine.name,
            "requests": self.requests,
            "degraded_served": self.degraded_served,
            "errors": {k: self.errors[k] for k in sorted(self.errors)},
            "session_pool": self.backend.pool.stats(),
            "tiers": {
                "answers": {
                    str(t): self.tier_answers[t]
                    for t in sorted(self.tier_answers)
                },
                "coalesced": self.backend.coalesced,
                "solves": self.backend.solves,
                "max_staleness_s": self.backend.tier_max_staleness_s,
                "store": self.backend.tiers.stats(self.clock()),
            },
        }
        if self.repair is not None:
            payload["repair"] = self.repair.stats()
        return payload

    def ready_payload(self) -> dict:
        """The ``ready`` result: warm (and how warm) and not draining."""
        ready = self.backend.warmed and not self.draining
        return {"ready": ready, "warmed": self.backend.warmed,
                "warm_targets": len(getattr(self.backend, "warm_targets", ())),
                "draining": self.draining}

    def metrics_payload(self, flight: bool = False) -> dict:
        """The ``metrics`` result: the live plane, JSON-able.

        Counters, the per-method / per-tier latency histogram
        summaries, breaker and tier accounting, drift-watch state, and
        flight-recorder occupancy — with ``flight=True``, the full
        flight-recorder dump too.  Everything is read on the service
        clock; the payload is a pure function of the request history,
        which is what lets the soak's twin-diff gate pin it
        byte-identical and ``obs scrape`` hold a golden exposition.
        """
        return self._metrics_result(flight, {})

    def _metrics_result(self, flight: bool, result: dict) -> dict:
        """Fill ``result`` with the ``metrics`` fields.

        A :class:`_MetricsResult` gets the histograms as wire text for
        :meth:`handle_line` to splice; any other dict gets them parsed.
        """
        self._drain_obs()
        live = self.live
        counters = live.counters
        result["machine"] = self.backend.machine.name
        result["uptime_s"] = round(
            max(0.0, self.clock() - self.started_at), 6
        )
        result["requests"] = self.requests
        result["degraded_served"] = self.degraded_served
        result["breaker"] = {
            "state": self.breaker.state,
            "trips": self.breaker.trip_count,
        }
        result["tiers"] = {
            str(t): self.tier_answers[t] for t in sorted(self.tier_answers)
        }
        result["errors"] = {k: self.errors[k] for k in sorted(self.errors)}
        result["counters"] = {
            name: counters[name] for name in sorted(counters)
        }
        histograms = live.histograms_wire()
        if type(result) is _MetricsResult:
            result.histograms_wire = histograms
        else:
            result["histograms"] = json.loads(histograms)
        result["flight_recorder"] = live.flight.occupancy()
        if self.drift is not None:
            result["drift"] = self.drift.stats()
        if flight:
            result["flight"] = live.flight.dump()
        return result

    # --- dispatch ----------------------------------------------------------
    def _execute(self, method: str, params: dict) -> dict:
        if method == "advise":
            return self.backend.advise(**params)
        if method == "plan":
            return self.backend.plan(**params)
        if method == "predict_eq1":
            return self.backend.predict_eq1(**params)
        if method == "classify":
            return self.backend.classify(**params)
        raise ServiceError("method_not_found", f"unknown method {method!r}")

    def _degraded_or_error(self, req_id, method, params, exc: ServiceError):
        answer = self.backend.degraded_answer(method, params)
        if answer is not None:
            self.degraded_served += 1
            _obs.count("service.degraded_served")
            if self.live.enabled:
                self.live.flight.note_event(
                    self.clock(), "degraded", {"method": method}
                )
            self._note_tier(answer)
            return result_response(req_id, answer)
        return self._error(req_id, exc)

    def handle_request(self, req_id, method: str, params, deadline_ms) -> dict:
        """Dispatch one decoded request; always returns a response dict."""
        self.requests += 1
        if _obs.enabled():
            _obs.count("service.requests")
            with _obs.span("service.request", method=method):
                return self._dispatch(req_id, method, params, deadline_ms)
        return self._dispatch(req_id, method, params, deadline_ms)

    def _dispatch(self, req_id, method: str, params, deadline_ms) -> dict:
        try:
            filled = validate_params(method, params)
        except ServiceError as exc:
            return self._error(req_id, exc)
        if method == "health":
            return result_response(req_id, self.health_payload())
        if method == "ready":
            return result_response(req_id, self.ready_payload())
        if method == "metrics":
            result = self._metrics_result(filled["flight"], _MetricsResult())
            return result_response(req_id, result)
        if self.draining:
            return self._error(
                req_id,
                ServiceError(
                    "shutting_down", "server is draining; not accepting work"
                ),
            )
        if deadline_ms is not None and deadline_ms <= 0:
            return self._error(
                req_id,
                ServiceError(
                    "deadline_exceeded",
                    f"deadline of {deadline_ms} ms expired before dispatch",
                    data={"deadline_ms": deadline_ms},
                ),
            )
        if not self.breaker.allow():
            return self._degraded_or_error(
                req_id, method, filled,
                ServiceError(
                    "unavailable",
                    f"circuit breaker is {self.breaker.state} and no "
                    f"last-good characterization covers this request",
                    data={"breaker": self.breaker.state},
                ),
            )
        try:
            result = self._execute(method, filled)
        except ServiceError as exc:
            # Caller mistake (e.g. unknown node): not a solver failure.
            return self._error(req_id, exc)
        except SOLVER_FAILURES as exc:
            self.breaker.record_failure()
            _obs.count("service.solver_failures")
            if self.breaker.state != CircuitBreaker.CLOSED:
                return self._degraded_or_error(
                    req_id, method, filled,
                    ServiceError(
                        "solver_error",
                        f"{type(exc).__name__}: {exc}",
                        data={"breaker": self.breaker.state},
                    ),
                )
            return self._error(
                req_id,
                ServiceError(
                    "solver_error",
                    f"{type(exc).__name__}: {exc}",
                    data={"breaker": self.breaker.state},
                ),
            )
        self.breaker.record_success()
        self._note_tier(result)
        return result_response(req_id, result)

    def _drain_obs(self) -> None:
        """Fold the buffered per-line observations into the live plane.

        The hot path only appends four scalars per answered line —
        ``t, method, wall_s, tier``, flat (see :meth:`handle_line`);
        everything heavier happens here, batched: the buffer is
        grouped by ``(method, tier, wall_s)`` — one C-speed
        :class:`Counter` pass; on the deterministic logical clock a
        whole batch collapses to a handful of groups — then each group
        lands in its method's and tier's latency views
        (:meth:`~repro.obs.live.LivePlane.record_latency`, two bucket
        updates) plus one tier-counter update, and the newest
        ``span_capacity`` lines enter the flight-recorder span ring as
        one ``deque.extend``.  ``slow`` events are also detected here
        (a slow group is rescanned for its lines), so they reach the
        event ring at the next drain rather than mid-request.  Drains
        run when the buffer fills (:data:`_OBS_BATCH`) and before every
        read of the plane (``metrics``, breaker-trip and crash dumps),
        so no reader ever sees a stale view.  A drain detaches both
        buffers under the append lock and folds them under the drain
        lock: concurrent drains fold each line once, in order.
        """
        with self._drain_lock:
            with self._obs_lock:
                buf, err = self._obs_buf, self._obs_err
                if not buf and not err:
                    return
                self._obs_buf, self._obs_err = [], []
            self._fold_obs(buf, err)

    def _fold_obs(self, buf: list, err: list) -> None:
        """Fold one detached pair of buffers (see :meth:`_drain_obs`)."""
        live = self.live
        counters = live.counters
        flight = live.flight
        if err:
            note = flight.note_event
            for i in range(0, len(err), 2):
                note(err[i], "error", {"kind": err[i + 1]})
        if not buf:
            return
        slow_s = self.slow_request_s
        slow_seen = False
        methods = buf[1::4]
        walls = buf[2::4]
        tiers = buf[3::4]
        w0 = walls[0]
        if walls.count(w0) == len(walls):
            # One wall value for the whole batch — the rule on a
            # logical clock, where elapsed is identically zero: group
            # on the cheaper 2-tuple.
            groups = [
                (m, t, w0, n)
                for (m, t), n in Counter(zip(methods, tiers)).items()
            ]
        else:
            groups = [
                (m, t, w, n)
                for (m, t, w), n in Counter(
                    zip(methods, tiers, walls)
                ).items()
            ]
        record_latency = live.record_latency
        for method, tier, wall_s, n in groups:
            if method not in METHODS:
                method = "?"  # bound hist cardinality against hostile names
            record_latency(method, tier, wall_s, n)
            name = _TIER_COUNTERS.get(tier)
            if name is not None:
                counters[name] = counters.get(name, 0) + n
            if wall_s >= slow_s:
                slow_seen = True
        if slow_seen:
            for i in range(0, len(buf), 4):
                wall_s = buf[i + 2]
                if wall_s >= slow_s:
                    method = buf[i + 1]
                    flight.note_event(buf[i], "slow", {
                        "method": method if method in METHODS else "?",
                        "wall_s": round(wall_s, 6),
                    })
        lines = len(buf) // 4
        keep = flight.span_capacity
        if lines > keep:
            flight.span_total += lines - keep  # evicted before arrival
            tail = buf[-4 * keep:]
            flight.note_spans(
                list(zip(tail[0::4], tail[1::4], tail[2::4], tail[3::4]))
            )
        else:
            flight.note_spans(list(zip(buf[0::4], methods, walls, tiers)))
        drift = self.drift
        if drift is not None:
            drift.fold_if_large()  # its per-answer path skips the cap check

    def handle_line(self, line: str) -> str:
        """One wire line in, one wire line out — never a traceback."""
        started = self.clock()
        method = "-"
        try:
            req_id, method, params, deadline_ms = decode_request(line)
        except ServiceError as exc:
            response = self._error(None, exc)
        else:
            try:
                response = self.handle_request(
                    req_id, method, params, deadline_ms
                )
            except ServiceError as exc:
                response = self._error(req_id, exc)
            except Exception as exc:  # the sanitising wall: no tracebacks out
                response = self._error(
                    req_id,
                    ServiceError(
                        "internal_error",
                        f"internal error: {type(exc).__name__}",
                    ),
                )
        result = response.get("result")
        if self._obs_buf is not None:
            # The whole per-line live-plane cost: four flat scalars
            # extended in (t, method, wall_s, tier) under an uncontended
            # lock — plus one clock read on real clocks only;
            # histogram/counter folds, tier counters and slow-event
            # detection all happen batched in _drain_obs.
            end = self._obs_end
            line_obs = (
                started, method,
                end() - started if end is not None else 0.0,
                (result or _NO_RESULT).get("tier", "-"),
            )
            with self._obs_lock:
                buf = self._obs_buf
                buf.extend(line_obs)
                full = len(buf) >= _OBS_BATCH
            if full:
                self._drain_obs()
        if type(result) is WireAnswer:
            # Warm tiers carry their pre-encoded wire form: splice the
            # request id and live staleness instead of re-encoding —
            # byte-identical to encode_message on the same envelope.
            return encode_result_line(
                response["id"], result.wire_pre,
                result["staleness_s"], result.wire_post,
            )
        if type(result) is _MetricsResult:
            # Encode the envelope without the histograms, then splice
            # in their pre-rendered object where its key sorts.
            line = encode_message(response)
            cut = line.rindex(_AFTER_HISTOGRAMS)
            return (
                line[:cut] + ',"histograms":' + result.histograms_wire
                + line[cut:]
            )
        return encode_message(response)


def serve_stdio(service: PlacementService, stdin=None, stdout=None) -> int:
    """Serve line requests serially from ``stdin`` to ``stdout``.

    Blank lines are skipped; EOF ends the loop.  Returns the number of
    requests answered.  Strictly serial, so the response stream is a
    deterministic function of the request stream — and when the service
    runs on a :class:`~repro.service.soak.LogicalClock` (the CLI's
    stdio mode does), the clock ticks once per answered line, so the
    ``staleness_s`` tags are a pure function of the request stream too.
    """
    stdin = stdin if stdin is not None else sys.stdin
    stdout = stdout if stdout is not None else sys.stdout
    advance = getattr(service.clock, "advance", None)
    answered = 0
    for raw in stdin:
        line = raw.strip()
        if not line:
            continue
        stdout.write(service.handle_line(line))
        stdout.flush()
        answered += 1
        if advance is not None:
            advance()
    return answered


class AsyncPlacementServer:
    """The TCP transport: bounded admission, deadlines, graceful drain."""

    def __init__(
        self, service: PlacementService, config: ServiceConfig | None = None
    ) -> None:
        self.service = service
        self.config = config if config is not None else ServiceConfig()
        self._queue: asyncio.Queue | None = None
        self._workers: list[asyncio.Task] = []
        self._server: asyncio.base_events.Server | None = None
        self.rejected = 0

    @property
    def port(self) -> int:
        """The bound port (useful when configured with port 0)."""
        assert self._server is not None, "server not started"
        return self._server.sockets[0].getsockname()[1]

    # --- lifecycle ---------------------------------------------------------
    async def start(self) -> None:
        """Bind the listener and launch the worker pool."""
        self._queue = asyncio.Queue(maxsize=self.config.queue_limit)
        self._workers = [
            asyncio.create_task(self._worker(), name=f"service-worker-{i}")
            for i in range(self.config.workers)
        ]
        self._server = await asyncio.start_server(
            self._on_connection, self.config.host, self.config.port
        )

    async def serve_forever(self) -> None:
        """Start (if needed) and serve until cancelled."""
        if self._server is None:
            await self.start()
        assert self._server is not None
        async with self._server:
            await self._server.serve_forever()

    async def drain(self) -> None:
        """Graceful shutdown: refuse new work, finish queued work, close.

        After ``drain`` returns, every admitted request has been
        answered, every worker has exited, and the listener is closed.
        """
        self.service.draining = True
        if self._server is not None:
            self._server.close()
        if self._queue is not None:
            await self._queue.join()
        for worker in self._workers:
            worker.cancel()
        if self._workers:
            await asyncio.gather(*self._workers, return_exceptions=True)
        self._workers = []
        if self._server is not None:
            await self._server.wait_closed()

    # --- data path ---------------------------------------------------------
    async def _on_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        lock = asyncio.Lock()  # one response write at a time per client
        try:
            while True:
                raw = await reader.readline()
                if not raw:
                    break
                line = raw.decode("utf-8", errors="replace").strip()
                if not line:
                    continue
                await self._admit(line, writer, lock)
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _admit(self, line, writer, lock) -> None:
        """Bounded admission: reject instantly when the queue is full."""
        assert self._queue is not None
        if self.service.draining:
            await self._reply(
                writer, lock,
                self._typed_line(line, "shutting_down",
                                 "server is draining; not accepting work"),
            )
            return
        item = (line, writer, lock, self.service.clock())
        try:
            self._queue.put_nowait(item)
        except asyncio.QueueFull:
            self.rejected += 1
            _obs.count("service.rejected")
            await self._reply(
                writer, lock,
                self._typed_line(
                    line, "overloaded",
                    f"admission queue full "
                    f"({self.config.queue_limit} requests); retry later",
                ),
            )

    def _typed_line(self, line: str, kind: str, message: str) -> str:
        """A typed error line that still echoes the request id if parseable."""
        try:
            req_id, _method, _params, _deadline = decode_request(line)
        except ServiceError:
            req_id = None
        return encode_message(
            self.service._error(req_id, ServiceError(kind, message))
        )

    async def _reply(self, writer, lock, payload: str) -> None:
        async with lock:
            try:
                writer.write(payload.encode("utf-8"))
                await writer.drain()
            except (ConnectionError, OSError):
                pass  # client went away; nothing to tell it

    async def _worker(self) -> None:
        assert self._queue is not None
        while True:
            line, writer, lock, admitted_at = await self._queue.get()
            try:
                service = self.service
                if service.live.enabled:
                    service.live.record(
                        "service.queue_wait",
                        service.clock() - admitted_at,
                    )
                try:
                    payload = await self._answer(line, admitted_at)
                except asyncio.CancelledError:
                    raise
                except Exception as exc:  # keep the worker alive, always
                    payload = self._typed_line(
                        line, "internal_error",
                        f"internal error: {type(exc).__name__}",
                    )
                await self._reply(writer, lock, payload)
            finally:
                self._queue.task_done()

    async def _answer(self, line: str, admitted_at: float) -> str:
        """Execute one request off-loop, enforcing its deadline."""
        try:
            _req_id, _method, params, deadline_ms = decode_request(line)
        except ServiceError:
            deadline_ms = None
        if deadline_ms is None:
            return await asyncio.to_thread(self.service.handle_line, line)
        waited_s = self.service.clock() - admitted_at
        remaining_s = deadline_ms / 1000.0 - waited_s
        if remaining_s <= 0:
            return self._typed_line(
                line, "deadline_exceeded",
                f"deadline of {deadline_ms} ms expired while queued",
            )
        try:
            return await asyncio.wait_for(
                asyncio.to_thread(self.service.handle_line, line),
                timeout=remaining_s,
            )
        except asyncio.TimeoutError:
            _obs.count("service.deadline_cancelled")
            return self._typed_line(
                line, "deadline_exceeded",
                f"deadline of {deadline_ms} ms expired mid-solve; "
                f"request cancelled",
            )
