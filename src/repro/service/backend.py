"""The advisory backend: tiers, warm sessions, and coalesced solves.

The backend owns everything behind the wire protocol:

* a **warm session pool** — placement queries are solver-cache-bound,
  so the pool pins one :class:`~repro.solver.session.SolverSession` per
  machine fingerprint (on top of the process-wide registry) and accounts
  hits/misses for ``health``;
* a **model cache** — Algorithm 1 characterizations keyed by
  ``(fingerprint, target, mode)``; a faulted machine view has a new
  fingerprint, so fault injection naturally invalidates models without
  touching the healthy entries;
* the **tier store** (:class:`~repro.service.tiers.TierStore`) — every
  successful characterization refreshes an always-warm cache holding
  the class snapshot, the exact per-node values, and the tier-1
  analytic fit.  Live answers come from the fastest tier that can
  serve them honestly:

  - **tier 1** — ``predict_eq1`` from the analytic per-class fit
    (pure arithmetic, microseconds);
  - **tier 2** — ``advise``/``classify`` from the memoized snapshot
    (bit-identical to the solver path, no solver touched) and ``plan``
    from the per-weight memo;
  - **tier 3** — a full Algorithm 1 solve, which refreshes tiers 1–2.

  When the circuit breaker is open the *same* store serves last-good
  answers (fingerprint- and staleness-blind, marked ``degraded:
  true``).  That is the Dynamo-style contract: always answerable,
  possibly degraded — and every answer carries ``{"tier", "staleness_s"}``
  so callers can see which contract they got.

* **single-flight coalescing** — identical in-flight
  ``(fingerprint, target, mode)`` solves collapse onto one pending
  build: one leader solves, every waiter blocks on the same flight and
  receives the same model (or re-raises the same typed failure).
  ``coalesced`` counts the waiters (obs: ``service.coalesced``).

Backend calls raise :class:`~repro.errors.ServiceError` for caller
mistakes (unknown node, bad stream list) and let solver-layer errors
(:data:`SOLVER_FAILURES`) propagate for the breaker to count.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from dataclasses import dataclass

from repro.analysis.planner import DeviceAttachmentPlanner
from repro.core.iomodel import IOModelBuilder
from repro.core.model import IOPerformanceModel
from repro.errors import (
    FaultError,
    ModelError,
    RoutingError,
    ServiceError,
    SimulationError,
    TopologyError,
)
from repro.obs import recorder as _obs
from repro.obs.live import NullLivePlane
from repro.rng import RngRegistry
from repro.service.protocol import encode_wire
from repro.service.tiers import (
    TIER_CLASS,
    TIER_SOLVE,
    TIER_ANALYTIC,
    TierEntry,
    TierStore,
    WireAnswer,
    stamp_tier,
    wire_gbps,
)
from repro.solver.capacity import machine_fingerprint
from repro.solver.session import SolverSession, get_session
from repro.topology.machine import Machine

__all__ = [
    "SOLVER_FAILURES",
    "SessionPool",
    "ClassSnapshot",
    "AdvisoryBackend",
]

#: Exception classes the circuit breaker counts as solver failures.
#: (:class:`~repro.errors.RouteLostError` is a :class:`FaultError`.)
SOLVER_FAILURES = (RoutingError, TopologyError, SimulationError, FaultError)

#: The shared no-op plane a standalone backend writes into; the serving
#: transport overwrites :attr:`AdvisoryBackend.live` (and ``drift``)
#: with its own, exactly like it overwrites the clock.
_NULL_PLANE = NullLivePlane()

#: Labels a copied tier-entry payload carries off the live tier-1/2
#: path: a tier-3 answer, and the breaker's and the repair loop's
#: last-good answers.
_SOLVED = {"source": "characterization"}
_LAST_GOOD = {"degraded": True, "source": "last-good-characterization"}
_REPAIRING = {
    "degraded": True, "source": "last-good-repairing", "repairing": True,
}


def _relabel(
    payload: dict, labels: dict, tier: int, staleness_s: float
) -> dict:
    """A plain-dict copy of a tier-entry payload under ``labels``.

    The labels change the bytes, so the copy drops the entry's
    pre-encoded wire form and the answer takes the full-encode path.
    """
    payload = dict(payload)
    payload.update(labels)
    return stamp_tier(payload, tier, staleness_s)


class SessionPool:
    """Warm solver sessions, pinned per machine fingerprint (LRU).

    A thin accounting layer over the process-wide session registry:
    ``acquire`` returns the shared session for a machine's topology and
    holds a strong reference so the global LRU cannot evict a session
    the service is amortising caches through.
    """

    def __init__(self, maxsize: int = 8) -> None:
        if maxsize < 1:
            raise ValueError(f"session pool maxsize must be >= 1, got {maxsize}")
        self.maxsize = maxsize
        self.hits = 0
        self.misses = 0
        self._sessions: OrderedDict[str, SolverSession] = OrderedDict()

    def acquire(self, machine: Machine) -> SolverSession:
        """The warm session for ``machine``'s topology."""
        fingerprint = machine_fingerprint(machine)
        session = self._sessions.get(fingerprint)
        if session is None:
            self.misses += 1
            session = get_session(machine)
            self._sessions[fingerprint] = session
            while len(self._sessions) > self.maxsize:
                self._sessions.popitem(last=False)
        else:
            self.hits += 1
            self._sessions.move_to_end(fingerprint)
        return session

    def __len__(self) -> int:
        return len(self._sessions)

    def stats(self) -> dict:
        """JSON-able pool state for ``health`` responses."""
        return {"size": len(self), "hits": self.hits, "misses": self.misses}


@dataclass(frozen=True)
class ClassSnapshot:
    """Class-level summary of one characterization — the tier-2 answer.

    ``classes`` rows are ``(rank, node_ids, avg, lo, hi)`` in rank
    order: everything a class-level placement, classification or Eq. 1
    prediction needs, nothing that requires a live solver.
    """

    machine_name: str
    target_node: int
    mode: str
    classes: tuple[tuple[int, tuple[int, ...], float, float, float], ...]

    @classmethod
    def from_model(cls, model: IOPerformanceModel) -> "ClassSnapshot":
        """Snapshot the class structure of a freshly built model."""
        return cls(
            machine_name=model.machine_name,
            target_node=model.target_node,
            mode=model.mode,
            classes=tuple(
                (c.rank, tuple(c.node_ids), c.avg, c.lo, c.hi)
                for c in model.classes
            ),
        )

    def rank_of(self, node: int) -> "int | None":
        """The class rank holding ``node``, or ``None`` if unknown."""
        for rank, node_ids, _avg, _lo, _hi in self.classes:
            if node in node_ids:
                return rank
        return None

    def class_avgs(self) -> dict[int, float]:
        """``rank -> avg Gbps`` for every class."""
        return {rank: avg for rank, _nodes, avg, _lo, _hi in self.classes}

    def equivalent_classes(self, tolerance: float) -> tuple[int, ...]:
        """Ranks within ``tolerance`` (relative) of the best class."""
        avgs = self.class_avgs()
        best = max(avgs.values())
        return tuple(
            rank for rank, avg in sorted(avgs.items())
            if (best - avg) / best <= tolerance
        )

    def to_dict(self) -> dict:
        """JSON-able form (the ``classify`` payload body)."""
        return {
            "machine": self.machine_name,
            "target": self.target_node,
            "mode": self.mode,
            "classes": [
                {
                    "rank": rank,
                    "node_ids": list(node_ids),
                    "avg_gbps": wire_gbps(avg),
                    "lo_gbps": wire_gbps(lo),
                    "hi_gbps": wire_gbps(hi),
                }
                for rank, node_ids, avg, lo, hi in self.classes
            ],
        }


class _Flight:
    """One in-flight solve: a leader builds, waiters share the outcome."""

    __slots__ = ("event", "model", "error")

    def __init__(self) -> None:
        self.event = threading.Event()
        self.model: IOPerformanceModel | None = None
        self.error: BaseException | None = None


class AdvisoryBackend:
    """Placement answers over one host, tiered, fault-swappable, degradable.

    Parameters
    ----------
    machine:
        The healthy host the service advises for.
    registry:
        Seeded RNG registry; characterization streams restart per name,
        so rebuilding a model is bit-deterministic.
    runs:
        Algorithm 1 copies per probe (trade accuracy for latency).
    pool:
        Warm session pool (defaults to a fresh one).
    model_cache:
        LRU bound on cached characterizations.
    clock:
        Monotonic seconds for staleness accounting.  The service
        transport overwrites this with its own clock, so the chaos
        soak's logical clock flows through with no extra plumbing.
    tier_max_staleness_s:
        Entries older than this stop serving tiers 1–2 and the next
        request re-characterizes (tier 3).  ``None`` (the default)
        means entries never go stale — only a fingerprint change
        (fault injection) bypasses the fast tiers.
    """

    def __init__(
        self,
        machine: Machine,
        registry: RngRegistry | None = None,
        runs: int = 25,
        pool: SessionPool | None = None,
        model_cache: int = 32,
        clock=time.monotonic,
        tier_max_staleness_s: "float | None" = None,
    ) -> None:
        self.healthy_machine = machine
        self.machine = machine
        self._node_set = frozenset(machine.node_ids)
        self.registry = registry if registry is not None else RngRegistry()
        self.runs = runs
        self.pool = pool if pool is not None else SessionPool()
        self.clock = clock
        self.tier_max_staleness_s = tier_max_staleness_s
        self._model_cache_size = model_cache
        self._models: OrderedDict[tuple[str, int, str], IOPerformanceModel]
        self._models = OrderedDict()
        self.tiers = TierStore()
        # fingerprint -> (per-node AttachmentScores, refreshed_at): the
        # weight-independent base every plan answer is arithmetic over.
        self._plan_base_memo: OrderedDict[str, tuple[tuple, float]]
        self._plan_base_memo = OrderedDict()
        self._plan_base_size = 8
        self._last_good_plans: OrderedDict[float, tuple[dict, float]]
        self._last_good_plans = OrderedDict()
        self._last_good_plans_size = 64
        self._flight_lock = threading.Lock()
        self._inflight: dict[tuple[str, int, str], _Flight] = {}
        self.solves = 0
        self.coalesced = 0
        self.warmed = False
        self.warm_targets: tuple[int, ...] = ()
        # Live metrics plane + drift watch: no-op/absent until a
        # PlacementService adopts this backend and assigns its own.
        self.live = _NULL_PLANE
        self.drift = None
        # Pre-bound DriftWatch.note_fast (None while no watch is
        # attached): the fast-tier serving paths call this once per
        # answer with one (target, mode, model_mean) triple, so the
        # attribute walk and the Python call frame are paid at attach
        # time, not per answer.
        self._drift_note = None
        # Self-healing hooks, assigned by a RepairSupervisor when one
        # adopts this backend (None otherwise): ``on_machine_change``
        # fires after every machine swap with the new view;
        # ``on_repair_drift`` fires with the event dict whenever a
        # landed solve trips the drift watch.
        self.on_machine_change = None
        self.on_repair_drift = None

    # --- machine lifecycle -------------------------------------------------
    def set_machine(self, machine: Machine) -> None:
        """Swap the live machine view (fault injection / recovery).

        Model and session caches are fingerprint-keyed so nothing is
        dropped; tier-store entries survive by design — they are the
        degraded answers served while the new view is unsolvable.
        """
        self.machine = machine
        if self.on_machine_change is not None:
            self.on_machine_change(machine)

    def restore_machine(self) -> None:
        """Swap back to the healthy host."""
        self.machine = self.healthy_machine
        if self.on_machine_change is not None:
            self.on_machine_change(self.healthy_machine)

    # --- characterization --------------------------------------------------
    def _check_node(self, node: int, what: str) -> None:
        if node not in self._node_set:
            raise ServiceError(
                "invalid_params",
                f"{what} {node} is not a node of "
                f"{self.healthy_machine.name!r} "
                f"(nodes {list(self.healthy_machine.node_ids)})",
                data={"param": what},
            )

    def _solve_model(self, target: int, mode: str) -> IOPerformanceModel:
        """One genuine tier-3 solve."""
        self.solves += 1
        session = self.pool.acquire(self.machine)  # warm the capacity cache
        started = self.clock()
        builder = IOModelBuilder(
            self.machine, registry=self.registry, runs=self.runs
        )
        builder.session = session  # reuse the pinned warm session
        model = builder.build(target, mode)
        # Service-clock solve time: 0.0 on the soak's logical clock, so
        # the histogram stays a pure function of the request stream.
        self.live.record("service.solve", self.clock() - started)
        return model

    def _refresh_tiers(
        self, model: IOPerformanceModel, fingerprint: str
    ) -> TierEntry:
        """Fold a completed solve into the tier store (tiers 1–2 warm).

        Also the drift watch's observation point: every landed solve is
        compared against what the fast tiers served since the last one.
        A landed solve under the live fingerprint *is* tier-3 truth, so
        it lifts any quarantine on its key; a fired drift event is
        handed to the repair supervisor (when one is attached) so the
        sibling keys it implicates get re-characterized too.
        """
        snapshot = ClassSnapshot.from_model(model)
        entry = self.tiers.refresh(
            snapshot, model, self.machine, fingerprint, self.clock(),
        )
        self.tiers.promote(model.target_node, model.mode)
        if self.drift is not None:
            event = self.drift.note_solve(
                model.target_node, model.mode,
                snapshot.class_avgs(), self.clock(),
            )
            if event is not None and self.on_repair_drift is not None:
                self.on_repair_drift(event)
        return entry

    def _stale(self, target: int, mode: str, fingerprint: str) -> bool:
        if self.tier_max_staleness_s is None:
            return False
        entry = self.tiers.entries.get((target, mode))
        return (
            entry is not None
            and entry.fingerprint == fingerprint
            and entry.staleness(self.clock()) > self.tier_max_staleness_s
        )

    def model(self, target: int, mode: str) -> IOPerformanceModel:
        """The (cached) Algorithm 1 model for ``(target, mode)``.

        Single-flight: identical concurrent builds collapse onto one
        pending solve — the leader builds and refreshes tiers 1–2,
        waiters share the model (or re-raise the same typed failure,
        which the breaker counts per request, honestly).  A stale tier
        entry evicts the cached model first, so ``tier_max_staleness_s``
        forces a genuine re-characterization.
        """
        self._check_node(target, "target")
        fingerprint = machine_fingerprint(self.machine)
        key = (fingerprint, target, mode)
        with self._flight_lock:
            model = self._models.get(key)
            if model is not None:
                if self._stale(target, mode, fingerprint):
                    del self._models[key]
                    self.tiers.stale_evictions += 1
                else:
                    self._models.move_to_end(key)
                    return model
            flight = self._inflight.get(key)
            leader = flight is None
            if leader:
                flight = _Flight()
                self._inflight[key] = flight
        if not leader:
            self.coalesced += 1
            _obs.count("service.coalesced")
            flight.event.wait()
            if flight.error is not None:
                raise flight.error
            assert flight.model is not None
            return flight.model
        try:
            model = self._solve_model(target, mode)
        except BaseException as exc:
            flight.error = exc
            raise
        else:
            flight.model = model
            with self._flight_lock:
                self._models[key] = model
                while len(self._models) > self._model_cache_size:
                    self._models.popitem(last=False)
            self._refresh_tiers(model, fingerprint)
            return model
        finally:
            with self._flight_lock:
                self._inflight.pop(key, None)
            flight.event.set()

    def recharacterize(self, target: int, mode: str) -> TierEntry:
        """The tier-3 path: model + tier refresh, returns the entry.

        Same single-flight solve as :meth:`model`, with one extra
        guarantee: the resulting :class:`~repro.service.tiers.TierEntry`
        is refreshed under the *live* fingerprint even when the model
        came from the cache — after a fault clears, the healthy model
        is usually still cached, so the answer is a re-fit and a
        promotion, not a genuine re-solve.  Tier-3 request answers and
        the repair loop both go through here.
        """
        model = self.model(target, mode)
        fingerprint = machine_fingerprint(self.machine)
        entry = self.tiers.entries.get((target, mode))
        if entry is None or entry.fingerprint != fingerprint:
            entry = self._refresh_tiers(model, fingerprint)
        return entry

    def warm(self, targets: "tuple[int, ...] | None" = None) -> None:
        """Pre-build both models for ``targets`` (device nodes by default)."""
        if targets is None:
            device_nodes = tuple(
                sorted({d.node_id for d in self.healthy_machine.devices.values()})
            )
            targets = device_nodes or (self.healthy_machine.node_ids[-1],)
        for target in targets:
            for mode in ("write", "read"):
                self.model(target, mode)
        self.warm_targets = tuple(targets)
        self.warmed = True

    # --- live answers ------------------------------------------------------
    def _entry(self, target: int, mode: str):
        """The fresh tier entry for live answers, or ``None``."""
        return self.tiers.fresh(
            target, mode, machine_fingerprint(self.machine),
            self.clock(), self.tier_max_staleness_s,
        )

    def advise(
        self,
        target: int,
        mode: str,
        tasks: int,
        avoid_irq_node: bool = False,
        tolerance: float = 0.05,
    ) -> dict:
        """Class-aware placement: tier 2 from the snapshot, else tier 3.

        A quarantined ``(target, mode)`` serves the labelled
        ``repairing`` last-good answer instead — requests never
        stampede the solver while the repair supervisor is already
        re-characterizing the key, and never get an unlabelled stale
        answer.  With no last-good cover it falls through to tier 3
        (whose landed solve lifts the quarantine).  Every tier answers
        through the same :class:`~repro.service.tiers.TierEntry` builder.
        """
        self._check_node(target, "target")
        if self.tiers.quarantine_reason(target, mode) is not None:
            payload = self._last_good_answer("advise", {
                "target": target, "mode": mode, "tasks": tasks,
                "avoid_irq_node": avoid_irq_node, "tolerance": tolerance,
            }, repairing=True)
            if payload is not None:
                return payload
        entry = self._entry(target, mode)
        if entry is not None:
            note = self._drift_note
            if note is not None:
                note(entry.drift_note)
            return stamp_tier(
                entry.advise_payload(tasks, avoid_irq_node, tolerance),
                TIER_CLASS, entry.staleness(self.clock()),
            )
        entry = self.recharacterize(target, mode)
        return _relabel(
            entry.advise_payload(tasks, avoid_irq_node, tolerance),
            _SOLVED, TIER_SOLVE, 0.0,
        )

    def _plan_base(self) -> tuple[tuple, float, bool, str]:
        """The weight-independent per-node plan scores for the live machine.

        Returns ``(rows, staleness_s, fresh, header)`` where each row is
        ``(node, write_mean, read_mean, wire_template, wire_tail)`` —
        full-precision means for the weight blend, a pre-rounded wire
        dict, and that dict's encoding minus its leading brace (ranking
        rows on the wire lead with the weight-blended ``combined_gbps``,
        the one varying value, so a warm answer is spliced from these
        constant tails).  ``header`` is the constant result prefix up to
        the ranking list.  Memoized per fingerprint (the per-node
        DMA-path means are pure topology, no weight in them), so every
        plan answer after the first is arithmetic over precomputed
        coefficients — tier 1.
        """
        fingerprint = machine_fingerprint(self.machine)
        now = self.clock()
        memo = self._plan_base_memo.get(fingerprint)
        if memo is not None:
            rows, at, header = memo
            if (
                self.tier_max_staleness_s is None
                or now - at <= self.tier_max_staleness_s
            ):
                self._plan_base_memo.move_to_end(fingerprint)
                return rows, now - at, False, header
        planner = DeviceAttachmentPlanner(self.machine)
        rows = []
        for s in (planner.score(n) for n in self.machine.node_ids):
            template = {
                "node": s.node,
                "write_mean_gbps": wire_gbps(s.write_mean_gbps),
                "read_mean_gbps": wire_gbps(s.read_mean_gbps),
            }
            rows.append((
                s.node,
                s.write_mean_gbps,
                s.read_mean_gbps,
                template,
                # '{"combined_gbps":<v>' + this tail = one ranking row.
                "," + encode_wire(template)[1:],
            ))
        rows = tuple(rows)
        header = (
            ',"degraded":false,"machine":'
            + encode_wire(self.machine.name) + ',"ranking":['
        )
        self._plan_base_memo[fingerprint] = (rows, now, header)
        while len(self._plan_base_memo) > self._plan_base_size:
            self._plan_base_memo.popitem(last=False)
        return rows, 0.0, True, header

    def plan(self, write_weight: float = 0.5) -> dict:
        """Analytic device-attachment ranking: tier 1 once the base is warm."""
        weight = float(write_weight)
        if not 0 <= weight <= 1:
            raise ModelError(f"write_weight must be in [0, 1], got {write_weight}")
        base, staleness, fresh, header = self._plan_base()
        scored = [
            (weight * write + (1.0 - weight) * read, node, template, tail)
            for node, write, read, template, tail in base
        ]
        scored.sort(key=lambda row: (-row[0], row[1]))
        ranking = [
            (wire_gbps(combined), template, tail)
            for combined, _node, template, tail in scored
        ]
        result = {
            "degraded": False,
            "source": "characterization" if fresh else "analytic-base",
            "machine": self.machine.name,
            "write_weight": write_weight,
            "best_node": scored[0][1],
            "ranking": [
                dict(template, combined_gbps=combined)
                for combined, template, _tail in ranking
            ],
        }
        self._last_good_plans[round(weight, 9)] = (result, self.clock())
        while len(self._last_good_plans) > self._last_good_plans_size:
            self._last_good_plans.popitem(last=False)
        if fresh:
            return stamp_tier(dict(result), TIER_SOLVE, staleness)
        # Warm answers splice pre-encoded fragments: the only varying
        # bytes are best_node, the blended combined_gbps per row, the
        # echoed weight and the staleness the server splices in.
        answer = WireAnswer(result)
        answer.wire_pre = (
            '{"best_node":' + str(scored[0][1]) + header
            + ",".join(
                '{"combined_gbps":' + repr(combined) + tail
                for combined, _template, tail in ranking
            )
            + '],"source":"analytic-base","staleness_s":'
        )
        answer.wire_post = (
            ',"tier":1,"write_weight":' + repr(write_weight) + "}"
        )
        return stamp_tier(answer, TIER_ANALYTIC, staleness)

    def predict_eq1(self, target: int, mode: str, streams: list[int]) -> dict:
        """Eq. 1 aggregate prediction: tier 1 analytic, else tier 3 exact.

        The analytic answer carries ``fit_rel_err_bound`` — the fit's
        measured worst-case relative deviation from the exact Eq. 1
        class coefficients it was fitted from.
        """
        for node in streams:
            self._check_node(node, "stream node")
        self._check_node(target, "target")
        if self.tiers.quarantine_reason(target, mode) is not None:
            payload = self._last_good_answer(
                "predict_eq1",
                {"target": target, "mode": mode, "streams": streams},
                repairing=True,
            )
            if payload is not None:
                return payload
        entry = self._entry(target, mode)
        if entry is not None:
            payload = entry.analytic_predict(streams)
            if payload is not None:
                note = self._drift_note
                if note is not None:
                    note(entry.drift_note)
                return stamp_tier(
                    payload, TIER_ANALYTIC, entry.staleness(self.clock())
                )
        entry = self.recharacterize(target, mode)
        payload = entry.predict_payload(streams)
        if payload is None:
            node = next(
                n for n in streams if entry.snapshot.rank_of(n) is None
            )
            raise ModelError(f"node {node} is not in this model")
        return _relabel(payload, _SOLVED, TIER_SOLVE, 0.0)

    def classify(self, target: int, mode: str) -> dict:
        """The class structure for ``(target, mode)``: tier 2, else tier 3."""
        self._check_node(target, "target")
        if self.tiers.quarantine_reason(target, mode) is not None:
            payload = self._last_good_answer(
                "classify", {"target": target, "mode": mode}, repairing=True
            )
            if payload is not None:
                return payload
        entry = self._entry(target, mode)
        if entry is not None:
            note = self._drift_note
            if note is not None:
                note(entry.drift_note)
            return stamp_tier(
                entry.classify_payload(), TIER_CLASS,
                entry.staleness(self.clock()),
            )
        entry = self.recharacterize(target, mode)
        return _relabel(entry.classify_payload(), _SOLVED, TIER_SOLVE, 0.0)

    # --- degraded answers --------------------------------------------------
    def snapshot(self, target: int, mode: str) -> "ClassSnapshot | None":
        """The last-good snapshot for ``(target, mode)``, if any."""
        entry = self.tiers.last_good(target, mode)
        return entry.snapshot if entry is not None else None

    def degraded_answer(self, method: str, params: dict) -> "dict | None":
        """A class-level answer from the last-good tier entry.

        Returns ``None`` when no entry covers the request — the
        dispatcher then refuses with a typed ``unavailable`` error.
        Every answer is marked ``degraded: true`` with its provenance,
        tagged tier 2 with its true (possibly large) staleness; the
        lookup is fingerprint- and staleness-blind on purpose — while
        the breaker is open, the freshest snapshot we ever had *is*
        the answer.
        """
        if method == "plan":
            cached = self._last_good_plans.get(
                round(float(params["write_weight"]), 9)
            )
            if cached is None:
                return None
            payload, at = cached
            return _relabel(payload, _LAST_GOOD, TIER_CLASS, self.clock() - at)
        return self._last_good_answer(method, params, repairing=False)

    def _last_good_answer(
        self, method: str, params: dict, repairing: bool
    ) -> "dict | None":
        """A labelled class-level answer from the last-good tier entry.

        ``repairing=False`` is the breaker's degraded answer
        (``source: "last-good-characterization"``); ``repairing=True``
        answers a quarantined ``(target, mode)`` under repair — the key
        was pulled from live serving by the self-healing plane (fault
        blast radius or a drift event) and the supervisor has not yet
        promoted a fresh characterization back — labelled
        ``repairing: true`` with ``source: "last-good-repairing"``.
        Either way the answer is marked ``degraded: true``, tagged
        tier 2 with its true staleness: never silently stale.  Returns
        ``None`` when no entry covers the request.
        """
        if method not in ("advise", "predict_eq1", "classify"):
            return None
        entry = self.tiers.last_good(params["target"], params["mode"])
        if entry is None:
            return None
        if self._drift_note is not None:
            # Degraded answers are served off the last-good model too:
            # the drift watch must account them against the next solve.
            self._drift_note(entry.drift_note)
        if method == "classify":
            payload = entry.classify_payload()
        elif method == "advise":
            payload = entry.advise_payload(
                params["tasks"], params["avoid_irq_node"], params["tolerance"]
            )
        else:  # predict_eq1: the exact snapshot mixture, not the fit
            payload = entry.predict_payload(params["streams"])
            if payload is None:
                return None
        return _relabel(
            payload, _REPAIRING if repairing else _LAST_GOOD,
            TIER_CLASS, entry.staleness(self.clock()),
        )
