"""The supervised repair loop of the self-healing control plane.

The loop closes the gap PR 9 left open: the drift watch *detects* that
served answers departed from reality and the fault layer *changes* the
machine, but nothing re-characterized the stale classes.  The
:class:`RepairSupervisor` is that missing actor.  It reacts to exactly
two signals, both delivered through backend hooks:

* **machine swaps** (fault injection, fault clearance) — the blast
  radius comes from the incremental re-router: the
  :class:`~repro.routing.incremental.RerouteStats` on the new routing
  table name every node whose selected routes or link weights changed.
  Tier entries whose target sits inside that radius are quarantined
  (served degraded-and-labelled ``repairing: true``) and queued for
  re-characterization; entries already characterized under the new
  machine fingerprint are promoted on the spot.
* **drift events** — a landed solve that fired
  :class:`~repro.obs.live.DriftWatch` proves the machine moved under
  the fast tiers; every *sibling* entry characterized before that solve
  is equally suspect, so it is quarantined and queued too.

Repair jobs run through :meth:`RepairSupervisor.pump` — bounded
concurrency per pump, seeded :class:`~repro.retrying.RetryPolicy`
backoff between attempts, single-flight with in-flight request solves
(the backend's flight table coalesces them).  A landed solve refreshes
tiers 1–2 and lifts its own quarantine
(:meth:`~repro.service.backend.AdvisoryBackend._refresh_tiers`); the
supervisor then *verifies* the fresh fit — live fingerprint, honest
``eq1_rel_err_bound`` — before counting the key promoted.  A verify
failure re-quarantines and backs off like a solver failure.

Everything ticks on the service clock and draws backoff jitter from one
named registry stream, so same-seed soak twins repair byte-identically.
The whole loop is **opt-in**: a service without an attached supervisor
behaves exactly as before (fingerprint mismatches bypass the fast
tiers, the breaker serves degraded answers).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.retrying import RetryPolicy
from repro.service.backend import SOLVER_FAILURES, AdvisoryBackend
from repro.solver.capacity import machine_fingerprint

__all__ = ["RepairJob", "RepairSupervisor"]

#: Registry stream the backoff jitter draws from — one name, so a seed
#: pins the whole repair schedule bit-for-bit.
BACKOFF_STREAM = "service/repair/backoff"


@dataclass
class RepairJob:
    """One quarantined ``(target, mode)`` awaiting re-characterization."""

    target: int
    mode: str
    reason: str
    attempts: int = 0
    not_before: float = 0.0
    queued_at: float = 0.0

    @property
    def key(self) -> tuple[int, str]:
        return (self.target, self.mode)


@dataclass
class RepairSupervisor:
    """Quarantine, re-characterize, verify, promote — bounded and seeded.

    Parameters
    ----------
    backend:
        The advisory backend to repair through (its single-flight
        ``recharacterize()`` is the tier-3 path, so repair solves
        coalesce with request solves).
    retry:
        Backoff policy between failed repair attempts; ``max_retries``
        bounds the attempts per job (an exhausted job stays quarantined
        — honestly labelled — until a machine swap revalidates it).
    max_concurrency:
        Repair solves launched per :meth:`pump` call.
    verify_fit_rel_err:
        Promotion bar: the fresh :class:`~repro.service.tiers.AnalyticFit`
        must report ``eq1_rel_err_bound`` at or under this, else the
        key is re-quarantined and retried.
    """

    backend: AdvisoryBackend
    retry: RetryPolicy = field(
        default_factory=lambda: RetryPolicy(
            max_retries=3, base_delay_s=0.4, multiplier=2.0, jitter=0.25
        )
    )
    max_concurrency: int = 2
    verify_fit_rel_err: float = 0.25

    def __post_init__(self) -> None:
        if self.max_concurrency < 1:
            raise ValueError(
                f"max_concurrency must be >= 1, got {self.max_concurrency}"
            )
        self.jobs: dict[tuple[int, str], RepairJob] = {}
        self.started = 0
        self.promoted = 0
        self.failed = 0
        self.live = self.backend.live
        self.clock = self.backend.clock
        self._rng = self.backend.registry.stream(BACKOFF_STREAM)
        # Blast radius of the previous machine swap: a fault-clearing
        # swap produces an (empty or small) delta of its own, but the
        # entries characterized *during* the fault window still need
        # re-repair — the union with the previous radius covers them.
        self._last_touched: "set[int] | None" = None

    # --- wiring ------------------------------------------------------------
    def attach(self, service) -> "RepairSupervisor":
        """Adopt a :class:`~repro.service.server.PlacementService`.

        Shares the service's clock and live plane, hooks the backend's
        machine-swap and drift signals, and registers on
        ``service.repair`` so ``health`` exposes the loop's state.
        """
        self.live = service.live
        self.clock = service.clock
        self.backend.on_machine_change = self.machine_changed
        self.backend.on_repair_drift = self.on_drift
        service.repair = self
        return self

    # --- signal handlers ---------------------------------------------------
    def machine_changed(self, machine) -> None:
        """The live machine view swapped: quarantine the blast radius.

        Entries already characterized under the new fingerprint are
        promoted immediately (fault clearance revalidates everything
        the fault never touched); entries inside the re-route blast
        radius — or all mismatched entries, when the new view carries
        no :class:`~repro.routing.incremental.RerouteStats` to bound it
        — are quarantined and queued for repair.
        """
        fingerprint = machine_fingerprint(machine)
        stats = getattr(machine.routing, "last_reroute", None)
        if stats:
            touched: "set[int] | None" = set()
            for plane_stats in stats.values():
                touched.update(plane_stats.touched_nodes)
                # Mirror the re-router's accounting into the live plane
                # so `metrics`/`obs scrape` expose reroute activity.
                self.live.count(
                    "routing.rerouted_pairs", plane_stats.pairs_rerouted
                )
                self.live.count(
                    "routing.reroute_skipped_pairs", plane_stats.pairs_kept
                )
        else:
            touched = None
        prev = self._last_touched
        if touched is None or prev is None:
            affected = None  # unbounded: treat every mismatch as suspect
        else:
            affected = touched | prev
        now = self.clock()
        tiers = self.backend.tiers
        for (target, mode), entry in sorted(tiers.entries.items()):
            if entry.fingerprint == fingerprint:
                if tiers.promote(target, mode):
                    self.jobs.pop((target, mode), None)
                    self._note_promoted(target, mode, now, "revalidated")
            elif affected is None or target in affected:
                self._quarantine(target, mode, "fault-reroute", now)
        self._last_touched = touched

    def on_drift(self, event: dict) -> None:
        """A landed solve fired the drift watch: repair the siblings.

        The solve that fired the event already refreshed and promoted
        its own key — it *is* current truth.  Every other entry with
        nonzero staleness was characterized before the machine moved,
        so it is quarantined and queued.
        """
        fired = (event["target"], event["mode"])
        now = self.clock()
        for (target, mode), entry in sorted(self.backend.tiers.entries.items()):
            key = (target, mode)
            if key == fired or key in self.jobs:
                continue
            if entry.staleness(now) <= 0.0:
                continue  # refreshed this tick: already current
            self._quarantine(
                target, mode,
                f"drift:{event['target']}/{event['mode']}", now,
            )

    def _quarantine(self, target: int, mode: str, reason: str, now: float) -> None:
        self.backend.tiers.quarantine(target, mode, reason)
        key = (target, mode)
        if key not in self.jobs:
            self.jobs[key] = RepairJob(
                target=target, mode=mode, reason=reason,
                not_before=now, queued_at=now,
            )
            self.live.flight.note_event(now, "repair", {
                "phase": "quarantine", "target": target, "mode": mode,
                "reason": reason,
            })

    # --- the repair loop ---------------------------------------------------
    def pump(self, now: "float | None" = None) -> int:
        """Run up to ``max_concurrency`` due repair jobs; returns how many.

        Deterministic: due jobs run in sorted key order, each solve
        goes through the backend's single-flight tier-3 path, and the
        backoff after a failure draws from the seeded stream.  The
        loop runs wherever this is called: the convergence soak calls
        it once per scripted line, library callers on their own
        schedule.
        """
        if now is None:
            now = self.clock()
        launched = 0
        for key in sorted(self.jobs):
            if launched >= self.max_concurrency:
                break
            job = self.jobs.get(key)
            if job is None or job.not_before > now:
                continue
            launched += 1
            self._repair_one(job, now)
        return launched

    def _repair_one(self, job: RepairJob, now: float) -> None:
        self.started += 1
        self.live.count("service.repair.started")
        self.live.flight.note_event(now, "repair", {
            "phase": "start", "target": job.target, "mode": job.mode,
            "attempt": job.attempts, "reason": job.reason,
        })
        try:
            entry = self.backend.recharacterize(job.target, job.mode)
        except SOLVER_FAILURES as exc:
            self._backoff(job, now, f"{type(exc).__name__}: {exc}")
            return
        # The landed solve refreshed tiers 1-2 and lifted the quarantine
        # (single-flight with request solves).  Verify before declaring
        # the key repaired: the entry must be the live machine's and the
        # fit must be honest enough to serve tier 1 from.
        fingerprint = machine_fingerprint(self.backend.machine)
        if (
            entry is not None
            and entry.fingerprint == fingerprint
            and entry.fit.eq1_rel_err_bound <= self.verify_fit_rel_err
        ):
            # Explicit promote: a cache-hit recharacterization (the
            # entry was already current) never went through a tier
            # refresh, so the quarantine may still be standing.
            self.backend.tiers.promote(job.target, job.mode)
            self.jobs.pop(job.key, None)
            self._note_promoted(job.target, job.mode, now, job.reason)
            return
        self.backend.tiers.quarantine(job.target, job.mode, job.reason)
        self._backoff(job, now, "verify-failed")

    def _backoff(self, job: RepairJob, now: float, error: str) -> None:
        job.attempts += 1
        if job.attempts > self.retry.max_retries:
            self.jobs.pop(job.key, None)
            self.failed += 1
            self.live.count("service.repair.failed")
            self.live.flight.note_event(now, "repair", {
                "phase": "failed", "target": job.target, "mode": job.mode,
                "attempts": job.attempts, "error": error,
            })
            # The key stays quarantined: answers remain labelled
            # `repairing` until a machine swap revalidates the entry
            # or a request-path solve lands and promotes it.
            return
        job.not_before = now + self.retry.delay_s(job.attempts - 1, self._rng)

    def _note_promoted(
        self, target: int, mode: str, now: float, reason: str
    ) -> None:
        self.promoted += 1
        self.live.count("service.repair.promoted")
        self.live.flight.note_event(now, "repair", {
            "phase": "promote", "target": target, "mode": mode,
            "reason": reason,
        })

    # --- reporting ---------------------------------------------------------
    def stats(self) -> dict:
        """JSON-able loop state for ``health`` responses."""
        return {
            "jobs": len(self.jobs),
            "started": self.started,
            "promoted": self.promoted,
            "failed": self.failed,
            "quarantined": [
                f"{target}/{mode}"
                for target, mode in sorted(self.backend.tiers.quarantined)
            ],
        }
