"""The tiered answer path: analytic fast tier, class-model tier, solver tier.

The paper's whole argument is that aggregate I/O bandwidth is
predictable from a *small per-class model* (Eq. 1 over Algorithm 1's
equivalence classes) — so the service should not run a full
:class:`~repro.solver.session.SolverSession` solve for every request.
This module is the explicit answer hierarchy:

* **Tier 1 — analytic fast tier** (:class:`AnalyticFit`).  A closed-form
  bandwidth predictor fitted per ``(target, mode)`` class from the last
  full characterization.  The builder's measurement noise is
  multiplicative log-normal, so the fit is the log-domain least-squares
  coefficient per class (the geometric mean — the maximum-likelihood
  base bandwidth under that noise model, in the spirit of the
  Treibig/Hager bandwidth-limited-kernel model).  Answering is pure
  arithmetic over precomputed coefficients — no solver, no numpy,
  microseconds — and every fit records its own measured error bounds
  against the tier-3 values it was fitted from.
* **Tier 2 — class-model tier** (:class:`TierEntry`).  Memoized
  :class:`~repro.service.backend.ClassSnapshot` Eq. 1 mixtures plus the
  exact per-node values and core counts captured at solve time: enough
  to answer ``advise``/``classify`` *bit-identically* to
  :class:`~repro.core.scheduler_advisor.PlacementAdvisor` and the model
  without touching a solver.  This is the breaker's last-good store
  promoted to a first-class always-warm cache with staleness tracking.
* **Tier 3 — solver tier**.  The full in-process characterization,
  which refreshes tiers 1–2 on every completed solve.  Its answer is
  the refreshed entry's own payload relabelled as a solve, so the
  :class:`TierEntry` builders are the only code that builds
  ``advise``/``predict_eq1``/``classify`` answers, at every tier.

Every tiered answer is stamped ``{"tier": 1|2|3, "staleness_s": ...}``
(:func:`stamp_tier`); staleness is measured on the service clock, so
the chaos soak's logical clock keeps same-seed twins byte-identical.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass, field

from repro.core.model import IOPerformanceModel
from repro.service.protocol import wire_fragments
from repro.topology.machine import Machine

__all__ = [
    "TIER_ANALYTIC",
    "TIER_CLASS",
    "TIER_SOLVE",
    "stamp_tier",
    "wire_gbps",
    "AnalyticFit",
    "TierEntry",
    "TierStore",
    "WireAnswer",
    "wire_answer",
]

#: Tier tags carried on every tiered response.
TIER_ANALYTIC = 1  # closed-form fit, pure arithmetic
TIER_CLASS = 2  # memoized class snapshot / Eq. 1 mixture
TIER_SOLVE = 3  # full Algorithm 1 characterization

#: LRU bound on per-entry answer memos (distinct param combinations).
_MEMO_CAP = 128


def wire_gbps(value: float) -> float:
    """A bandwidth (or ratio) as it appears on the wire: six decimals.

    µGbps / micro-fraction precision — far below the characterization
    noise — keeps responses compact (float serialization dominates the
    warm-path encode cost) and byte-stable across tiers: the fast and
    slow paths round the *same* full-precision number, so bit-identity
    between them is preserved.
    """
    return round(value, 6)


class WireAnswer(dict):
    """A tiered answer that also carries its pre-encoded wire form.

    To every consumer this *is* the result dict; the serving fast path
    additionally splices ``wire_pre``/``wire_post`` — the result
    encoded once at memo time via
    :func:`~repro.service.protocol.wire_fragments` — around the live
    staleness, instead of re-encoding the payload on every request.
    """

    __slots__ = ("wire_pre", "wire_post")


def wire_answer(cached: tuple) -> WireAnswer:
    """A fresh :class:`WireAnswer` from a ``(payload, pre, post)`` memo."""
    payload, pre, post = cached
    answer = WireAnswer(payload)
    answer.wire_pre = pre
    answer.wire_post = post
    return answer


def stamp_tier(payload: dict, tier: int, staleness_s: float) -> dict:
    """Stamp the tier/staleness response contract onto ``payload``.

    ``staleness_s`` is rounded (µs precision) so logical-clock soaks
    stay byte-stable and monotonic-clock responses stay readable.
    """
    payload["tier"] = tier
    payload["staleness_s"] = round(max(0.0, staleness_s), 6)
    return payload


@dataclass(frozen=True)
class AnalyticFit:
    """Tier 1: the closed-form per-class bandwidth predictor.

    Fitted from one :class:`~repro.core.model.IOPerformanceModel`:
    ``beta[rank]`` is the log-domain least-squares coefficient of the
    class (the geometric mean of its node bandwidths — the MLE of the
    base bandwidth under the builder's multiplicative log-normal noise).
    ``node_rank`` maps every node to its class, so an Eq. 1 prediction
    is a dict-lookup weighted sum: pure arithmetic, no solver.

    The fit carries its own honesty metrics, measured at fit time
    against the tier-3 values:

    * ``eq1_rel_err_bound`` — max over classes of the relative
      coefficient error ``|beta_c - avg_c| / avg_c``.  Any Eq. 1
      mixture prediction is a convex combination of class coefficients,
      so its relative error against the tier-3 Eq. 1 answer is bounded
      by this number.
    * ``max_node_rel_err`` — max over nodes of ``|beta_c(i) - b_i| /
      b_i`` (the within-class spread the class model compresses away).
    """

    machine_name: str
    target: int
    mode: str
    beta: dict[int, float]  # class rank -> fitted coefficient (Gbps)
    node_rank: dict[int, int]  # node id -> class rank
    eq1_rel_err_bound: float
    max_node_rel_err: float

    @classmethod
    def fit(cls, model: IOPerformanceModel) -> "AnalyticFit":
        """Fit the closed-form predictor from a full characterization."""
        beta: dict[int, float] = {}
        node_rank: dict[int, int] = {}
        eq1_err = 0.0
        node_err = 0.0
        for perf_class in model.classes:
            values = [model.values[n] for n in perf_class.node_ids]
            coeff = math.exp(sum(math.log(v) for v in values) / len(values))
            beta[perf_class.rank] = coeff
            eq1_err = max(eq1_err, abs(coeff - perf_class.avg) / perf_class.avg)
            for node, value in zip(perf_class.node_ids, values):
                node_rank[node] = perf_class.rank
                node_err = max(node_err, abs(coeff - value) / value)
        return cls(
            machine_name=model.machine_name,
            target=model.target_node,
            mode=model.mode,
            beta=beta,
            node_rank=node_rank,
            eq1_rel_err_bound=eq1_err,
            max_node_rel_err=node_err,
        )

    def predict_eq1(self, streams: "list[int]") -> "dict | None":
        """The analytic Eq. 1 answer payload, or ``None`` off-model.

        Pure arithmetic: class fractions of the stream mix times the
        fitted coefficients.  Returns ``None`` when a stream node is
        outside the fitted node set (the caller falls through a tier).
        """
        alpha: dict[int, float] = {}
        for node in streams:
            rank = self.node_rank.get(node)
            if rank is None:
                return None
            alpha[rank] = alpha.get(rank, 0.0) + 1.0
        total = sum(alpha.values())
        predicted = sum(
            (share / total) * self.beta[rank] for rank, share in alpha.items()
        )
        return {
            "degraded": False,
            "source": "analytic-fit",
            "machine": self.machine_name,
            "target": self.target,
            "mode": self.mode,
            "streams": list(streams),
            "predicted_gbps": wire_gbps(predicted),
            "class_fractions": {
                str(rank): wire_gbps(share / total)
                for rank, share in sorted(alpha.items())
            },
            "fit_rel_err_bound": round(self.eq1_rel_err_bound, 6),
        }


@dataclass
class TierEntry:
    """Everything tiers 1–2 need about one ``(target, mode)`` class model.

    Captured from a completed tier-3 solve: the class snapshot, the
    exact per-node values, per-node core counts (for capacity-aware
    placement), the analytic fit, and the freshness bookkeeping.

    Answer payloads are memoized per parameter combination (bounded
    LRU) — an entry is immutable between solves, so a repeat question
    has a repeat answer, and the warm path degenerates to a dict copy.
    A refresh replaces the whole entry, so the memos can never serve
    an answer from a superseded characterization.
    """

    snapshot: "object"  # ClassSnapshot (import cycle: backend imports us)
    fit: AnalyticFit
    values: dict[int, float]
    core_counts: dict[int, int]
    fingerprint: str
    refreshed_at: float
    solves: int = 1
    #: Mean of the class averages (Gbps) — the one-number summary of
    #: the model behind every answer this entry serves, precomputed so
    #: the drift watch can fold a served answer in at dict-update cost.
    model_mean: float = 0.0
    #: The ``(target, mode, model_mean)`` triple the drift watch is
    #: fed per served answer — constant for the entry's lifetime, so
    #: prebuilt here and handed over without a per-answer tuple alloc.
    drift_note: tuple = ()
    _advise_memo: OrderedDict = field(
        default_factory=OrderedDict, repr=False, compare=False
    )
    _predict_memo: OrderedDict = field(
        default_factory=OrderedDict, repr=False, compare=False
    )
    _analytic_memo: OrderedDict = field(
        default_factory=OrderedDict, repr=False, compare=False
    )
    _classify_memo: "tuple | None" = field(
        default=None, repr=False, compare=False
    )

    def staleness(self, now: float) -> float:
        """Seconds since the entry was last refreshed by a solve."""
        return max(0.0, now - self.refreshed_at)

    @staticmethod
    def _memoize(memo: OrderedDict, key, payload: dict, tier: int) -> tuple:
        """Store ``(payload, pre, post)`` — the answer plus its wire form."""
        pre, post = wire_fragments(payload, tier)
        memo[key] = cached = (payload, pre, post)
        while len(memo) > _MEMO_CAP:
            memo.popitem(last=False)
        return cached

    # --- tier-2 answers (exact class-model arithmetic) ---------------------
    def _class_rows(self):
        return self.snapshot.classes  # (rank, node_ids, avg, lo, hi) rows

    def advise_payload(
        self, tasks: int, avoid_irq_node: bool, tolerance: float
    ) -> dict:
        """Class-aware placement, bit-identical to the solver's advisor.

        Reproduces :class:`~repro.core.scheduler_advisor.PlacementAdvisor`
        exactly — equivalence within ``tolerance`` of the best class,
        candidate nodes best class first, capacity-aware round-robin
        fill honouring core counts — from the memoized snapshot alone.
        """
        key = (tasks, avoid_irq_node, tolerance)
        cached = self._advise_memo.get(key)
        if cached is not None:
            self._advise_memo.move_to_end(key)
            return wire_answer(cached)
        avgs = self.snapshot.class_avgs()
        ranks = set(self.snapshot.equivalent_classes(tolerance))
        nodes: list[int] = []
        for rank, node_ids, _avg, _lo, _hi in sorted(
            self._class_rows(), key=lambda row: -avgs[row[0]]
        ):
            if rank in ranks:
                nodes.extend(node_ids)
        if avoid_irq_node and len(nodes) > 1:
            nodes = [n for n in nodes if n != self.snapshot.target_node]
        capacity = {n: self.core_counts.get(n, 1) for n in nodes}
        placement = {n: 0 for n in nodes}
        remaining = tasks
        while remaining:
            progressed = False
            for node in nodes:
                if remaining == 0:
                    break
                if placement[node] < capacity[node]:
                    placement[node] += 1
                    remaining -= 1
                    progressed = True
            if not progressed:
                for node in nodes:
                    if remaining == 0:
                        break
                    placement[node] += 1
                    remaining -= 1
        stream_nodes: list[int] = []
        for node in sorted(placement):
            stream_nodes.extend([node] * placement[node])
        payload = {
            "degraded": False,
            "source": "class-model",
            "machine": self.snapshot.machine_name,
            "target": self.snapshot.target_node,
            "mode": self.snapshot.mode,
            "tasks_per_node": {
                str(n): c for n, c in sorted(placement.items()) if c
            },
            "classes_used": sorted(ranks),
            "stream_nodes": stream_nodes,
        }
        return wire_answer(
            self._memoize(self._advise_memo, key, payload, TIER_CLASS)
        )

    def predict_payload(self, streams: "list[int]") -> "dict | None":
        """Exact Eq. 1 mixture over the snapshot's class averages."""
        key = tuple(streams)
        cached = self._predict_memo.get(key)
        if cached is not None:
            self._predict_memo.move_to_end(key)
            return wire_answer(cached)
        alpha: dict[int, float] = {}
        for node in streams:
            rank = self.snapshot.rank_of(node)
            if rank is None:
                return None
            alpha[rank] = alpha.get(rank, 0.0) + 1.0
        avgs = self.snapshot.class_avgs()
        total = sum(alpha.values())
        predicted = sum(
            (share / total) * avgs[rank] for rank, share in alpha.items()
        )
        payload = {
            "degraded": False,
            "source": "class-model",
            "machine": self.snapshot.machine_name,
            "target": self.snapshot.target_node,
            "mode": self.snapshot.mode,
            "streams": list(streams),
            "predicted_gbps": wire_gbps(predicted),
            "class_fractions": {
                str(rank): wire_gbps(share / total)
                for rank, share in sorted(alpha.items())
            },
        }
        return wire_answer(
            self._memoize(self._predict_memo, key, payload, TIER_CLASS)
        )

    def analytic_predict(self, streams: "list[int]") -> "dict | None":
        """Tier 1: the memoized :meth:`AnalyticFit.predict_eq1` payload."""
        key = tuple(streams)
        cached = self._analytic_memo.get(key)
        if cached is not None:
            self._analytic_memo.move_to_end(key)
            return wire_answer(cached)
        payload = self.fit.predict_eq1(streams)
        if payload is None:
            return None
        return wire_answer(
            self._memoize(self._analytic_memo, key, payload, TIER_ANALYTIC)
        )

    def classify_payload(self) -> dict:
        """The full class structure, including the per-node values."""
        if self._classify_memo is None:
            payload = self.snapshot.to_dict()
            payload["values"] = {
                str(n): wire_gbps(v) for n, v in sorted(self.values.items())
            }
            payload["degraded"] = False
            payload["source"] = "class-model"
            pre, post = wire_fragments(payload, TIER_CLASS)
            self._classify_memo = (payload, pre, post)
        return wire_answer(self._classify_memo)


@dataclass
class TierStore:
    """The always-warm tier 1–2 cache, refreshed by completed solves.

    Keyed by ``(target, mode)``.  A *live* lookup (:meth:`fresh`)
    additionally requires the entry's machine fingerprint to match the
    live machine and the entry to be within ``max_staleness_s`` — a
    faulted machine view has a new fingerprint, so fault injection
    naturally bypasses the fast tiers without evicting anything.  The
    *last-good* lookup (:meth:`last_good`) ignores both, which is the
    degraded-mode contract: while the breaker is open, the freshest
    snapshot we ever had is the answer, honestly labelled.
    """

    entries: dict[tuple[int, str], TierEntry] = field(default_factory=dict)
    refreshes: int = 0
    stale_evictions: int = 0
    #: ``(target, mode) -> reason`` — keys the self-healing control
    #: plane pulled out of live serving (fault blast radius or a fired
    #: drift event).  Quarantined keys never serve tiers 1–2; requests
    #: either solve (tier 3) or get a labelled ``repairing`` answer.
    quarantined: dict[tuple[int, str], str] = field(default_factory=dict)

    def refresh(
        self,
        snapshot,
        model: IOPerformanceModel,
        machine: Machine,
        fingerprint: str,
        now: float,
    ) -> TierEntry:
        """Fold one completed tier-3 solve into the store."""
        previous = self.entries.get((model.target_node, model.mode))
        avgs = snapshot.class_avgs()
        mean = sum(avgs.values()) / len(avgs) if avgs else 0.0
        entry = TierEntry(
            snapshot=snapshot,
            fit=AnalyticFit.fit(model),
            values=dict(model.values),
            core_counts={
                n: machine.node(n).n_cores for n in model.values
            },
            fingerprint=fingerprint,
            refreshed_at=now,
            solves=(previous.solves + 1) if previous is not None else 1,
            model_mean=mean,
            drift_note=(model.target_node, model.mode, mean),
        )
        self.entries[(model.target_node, model.mode)] = entry
        self.refreshes += 1
        return entry

    def quarantine(self, target: int, mode: str, reason: str) -> None:
        """Pull ``(target, mode)`` out of live tier-1/2 serving.

        The entry itself stays — it is the honest last-good answer the
        ``repairing`` path serves — but :meth:`fresh` refuses it until
        :meth:`promote` restores the key.
        """
        self.quarantined[(target, mode)] = reason

    def promote(self, target: int, mode: str) -> bool:
        """Lift the quarantine on ``(target, mode)``; True if it was set."""
        return self.quarantined.pop((target, mode), None) is not None

    def quarantine_reason(self, target: int, mode: str) -> "str | None":
        """Why ``(target, mode)`` is quarantined, or ``None`` if live."""
        return self.quarantined.get((target, mode))

    def fresh(
        self,
        target: int,
        mode: str,
        fingerprint: str,
        now: float,
        max_staleness_s: "float | None",
    ) -> "TierEntry | None":
        """The live-answer entry, or ``None`` when tiers 1–2 must defer."""
        key = (target, mode)
        if key in self.quarantined:
            return None
        entry = self.entries.get(key)
        if entry is None or entry.fingerprint != fingerprint:
            return None
        if (
            max_staleness_s is not None
            and entry.staleness(now) > max_staleness_s
        ):
            return None
        return entry

    def last_good(self, target: int, mode: str) -> "TierEntry | None":
        """The degraded-mode entry: freshest ever, fingerprint-blind."""
        return self.entries.get((target, mode))

    def stats(self, now: float) -> dict:
        """JSON-able store health for ``health`` responses."""
        staleness = sorted(
            entry.staleness(now) for entry in self.entries.values()
        )
        return {
            "entries": len(self.entries),
            "refreshes": self.refreshes,
            "stale_evictions": self.stale_evictions,
            "quarantined": len(self.quarantined),
            "staleness_s": {
                "min": round(staleness[0], 6) if staleness else None,
                "max": round(staleness[-1], 6) if staleness else None,
            },
            "max_node_rel_err": round(
                max(
                    (e.fit.max_node_rel_err for e in self.entries.values()),
                    default=0.0,
                ),
                6,
            ),
        }
