"""The live metrics plane: streaming histograms, flight recorder, drift watch.

:mod:`repro.obs.recorder` is a *post-mortem* instrument — spans and
counters surface in ``trace.jsonl``/``manifest.json`` at process exit.
This module is the *online* complement the running service needs: the
paper's whole argument rests on observed bandwidth matching the Eq. 1
class model, and a serving process must be able to show — while it is
up — its tier hit-rates, its latency percentiles, and whether the
answers it serves are drifting away from the characterization behind
them.  Four pieces, all always-on and always-cheap (plain dict/array
updates; the overhead gate in ``scripts/bench_service.py`` pins the
cost under 5 % of serving throughput):

* :class:`Hist` — mergeable log-bucketed streaming histograms with
  exact count/sum and p50/p90/p99 extraction.  Merging two histograms
  is bucket-wise addition, bit-identical to having fed one histogram
  the concatenated stream (the property suite pins the merge laws).
  Each histogram renders its summary's wire text once per change
  (:meth:`Hist.wire`), so a ``metrics`` call re-renders only the
  histograms that saw traffic since the last one.
* :class:`FlightRecorder` — a bounded ring buffer holding the last N
  completed request spans and the last K error/degraded/slow/drift
  events with their tags.  Dumpable on demand (``obs tail``, the
  ``metrics`` method) and automatically on breaker trip or crash,
  without waiting for process exit.
* :class:`LivePlane` — the registry tying them together: named
  histograms, named counters, and the flight recorder.  The service
  owns one plane and folds each drained ``(method, tier)`` latency
  group straight into its per-method and per-tier views
  (:meth:`LivePlane.record_latency`), so a read merges nothing.  Every
  duration it records is measured on the *service clock*, so the
  deterministic soak (logical clock) reads no wall clock anywhere and
  same-seed twins stay byte-identical.
* :class:`DriftWatch` — per-``(target, mode)`` online estimators fed
  by every tier-3 solve and every served tier-1/2 answer.  When a new
  solve lands, the watch compares it against the class model the fast
  tiers have been serving, classifies the regime DAMOV-style
  (bandwidth-, latency-, or contention-bound), and — past the
  threshold — emits a flight-recorder event plus ``service.drift.*``
  counters: the hook a future online re-characterization loop
  consumes.

:func:`render_scrape` turns the ``metrics`` method's JSON payload into
Prometheus-style text exposition with stable ordering, so ``repro-numa
obs scrape`` output is a pure function of the payload.
"""

from __future__ import annotations

import json
import math
from collections import Counter, deque
from typing import Mapping

from repro.obs import recorder as _obs

__all__ = [
    "Hist",
    "FlightRecorder",
    "LivePlane",
    "NullLivePlane",
    "DriftWatch",
    "classify_regime",
    "render_scrape",
]

#: Log-bucket base: four buckets per octave (~19 % relative width), so
#: any quantile read off a bucket upper bound is within one bucket
#: width of the true empirical quantile.
HIST_BASE = 2.0 ** 0.25

_LOG_BASE = math.log(HIST_BASE)
_INV_LOG_BASE = 1.0 / _LOG_BASE

#: Bucket index reserved for values <= 0 (logical-clock durations are
#: exactly 0.0, and they must not touch ``math.log``).
ZERO_BUCKET = -(2 ** 31)

#: Default flight-recorder ring capacities (completed spans / events).
SPAN_CAPACITY = 256
EVENT_CAPACITY = 64

#: Quantiles every histogram summary extracts.
_QUANTILES = ((0.50, "p50"), (0.90, "p90"), (0.99, "p99"))

_float_repr = float.__repr__
_int_repr = int.__repr__


def _wire_number(value) -> str:
    """``value`` exactly as the service's wire encoder writes it.

    A finite ``float`` is its ``repr`` and an ``int`` its digits (what
    the C JSON encoder emits); anything else — ``None``, infinities, a
    float subclass — goes through :func:`json.dumps`, whose scalar
    encoding is the wire encoder's.
    """
    kind = type(value)
    if kind is float and value - value == 0.0:
        return _float_repr(value)
    if kind is int:
        return _int_repr(value)
    return json.dumps(value)


#: Bucket index -> its rounded upper bound as wire text.  Bounded by
#: the float range (a few thousand indices) and shared by every
#: histogram: most buckets recur across renders.
_UPPER_TEXT: dict[int, str] = {}

#: A summary's wire text: its keys in sorted order, compact.
_SUMMARY_WIRE = (
    '{"buckets":[%s],"count":%s,"max":%s,"min":%s,'
    '"p50":%s,"p90":%s,"p99":%s,"sum":%s}'
)


class Hist:
    """A mergeable log-bucketed streaming histogram.

    Values land in buckets ``(base**(i-1), base**i]`` with
    ``base = 2**0.25``; non-positive values land in a dedicated zero
    bucket.  ``count``/``sum``/``min``/``max`` are exact; quantiles are
    read as the upper bound of the bucket where the cumulative count
    crosses ``ceil(q * count)``, so they are within one bucket width
    (~19 %) of the true empirical quantile.

    Recording is two dict updates and five scalar updates (one
    ``math.log`` for positive values; the fifth bumps the change count
    that invalidates the rendered summary) — cheap enough to sit on the
    tier-1 serving path.
    """

    __slots__ = ("counts", "count", "sum", "min", "max", "_changes", "_wire")

    def __init__(self) -> None:
        self.counts: dict[int, int] = {}
        self.count = 0
        self.sum = 0.0
        self.min = math.inf
        self.max = -math.inf
        #: Bumped by every change; tags the rendered text it was read at.
        self._changes = 0
        self._wire: "tuple[int, str] | None" = None

    @staticmethod
    def bucket_index(value: float) -> int:
        """The bucket holding ``value`` (``ZERO_BUCKET`` for <= 0)."""
        if value <= 0.0:
            return ZERO_BUCKET
        return math.ceil(math.log(value) * _INV_LOG_BASE)

    @staticmethod
    def bucket_upper(index: int) -> float:
        """The inclusive upper bound of bucket ``index``."""
        if index == ZERO_BUCKET:
            return 0.0
        return HIST_BASE ** index

    def record(self, value: float) -> None:
        """Fold one observation in."""
        if value <= 0.0:
            idx = ZERO_BUCKET
        else:
            idx = math.ceil(math.log(value) * _INV_LOG_BASE)
        counts = self.counts
        counts[idx] = counts.get(idx, 0) + 1
        self.count += 1
        self.sum += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        self._changes += 1

    def record_many(self, value: float, n: int) -> None:
        """Fold ``n`` identical observations in — one bucket update.

        Equivalent to ``n`` calls to :meth:`record` (the sum differs
        only by float addition order).  This is the batched-drain fast
        path: the service groups buffered observations by value first,
        so a whole batch of tier-1 answers lands as one dict update.
        """
        if value <= 0.0:
            idx = ZERO_BUCKET
        else:
            idx = math.ceil(math.log(value) * _INV_LOG_BASE)
        counts = self.counts
        counts[idx] = counts.get(idx, 0) + n
        self.count += n
        self.sum += value * n
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        self._changes += 1

    def merge(self, other: "Hist") -> "Hist":
        """Fold ``other`` in (bucket-wise addition); returns ``self``.

        ``merge(a, b)`` leaves ``a`` with exactly the bucket counts,
        count, min and max it would hold had it been fed ``b``'s stream
        after its own (sums agree up to float addition order).
        """
        counts = self.counts
        for idx, n in other.counts.items():
            counts[idx] = counts.get(idx, 0) + n
        self.count += other.count
        self.sum += other.sum
        if other.min < self.min:
            self.min = other.min
        if other.max > self.max:
            self.max = other.max
        self._changes += 1
        return self

    def quantile(self, q: float) -> "float | None":
        """The bucket upper bound at quantile ``q`` (``None`` if empty)."""
        if not self.count:
            return None
        k = min(max(math.ceil(q * self.count), 1), self.count)
        cumulative = 0
        for idx in sorted(self.counts):
            cumulative += self.counts[idx]
            if cumulative >= k:
                return self.bucket_upper(idx)
        return self.bucket_upper(idx)  # pragma: no cover - unreachable

    def percentiles(self) -> dict:
        """``{"p50": ..., "p90": ..., "p99": ...}`` (``None`` if empty)."""
        return {name: self.quantile(q) for q, name in _QUANTILES}

    def wire(self) -> str:
        """The JSON summary as wire text, rendered once per change.

        Sorted keys, compact separators and the floats the service's
        wire encoder writes, so the text splices into a ``metrics``
        reply as-is.  The summary holds exact moments, the three
        quantiles and sparse ``buckets`` rows ``[upper_bound, count]``
        in bucket order (non-cumulative); every float is rounded to 9
        decimals so logical-clock twins encode byte-identically.  One
        sorted walk serves the bucket rows and all three quantiles.
        The text is cached until the next :meth:`record`,
        :meth:`record_many` or :meth:`merge` — also one that lands
        while the text renders (the TCP transport's worker threads
        share the plane), since the cache is tagged with the change
        count it was read at.
        """
        changes = self._changes
        cached = self._wire
        if cached is not None and cached[0] == changes:
            return cached[1]
        n = self.count
        uppers = _UPPER_TEXT
        rows = []
        marks = []
        # A whole cumulative count reaches ceil(q * n) exactly when it
        # reaches q * n, and ceil(q * n) already lies in [1, n] for
        # n >= 1.  The trailing infinite cut stops the walk.
        cuts = [q * n for q, _name in _QUANTILES]
        cuts.append(math.inf)
        cut = cuts[0]
        cumulative = 0
        for idx, count in sorted(self.counts.items()):
            upper = uppers.get(idx)
            if upper is None:
                upper = uppers[idx] = _wire_number(
                    round(self.bucket_upper(idx), 9)
                )
            rows.append(f"[{upper},{count}]")
            cumulative += count
            while cumulative >= cut:
                marks.append(upper)
                cut = cuts[len(marks)]
        if n:
            low = _wire_number(round(self.min, 9))
            high = _wire_number(round(self.max, 9))
        else:
            marks = ["null"] * len(_QUANTILES)
            low = high = "null"
        total = _wire_number(round(self.sum, 9))
        if len(marks) == len(_QUANTILES):
            text = _SUMMARY_WIRE % (
                ",".join(rows), n, high, low, *marks, total
            )
        else:
            # Records racing on other threads can lose bucket updates
            # and leave the counts short of n: the quantiles the walk
            # never reached are left out, as the summary always did.
            text = "".join([
                '{"buckets":[', ",".join(rows), '],"count":', str(n),
                ',"max":', high, ',"min":', low,
                *[
                    f',"{name}":{mark}'
                    for (_q, name), mark in zip(_QUANTILES, marks)
                ],
                ',"sum":', total, "}",
            ])
        self._wire = (changes, text)
        return text

    def to_dict(self) -> dict:
        """The JSON summary (see :meth:`wire`): that text, parsed.

        Keys come in the wire's sorted order; the dict and the wire
        form cannot disagree.
        """
        return json.loads(self.wire())


class FlightRecorder:
    """A bounded ring buffer of recent spans and notable events.

    Two independent rings: ``spans`` holds the last N *completed
    request spans* (method, tier tag, wall time), ``events`` the last
    K notable events (typed errors, degraded answers, slow requests,
    drift detections, breaker trips).  Both rings are C-evicting
    :class:`~collections.deque`\\ s; span sequence numbers are not
    stored but derived — span ``i`` of the retained window has
    sequence ``span_total - len(window) + i`` — so :meth:`spans` can
    still tell a reader how much history fell off the end.  Spans
    arrive either one at a time (:meth:`note_span`) or as a whole
    drained batch (:meth:`note_spans`, one C-speed ``extend``).
    """

    def __init__(
        self,
        span_capacity: int = SPAN_CAPACITY,
        event_capacity: int = EVENT_CAPACITY,
    ) -> None:
        if span_capacity < 1 or event_capacity < 1:
            raise ValueError(
                f"ring capacities must be >= 1, got "
                f"({span_capacity}, {event_capacity})"
            )
        self.span_capacity = span_capacity
        self.event_capacity = event_capacity
        self._spans: deque = deque(maxlen=span_capacity)
        self._events: deque = deque(maxlen=event_capacity)
        self.span_total = 0  # spans ever recorded (seq source)
        self.event_total = 0

    def note_span(self, t: float, name: str, wall_s: float, tag=None) -> None:
        """Record one completed span (overwrites the oldest when full).

        ``tag`` is one scalar annotation (the service stores the answer
        tier).  Stores a bare ``(t, name, wall_s, tag)`` tuple;
        :meth:`spans` renders the dict form.
        """
        self._spans.append((t, name, wall_s, tag))
        self.span_total += 1

    def note_spans(self, batch: list) -> None:
        """Bulk-record completed ``(t, name, wall_s, tag)`` spans.

        One ``deque.extend`` — the ring keeps the newest
        ``span_capacity`` of the batch, exactly as if each span had
        been fed through :meth:`note_span` in order.
        """
        self._spans.extend(batch)
        self.span_total += len(batch)

    def note_event(
        self, t: float, kind: str, tags: "Mapping | None" = None
    ) -> None:
        """Record one notable event (overwrites the oldest when full)."""
        record = {"seq": self.event_total, "t": round(t, 6), "kind": kind}
        if tags:
            record["tags"] = dict(tags)
        self._events.append(record)
        self.event_total += 1

    def spans(self) -> list:
        """Retained spans as JSON-able dicts, oldest first."""
        base = self.span_total - len(self._spans)
        return [
            {
                "seq": base + i,
                "t": round(t, 6),
                "name": name,
                "wall_s": round(wall_s, 9),
                "tag": tag,
            }
            for i, (t, name, wall_s, tag) in enumerate(self._spans)
        ]

    def events(self) -> list:
        """Retained events, oldest first."""
        return list(self._events)

    def occupancy(self) -> dict:
        """Ring fill state for ``health``/``metrics`` payloads."""
        return {
            "spans": len(self._spans),
            "span_capacity": self.span_capacity,
            "span_total": self.span_total,
            "events": len(self._events),
            "event_capacity": self.event_capacity,
            "event_total": self.event_total,
        }

    def dump(self) -> dict:
        """Everything retained, JSON-able, oldest first — on demand,
        on breaker trip, or on crash; never waits for process exit."""
        return {
            "occupancy": self.occupancy(),
            "spans": self.spans(),
            "events": self.events(),
        }


class LivePlane:
    """The always-on online metrics registry for one serving process.

    Named :class:`Hist` histograms, named integer counters and one
    :class:`FlightRecorder` — zero external dependencies, no background
    threads, no wall-clock reads of its own (every duration recorded
    into it was measured on the caller's clock).  Distinct from
    :data:`repro.obs.metrics.metrics`: that registry only fills while a
    :class:`~repro.obs.recorder.TraceRecorder` is installed; the live
    plane is always on and must therefore stay cheap enough to never
    need a switch.
    """

    enabled = True

    def __init__(
        self,
        span_capacity: int = SPAN_CAPACITY,
        event_capacity: int = EVENT_CAPACITY,
    ) -> None:
        self.hists: dict[str, Hist] = {}
        self.counters: dict[str, int] = {}
        self.flight = FlightRecorder(span_capacity, event_capacity)
        #: (method, tier) -> (method view, tier view or None), built on
        #: first use — two f-strings per drained group are measurable.
        self._latency_views: dict[tuple, tuple] = {}
        #: ``(name, encoded name key)`` of :attr:`hists`, sorted by name.
        self._wire_order: list[tuple[str, str]] = []

    def hist(self, name: str) -> Hist:
        """The named histogram (created empty on first use)."""
        hist = self.hists.get(name)
        if hist is None:
            hist = self.hists[name] = Hist()
        return hist

    def record(self, name: str, value: float) -> None:
        """Fold ``value`` into the named histogram."""
        self.hist(name).record(value)

    def count(self, name: str, n: int = 1) -> None:
        """Add ``n`` to the named counter (created at zero)."""
        counters = self.counters
        counters[name] = counters.get(name, 0) + n

    def record_latency(self, method: str, tier, wall_s: float, n: int) -> None:
        """Fold ``n`` requests of one ``(method, tier)`` group, each
        ``wall_s`` long, into the latency views.

        The group lands in ``service.latency.method.<method>`` and,
        unless the answer carried no tier (``-``), in
        ``service.latency.tier.<tier>`` — two bucket updates, at drain
        time, so reading the views merges nothing.
        """
        views = self._latency_views.get((method, tier))
        if views is None:
            views = self._latency_views[(method, tier)] = (
                self.hist(f"service.latency.method.{method}"),
                None if tier == "-"
                else self.hist(f"service.latency.tier.{tier}"),
            )
        by_method, by_tier = views
        by_method.record_many(wall_s, n)
        if by_tier is not None:
            by_tier.record_many(wall_s, n)

    def histograms_wire(self) -> str:
        """The ``histograms`` object of :meth:`snapshot` as wire text.

        Sorted by name and joined from each histogram's cached
        :meth:`Hist.wire` text and its cached encoded name, so only the
        histograms that changed since the last call are rendered.
        """
        hists = self.hists
        order = self._wire_order
        if len(order) != len(hists):  # histograms are only ever added
            order = self._wire_order = [
                (name, json.dumps(name) + ":") for name in sorted(hists)
            ]
        return "{" + ",".join([
            key + hists[name].wire() for name, key in order
        ]) + "}"

    def snapshot(self) -> dict:
        """JSON-able plane state: counters, histogram summaries and
        flight-recorder occupancy.  Stable ordering throughout."""
        return {
            "counters": {
                name: self.counters[name] for name in sorted(self.counters)
            },
            "histograms": json.loads(self.histograms_wire()),
            "flight_recorder": self.flight.occupancy(),
        }


class NullLivePlane(LivePlane):
    """A disabled plane: every write is a no-op (overhead measurement).

    The live plane ships always-on; this exists so
    ``scripts/bench_service.py`` can measure exactly what that costs
    (and gate it under 5 %), and so library callers embedding
    :class:`~repro.service.server.PlacementService` can opt out.
    """

    enabled = False

    def record(self, name: str, value: float) -> None:  # noqa: D102
        pass

    def count(self, name: str, n: int = 1) -> None:  # noqa: D102
        pass

    def record_latency(  # noqa: D102
        self, method: str, tier, wall_s: float, n: int
    ) -> None:
        pass


#: Drift regimes, DAMOV-style: what kind of bound moved the classes.
REGIME_BANDWIDTH = "bandwidth-bound"
REGIME_CONTENTION = "contention-bound"
REGIME_LATENCY = "latency-bound"
REGIME_RECLASSIFIED = "reclassified"


def classify_regime(
    old_avgs: "Mapping[int, float]",
    new_avgs: "Mapping[int, float]",
    threshold: float,
) -> tuple[str, float]:
    """Label how the class model moved between two characterizations.

    Returns ``(regime, mean_abs_shift)`` from the per-class relative
    deltas of the ranks both models share, DAMOV-style:

    * ``bandwidth-bound`` — every shared class shifted by about the
      same fraction: the pipe itself changed (a throttled link, a
      derated controller), the class *structure* held.
    * ``contention-bound`` — classes shifted unequally (spread larger
      than half the mean shift): some classes' shared paths are
      contended while others are not.
    * ``latency-bound`` — the mean shift is below ``threshold``: the
      deviation did not come from class-level bandwidth at all
      (timing/noise-level movement).
    * ``reclassified`` — the models share no class ranks; the
      equivalence structure itself changed.
    """
    shared = sorted(set(old_avgs) & set(new_avgs))
    if not shared:
        return REGIME_RECLASSIFIED, math.inf
    deltas = [
        (new_avgs[rank] - old_avgs[rank]) / old_avgs[rank] for rank in shared
    ]
    mean_abs = sum(abs(d) for d in deltas) / len(deltas)
    if mean_abs < threshold:
        return REGIME_LATENCY, mean_abs
    spread = max(deltas) - min(deltas)
    if spread > 0.5 * mean_abs:
        return REGIME_CONTENTION, mean_abs
    return REGIME_BANDWIDTH, mean_abs


class DriftWatch:
    """Detect served answers drifting away from the characterization.

    Per ``(target, mode)`` the watch keeps the latest tier-3 class
    model (its per-class averages and their mean) and an online
    estimator of the class-model mean behind every tier-1/2 answer
    served since.  When the next solve lands, the relative deviation
    of what was *served* (the estimator mean — exactly the superseded
    model when no fault intervened) from what is now *observed* (the
    fresh solve) is computed; past ``threshold`` the watch emits one
    flight-recorder ``drift`` event carrying the deviation, the
    DAMOV-style regime, and the exposure (answers served off the
    superseded model), and bumps the ``service.drift.*`` counters —
    the trigger a future online re-characterization loop consumes.

    Folding an answer in is one flat three-scalar ``list.extend`` on
    the tier-1 path (flat so the pending buffer stays invisible to the
    cyclic GC); the buffered ``target, mode, model_mean`` triples are
    grouped (C-speed :class:`~collections.Counter` — a fast tier
    serves the same model mean until superseded, so a batch collapses
    to a handful of groups) and folded into the estimators whenever a
    solve lands or the stats are read.
    """

    #: Pending-answer buffer size that forces a fold (memory bound).
    PENDING_CAP = 8192

    def __init__(self, plane: LivePlane, threshold: float = 0.10) -> None:
        if not 0.0 < threshold < 1.0:
            raise ValueError(
                f"drift threshold must be in (0, 1), got {threshold}"
            )
        self.plane = plane
        self.threshold = threshold
        #: (target, mode) -> (model mean Gbps, {rank: avg}) of latest solve
        self.refs: dict[tuple[int, str], tuple[float, dict[int, float]]] = {}
        #: (target, mode) -> [answers served, summed model means]
        self.served: dict[tuple[int, str], list] = {}
        #: served answers appended but not yet folded into ``served``
        self._pending: list = []
        #: The C fast path the backend binds: ``note_fast((t, m, mean))``
        #: is ``note_answer`` without the Python frame.  ``_pending`` is
        #: only ever cleared in place, so the bound method stays valid.
        self.note_fast = self._pending.extend
        self.events = 0
        self.last: "dict | None" = None

    def note_answer(self, target: int, mode: str, model_mean: float) -> None:
        """Fold one served tier-1/2 answer into its online estimator.

        Deliberately just the extend — no cap check here; this sits on
        the tier-1 serving path.  The buffer is bounded by the owner:
        every solve and every stats read folds it, and the service's
        periodic observation drain calls :meth:`fold_if_large`.
        """
        self._pending.extend((target, mode, model_mean))

    def fold_if_large(self) -> None:
        """Fold the pending buffer once it crosses :data:`PENDING_CAP`
        triples — the memory bound, checked batched by the owner."""
        if len(self._pending) >= 3 * self.PENDING_CAP:
            self._fold_pending()

    def _fold_pending(self) -> None:
        """Group and fold buffered answers into :attr:`served`."""
        pending = self._pending
        if not pending:
            return
        served = self.served
        groups = Counter(zip(pending[0::3], pending[1::3], pending[2::3]))
        for (target, mode, model_mean), n in groups.items():
            est = served.get((target, mode))
            if est is None:
                served[(target, mode)] = [n, model_mean * n]
            else:
                est[0] += n
                est[1] += model_mean * n
        pending.clear()

    def note_solve(
        self,
        target: int,
        mode: str,
        class_avgs: "Mapping[int, float]",
        now: float,
    ) -> "dict | None":
        """Fold one completed tier-3 solve in; returns the drift event
        it fired, or ``None`` while observation tracks the model."""
        self._fold_pending()  # answers served before this solve count
        key = (target, mode)
        avgs = dict(class_avgs)
        mean = sum(avgs.values()) / len(avgs)
        previous = self.refs.get(key)
        served = self.served.pop(key, None)
        self.refs[key] = (mean, avgs)
        if previous is None:
            return None  # first characterization: nothing to drift from
        plane = self.plane
        plane.count("service.drift.checks")
        prev_mean, prev_avgs = previous
        # What the fast tiers served since the last solve; with no
        # tier-1/2 traffic in between, the superseded model itself.
        served_mean = served[1] / served[0] if served else prev_mean
        deviation = abs(served_mean - mean) / mean
        if deviation <= self.threshold:
            return None
        regime, shift = classify_regime(prev_avgs, avgs, self.threshold)
        self.events += 1
        event = {
            "target": target,
            "mode": mode,
            "deviation": round(deviation, 6),
            "regime": regime,
            "served_answers": served[0] if served else 0,
            "served_mean_gbps": round(served_mean, 6),
            "observed_mean_gbps": round(mean, 6),
            "mean_abs_shift": round(shift, 6) if shift != math.inf else None,
        }
        self.last = event
        plane.count("service.drift.events")
        plane.count(f"service.drift.regime.{regime}")
        plane.flight.note_event(now, "drift", event)
        # Mirror into the post-mortem registry when a recorder is live,
        # so --obs-dir manifests carry the drift verdicts too.
        _obs.count("service.drift.events")
        return event

    def stats(self) -> dict:
        """JSON-able watch state for ``metrics`` payloads."""
        self._fold_pending()
        return {
            "threshold": self.threshold,
            "events": self.events,
            "watched": len(self.refs),
            "last": self.last,
        }


# --- Prometheus-style exposition -------------------------------------------

def _sanitize(name: str) -> str:
    """A metric name Prometheus accepts: ``[a-zA-Z0-9_]`` only."""
    return "".join(
        ch if ch.isalnum() or ch == "_" else "_" for ch in name
    )


def _fmt(value) -> str:
    """A float/int formatted the way the exposition format expects."""
    if value is None:
        return "NaN"
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    return repr(float(value))


def render_scrape(payload: Mapping, prefix: str = "repro") -> str:
    """The ``metrics`` payload as Prometheus-style text exposition.

    Stable ordering (sorted names, sorted buckets), no clock reads —
    the output is a pure function of the payload, which is what lets
    ``scripts/obs_smoke.sh`` hold a golden copy of a deterministic
    session's scrape.  Histograms emit cumulative ``_bucket{le=...}``
    rows plus ``_count``/``_sum`` and ``p50/p90/p99`` quantile rows;
    counters and gauges emit single sample rows.
    """
    lines: list[str] = []

    uptime = payload.get("uptime_s")
    if uptime is not None:
        lines.append(f"# TYPE {prefix}_uptime_seconds gauge")
        lines.append(f"{prefix}_uptime_seconds {_fmt(uptime)}")
    if "requests" in payload:
        lines.append(f"# TYPE {prefix}_service_requests_total counter")
        lines.append(
            f"{prefix}_service_requests_total {_fmt(payload['requests'])}"
        )
    if "degraded_served" in payload:
        lines.append(f"# TYPE {prefix}_service_degraded_served_total counter")
        lines.append(
            f"{prefix}_service_degraded_served_total "
            f"{_fmt(payload['degraded_served'])}"
        )

    breaker = payload.get("breaker")
    if breaker:
        lines.append(f"# TYPE {prefix}_breaker_state gauge")
        lines.append(
            f'{prefix}_breaker_state{{state="{breaker["state"]}"}} 1'
        )
        lines.append(f"# TYPE {prefix}_breaker_trips_total counter")
        lines.append(
            f"{prefix}_breaker_trips_total {_fmt(breaker['trips'])}"
        )

    tiers = payload.get("tiers")
    if tiers:
        lines.append(f"# TYPE {prefix}_service_tier_answers_total counter")
        for tier in sorted(tiers):
            lines.append(
                f'{prefix}_service_tier_answers_total{{tier="{tier}"}} '
                f"{_fmt(tiers[tier])}"
            )

    errors = payload.get("errors")
    if errors is not None:
        lines.append(f"# TYPE {prefix}_service_errors_total counter")
        for kind in sorted(errors):
            lines.append(
                f'{prefix}_service_errors_total{{kind="{kind}"}} '
                f"{_fmt(errors[kind])}"
            )

    counters = payload.get("counters") or {}
    for name in sorted(counters):
        metric = f"{prefix}_{_sanitize(name)}_total"
        lines.append(f"# TYPE {metric} counter")
        lines.append(f"{metric} {_fmt(counters[name])}")

    histograms = payload.get("histograms") or {}
    for name in sorted(histograms):
        summary = histograms[name]
        metric = f"{prefix}_{_sanitize(name)}_seconds"
        lines.append(f"# TYPE {metric} histogram")
        cumulative = 0
        for upper, count in summary.get("buckets", ()):
            cumulative += count
            lines.append(
                f'{metric}_bucket{{le="{_fmt(upper)}"}} {cumulative}'
            )
        lines.append(
            f'{metric}_bucket{{le="+Inf"}} {summary["count"]}'
        )
        lines.append(f"{metric}_count {summary['count']}")
        lines.append(f"{metric}_sum {_fmt(summary['sum'])}")
        for quantile, key in (("0.5", "p50"), ("0.9", "p90"), ("0.99", "p99")):
            value = summary.get(key)
            if value is not None:
                lines.append(
                    f'{metric}{{quantile="{quantile}"}} {_fmt(value)}'
                )

    drift = payload.get("drift")
    if drift:
        lines.append(f"# TYPE {prefix}_service_drift_watched gauge")
        lines.append(
            f"{prefix}_service_drift_watched {_fmt(drift['watched'])}"
        )

    occupancy = payload.get("flight_recorder")
    if occupancy:
        lines.append(f"# TYPE {prefix}_flight_recorder_occupancy gauge")
        for key in sorted(occupancy):
            lines.append(
                f'{prefix}_flight_recorder_occupancy{{ring="{key}"}} '
                f"{_fmt(occupancy[key])}"
            )

    return "\n".join(lines) + "\n"
