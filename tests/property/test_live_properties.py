"""Merge laws, wire rendering and ring invariants of the live plane.

``merge(a, b)`` must be indistinguishable (buckets, count, min, max;
sum up to float addition order) from one histogram fed the
concatenated stream, so histograms recorded apart can be combined.
Each histogram's cached wire text must equal, after any mix of
``record``, ``record_many`` and ``merge``, the wire encoding of the
summary the pre-renderer ``Hist.to_dict`` built (frozen below).  The
flight recorder's ring must retain exactly the newest records,
oldest-first, across any wraparound.
"""

import math
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.live import HIST_BASE, FlightRecorder, Hist
from repro.service.protocol import encode_wire

#: Observed values: durations (tiny to huge) plus the zero-bucket edge
#: cases the logical clock produces.
VALUES = st.one_of(
    st.floats(1e-9, 1e9, allow_nan=False, allow_infinity=False),
    st.just(0.0),
    st.floats(-10.0, 0.0, allow_nan=False),
)
STREAMS = st.lists(VALUES, min_size=0, max_size=200)


def fed(values) -> Hist:
    h = Hist()
    for v in values:
        h.record(v)
    return h


QUANTILES = ((0.50, "p50"), (0.90, "p90"), (0.99, "p99"))


def frozen_summary(h: Hist) -> dict:
    """The body of ``Hist.to_dict`` before the wire renderer, frozen."""
    items = sorted(h.counts.items())
    n = h.count
    summary = {
        "count": n,
        "sum": round(h.sum, 9),
        "min": round(h.min, 9) if n else None,
        "max": round(h.max, 9) if n else None,
        "buckets": [
            [round(h.bucket_upper(idx), 9), count]
            for idx, count in items
        ],
    }
    if not n:
        for _q, name in QUANTILES:
            summary[name] = None
        return summary
    targets = [
        (min(max(math.ceil(q * n), 1), n), name) for q, name in QUANTILES
    ]
    cumulative = 0
    pos = 0
    for (upper, count), _idx in zip(summary["buckets"], items):
        cumulative += count
        while pos < len(targets) and cumulative >= targets[pos][0]:
            summary[targets[pos][1]] = upper
            pos += 1
        if pos == len(targets):
            break
    return summary


#: Rendering edge cases on top of VALUES: bucket-bound extremes, the
#: smallest subnormal (its bucket bound rounds to 0.0), -inf (a zero
#: bucket entry whose sum and min encode as -Infinity) and values
#: large enough that a batch's sum overflows to Infinity.
EDGE_VALUES = st.sampled_from(
    [5e-324, 1e-300, 1e-9, 1.0, 1e300, 1.7e308, -math.inf, -0.0]
)

#: One mutation: ("record", v), ("record_many", v, n) or ("merge", ops)
#: where ``ops`` feed the merged-in histogram; the last kind of merge
#: spreads its values over many buckets.
_FEED = st.one_of(
    st.tuples(st.just("record"), st.one_of(VALUES, EDGE_VALUES)),
    st.tuples(
        st.just("record_many"),
        st.one_of(VALUES, EDGE_VALUES),
        st.integers(1, 10**6),
    ),
)
_SPREAD = st.lists(
    st.tuples(st.just("record"), st.floats(1e-9, 1e9)),
    min_size=20, max_size=100,
)
MUTATIONS = st.one_of(
    _FEED,
    st.tuples(st.just("merge"), st.lists(_FEED, max_size=20)),
    st.tuples(st.just("merge"), _SPREAD),
)


def apply(h: Hist, op) -> None:
    if op[0] == "record":
        h.record(op[1])
    elif op[0] == "record_many":
        h.record_many(op[1], op[2])
    else:
        other = Hist()
        for inner in op[1]:
            apply(other, inner)
        h.merge(other)


class TestMergeLaws:
    @given(left=STREAMS, right=STREAMS)
    @settings(max_examples=150, deadline=None)
    def test_merge_equals_concatenated_stream(self, left, right):
        merged = fed(left).merge(fed(right))
        concat = fed(left + right)
        assert merged.counts == concat.counts
        assert merged.count == concat.count
        assert merged.min == concat.min
        assert merged.max == concat.max
        assert merged.sum == pytest.approx(concat.sum, rel=1e-9, abs=1e-12)

    @given(values=STREAMS)
    @settings(max_examples=100, deadline=None)
    def test_merge_with_empty_is_identity(self, values):
        base = fed(values)
        merged = fed(values).merge(Hist())
        assert merged.counts == base.counts
        assert merged.count == base.count
        other = Hist().merge(fed(values))
        assert other.counts == base.counts

    @given(a=STREAMS, b=STREAMS)
    @settings(max_examples=100, deadline=None)
    def test_merge_is_commutative_on_buckets(self, a, b):
        ab = fed(a).merge(fed(b))
        ba = fed(b).merge(fed(a))
        assert ab.counts == ba.counts
        assert ab.count == ba.count
        assert ab.min == ba.min and ab.max == ba.max


class TestWireRender:
    @given(ops=st.lists(MUTATIONS, max_size=40))
    @settings(max_examples=200, deadline=None)
    def test_render_matches_frozen_summary_after_every_change(self, ops):
        h = Hist()
        for op in [None, *ops]:
            if op is not None:
                apply(h, op)
            frozen = frozen_summary(h)
            # Rendered between mutations: a cache that outlives a
            # change renders the previous summary and fails here.
            assert h.wire() == encode_wire(frozen)
            assert h.wire() == encode_wire(frozen)  # the cached text
            got = h.to_dict()
            # -inf plus an overflowed +inf sums to NaN, which no dict
            # equals; the encoded forms must then match exactly.
            assert got == frozen or encode_wire(got) == encode_wire(frozen)
            assert list(got) == sorted(frozen)


    def test_render_racing_records_caches_no_stale_text(self):
        # The TCP transport's worker threads share one plane: a record
        # that lands while another thread renders must not leave the
        # text it raced cached, and counts torn by racing records
        # (lost updates) must still render.
        h = Hist()
        stop = threading.Event()
        errors = []

        def render():
            try:
                while not stop.is_set():
                    h.wire()
            except Exception as exc:  # surfaced by the assert below
                errors.append(exc)

        def feed(step):
            for i in range(3000):
                h.record_many(1e-6 * (1 + (i * step) % 97), 1)

        renderers = [threading.Thread(target=render) for _ in range(2)]
        feeders = [threading.Thread(target=feed, args=(k,)) for k in (3, 5, 7)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in renderers + feeders:
                thread.start()
            for thread in feeders:
                thread.join(timeout=60)
        finally:
            stop.set()
            for thread in renderers:
                thread.join(timeout=60)
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in renderers + feeders)
        assert errors == []
        assert h.wire() == encode_wire(frozen_summary(h))

    def test_counts_short_of_count_leave_quantiles_out(self):
        # What a lost bucket update leaves behind: counts adding up to
        # less than ``count``.
        h = fed([0.001, 0.002, 0.004])
        h.count += 5
        h.record(0.003)  # a change, so the text renders again
        assert h.wire() == encode_wire(frozen_summary(h))
        assert "p99" not in h.to_dict()


class TestBucketLaws:
    @given(value=st.floats(1e-12, 1e12, allow_nan=False))
    @settings(max_examples=200, deadline=None)
    def test_bucket_contains_value(self, value):
        idx = Hist.bucket_index(value)
        upper = Hist.bucket_upper(idx)
        lower = upper / HIST_BASE
        assert value <= upper * (1 + 1e-12)
        assert value >= lower * (1 - 1e-12)

    @given(
        a=st.floats(1e-12, 1e12, allow_nan=False),
        b=st.floats(1e-12, 1e12, allow_nan=False),
    )
    @settings(max_examples=200, deadline=None)
    def test_bucket_index_is_monotone(self, a, b):
        if a > b:
            a, b = b, a
        assert Hist.bucket_index(a) <= Hist.bucket_index(b)

    @given(values=st.lists(st.floats(1e-9, 1e9, allow_nan=False),
                           min_size=1, max_size=100),
           q=st.sampled_from([0.5, 0.9, 0.99]))
    @settings(max_examples=150, deadline=None)
    def test_quantile_within_one_bucket_width(self, values, q):
        h = fed(values)
        got = h.quantile(q)
        ordered = sorted(values)
        true = ordered[min(max(math.ceil(q * len(values)), 1),
                           len(values)) - 1]
        # The reported quantile is a bucket upper bound: at least the
        # true empirical quantile, at most one bucket width above it.
        assert got >= true * (1 - 1e-12)
        assert got <= true * HIST_BASE * (1 + 1e-12)


class TestFlightRing:
    @given(capacity=st.integers(1, 16), total=st.integers(0, 64))
    @settings(max_examples=150, deadline=None)
    def test_ring_retains_newest_oldest_first(self, capacity, total):
        fr = FlightRecorder(span_capacity=capacity, event_capacity=capacity)
        for i in range(total):
            fr.note_span(float(i), f"m{i}", i * 0.5, tag=i % 3)
            fr.note_event(float(i), "error", {"i": i})
        spans = fr.spans()
        events = fr.events()
        expected = list(range(max(0, total - capacity), total))
        assert [s["seq"] for s in spans] == expected
        assert [e["seq"] for e in events] == expected
        assert [s["name"] for s in spans] == [f"m{i}" for i in expected]
        occ = fr.occupancy()
        assert occ["spans"] == min(total, capacity)
        assert occ["span_total"] == total
