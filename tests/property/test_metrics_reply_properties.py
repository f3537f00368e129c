"""The spliced ``metrics`` reply equals encoding the metrics payload.

``PlacementService.handle_line`` answers ``metrics`` by encoding the
envelope without its histograms and splicing in their cached wire
texts.  After any request history — hostile method names, typed
errors, answers from every tier, slow lines — and with ``flight`` true
or false, the reply must stay byte-identical to
``encode_message(result_response(id, metrics_payload(flight)))``, and
the payload's histograms must equal the summaries the pre-renderer
``Hist.to_dict`` built.
"""

import itertools
import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.live import NullLivePlane
from repro.rng import RngRegistry
from repro.service import AdvisoryBackend, PlacementService
from repro.service.protocol import encode_message, result_response
from repro.topology.builders import reference_host
from tests.property.test_live_properties import frozen_summary

MACHINE = reference_host()

#: Target 7 is warmed (tiers 1 and 2); target 6 is not, so its first
#: answer per mode is a tier-3 solve.
TARGETS = st.sampled_from([6, 7])
MODES = st.sampled_from(["write", "read"])

#: Method names no schema knows, including ones that spell the splice
#: point and JSON syntax; they reach the flight dump unsanitized.
HOSTILE_METHODS = st.one_of(
    st.sampled_from([
        "evacuate", ',"machine":', '"histograms":{}', "metrics ",
        "☃", "",
    ]),
    st.text(max_size=12),
)


def _line(req_id, method, params=None) -> str:
    msg = {"jsonrpc": "2.0", "id": req_id, "method": method}
    if params is not None:
        msg["params"] = params
    return json.dumps(msg)


#: (method, params) of one request; ``None`` method = a raw junk line.
REQUESTS = st.one_of(
    st.builds(lambda t, m, n: ("advise", {"target": t, "mode": m,
                                          "tasks": n}),
              TARGETS, MODES, st.integers(1, 8)),
    st.builds(lambda t, s: ("predict_eq1", {"target": t, "streams": s}),
              TARGETS, st.lists(st.integers(0, 7), min_size=1, max_size=4)),
    st.builds(lambda t, m: ("classify", {"target": t, "mode": m}),
              TARGETS, MODES),
    st.builds(lambda w: ("plan", {"write_weight": w}),
              st.floats(0.0, 1.0)),
    st.sampled_from([("health", None), ("ready", None)]),
    st.builds(lambda f: ("metrics", {"flight": f}), st.booleans()),
    st.builds(lambda m: (m, None), HOSTILE_METHODS),  # method_not_found
    st.just(("advise", {"target": 7, "mode": "sideways", "tasks": 0})),
    st.builds(lambda t: ("classify", {"target": t, "deadline_ms": 0}),
              TARGETS),
    st.builds(lambda junk: (None, junk), st.text(max_size=20)),
)

#: Per-read clock steps: zero, sub-microsecond to slow (>= 0.25 s).
STEPS = st.lists(
    st.one_of(st.just(0.0), st.floats(1e-7, 0.5)), min_size=1, max_size=6
)


class StepClock:
    """A service clock that moves a scripted step at every read, so
    per-line latencies vary, unless held still."""

    def __init__(self, steps) -> None:
        self.now = 0.0
        self.held = False
        self._steps = itertools.cycle(steps)

    def __call__(self) -> float:
        if not self.held:
            self.now += next(self._steps)
        return self.now


def expected_reply(service, req_id, flight: bool) -> str:
    """What encoding the payload gives, at the state the reply sees.

    ``handle_request`` counts the line before it dispatches; draining
    the plane early changes nothing the reply reads.
    """
    service.requests += 1
    payload = service.metrics_payload(flight)
    service.requests -= 1
    hists = service.live.hists
    assert payload["histograms"] == {
        name: frozen_summary(hists[name]) for name in sorted(hists)
    }
    return encode_message(result_response(req_id, payload))


def check_metrics(service, clock, req_id, params) -> None:
    clock.held = True  # the oracle and the reply read one uptime
    try:
        want = expected_reply(service, req_id, params["flight"])
        got = service.handle_line(_line(req_id, "metrics", params))
    finally:
        clock.held = False
    assert got == want


@given(requests=st.lists(REQUESTS, min_size=5, max_size=60), steps=STEPS,
       flight=st.booleans())
@settings(max_examples=50, deadline=None)
def test_spliced_metrics_reply_matches_encoded_payload(requests, steps,
                                                       flight):
    clock = StepClock(steps)
    backend = AdvisoryBackend(MACHINE, registry=RngRegistry(5), runs=3)
    service = PlacementService(backend, clock=clock)
    backend.warm((7,))
    for req_id, (method, params) in enumerate(requests):
        if method is None:
            service.handle_line(params)
        elif method == "metrics":
            check_metrics(service, clock, req_id, params)
        else:
            service.handle_line(_line(req_id, method, params))
    check_metrics(service, clock, "last", {"flight": flight})


@given(flight=st.booleans())
@settings(max_examples=4, deadline=None)
def test_null_plane_metrics_reply_matches_encoded_payload(flight):
    clock = StepClock([0.001])
    backend = AdvisoryBackend(MACHINE, registry=RngRegistry(5), runs=3)
    service = PlacementService(backend, clock=clock, live=NullLivePlane())
    service.handle_line(_line(1, "classify", {"target": 7}))
    check_metrics(service, clock, 2, {"flight": flight})
