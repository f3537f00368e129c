"""The fio engine's list loop against the flow network it replaced.

:class:`~repro.bench.engines.DeviceIOEngine` runs a size-based job whose
capacity and demands are positive and finite through
:func:`~repro.flows.network.shared_finish`: n streams that start
together with one size on one device resource, stepped over plain
lists.  The reference is the engine's size-based branch as it was
before, frozen below: one ``Flow`` per stream and
``FlowNetwork.simulate``.  Both must give the same ``JobResult`` by
``float.hex`` (per-stream Gbps as an ordered list, the aggregate, the
duration, the tags) after the same ``solves`` and ``events``; odd
capacities or demands take the flow path and give the same error.
``shared_finish`` is also held to ``FlowNetwork.simulate`` on drawn
problems the engine cannot pose, and a spy checks that a paper pass
builds no ``Flow`` for a size-based fio job and no ``SeedSequence``.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.bench import engines
from repro.bench.engines import DeviceIOEngine, device_service_levels
from repro.bench.fio import FioRunner
from repro.bench.jobfile import FioJob
from repro.bench.results import JobResult
from repro.errors import ReproError, SimulationError
from repro.flows.flow import Flow
from repro.flows.network import FlowNetwork, shared_finish
from repro.obs.stats import SolverStats
from repro.osmodel.noise import NoiseModel
from repro.rng import RngRegistry
from repro.solver.session import SolverSession
from repro.topology.builders import reference_host
from repro.units import GB, KiB

_HOST = reference_host()

_ENGINE_RW = [
    ("tcp", "send"), ("tcp", "recv"),
    ("rdma", "write"), ("rdma", "read"), ("rdma", "send"),
    ("libaio", "write"), ("libaio", "read"),
]


class FrozenEngine(DeviceIOEngine):
    """``DeviceIOEngine`` with ``_simulate`` as it was before the list
    loop: every size-based job builds flows and runs
    ``FlowNetwork.simulate``."""

    def _simulate(self, job, device, profile, placements, rng) -> JobResult:
        machine = self.machine
        noise = NoiseModel(rng)
        n = len(placements)

        bs_factor = profile.blocksize_factor(job.blocksize)
        base = [
            level * bs_factor
            for level in device_service_levels(
                machine, device, profile, placements, job.direction,
                session=self.session,
            )
        ]
        service = device.dma.per_stream_caps(base)
        cpu_caps = [float("inf")] * n
        if profile.cpu_gbps_per_stream is not None:
            on_node: dict[int, int] = {}
            for p in placements:
                on_node[p.cpu_node] = on_node.get(p.cpu_node, 0) + 1
            for i, p in enumerate(placements):
                cores = machine.node(p.cpu_node).n_cores
                share = min(1.0, cores / on_node[p.cpu_node])
                cpu_caps[i] = profile.cpu_gbps_per_stream * share
        groups: dict[float, int] = {}
        for level in base:
            key = round(level, 1)
            groups[key] = groups.get(key, 0) + 1
        mix = device.dma.mixture_factor(list(groups.values()), profile.mix_coef)

        sigma = profile.sigma if n < profile.crowd_threshold else profile.crowd_sigma
        stream_noise = noise.factors(sigma, n)
        agg_noise = noise.factor(sigma)

        resource = f"dev:{device.name}:{job.direction}"
        per_cap = [s if profile.per_stream_cap_gbps is None
                   else min(s, profile.per_stream_cap_gbps) for s in service]
        time_based = job.runtime_s is not None
        flows = [
            Flow(
                name=f"{job.name}/{i}",
                resources=(resource,),
                demand_gbps=min(per_cap[i], cpu_caps[i]) * mix * float(stream_noise[i]),
                size_bytes=None if time_based else float(job.size_bytes),
            )
            for i in range(n)
        ]
        agg_cap = sum(base) / len(base)
        network = self.session.network({resource: agg_cap * mix * agg_noise})
        if time_based:
            rates = network.rates(flows)
            per_stream = dict(rates)
            duration = float(job.runtime_s)
        else:
            outcomes = network.simulate(flows)
            per_stream = {name: o.avg_gbps for name, o in outcomes.items()}
            duration = max(o.finish_s for o in outcomes.values())
        return JobResult(
            job_name=job.name,
            engine=f"{job.engine}:{job.rw}",
            streams=tuple((p.cpu_node, p.mem_node) for p in placements),
            per_stream_gbps=per_stream,
            aggregate_gbps=sum(per_stream.values()),
            duration_s=duration,
            tags={"device": device.name, "direction": job.direction, "mix": mix},
            solver_stats=self.session.stats.snapshot(),
        )


def _engine(cls):
    """An engine with a solver session of its own: both sides run the
    same jobs in the same order, so their memos and counters move alike."""
    engine = cls(_HOST)
    engine.session = SolverSession(_HOST)
    return engine


_FAST = _engine(DeviceIOEngine)
_FROZEN = _engine(FrozenEngine)


def _hex(value):
    return value.hex() if isinstance(value, float) else value


def _outcome(engine, job, seed=5):
    """The job's result by ``float.hex`` with its solver counters, or its error."""
    rng = RngRegistry(seed).stream(f"fio/{job.engine}/{job.name}/run0")
    try:
        result = engine.run(job, rng)
    except ReproError as exc:
        return "error", type(exc).__name__, str(exc), _counters(engine.session.stats)
    return (
        "ok",
        [(name, gbps.hex()) for name, gbps in result.per_stream_gbps.items()],
        result.aggregate_gbps.hex(),
        result.duration_s.hex(),
        result.streams,
        {key: _hex(value) for key, value in result.tags.items()},
        _counters(result.solver_stats),
    )


def _counters(stats):
    """Every solver counter; phase wall times are not compared."""
    if not isinstance(stats, dict):
        stats = stats.snapshot()
    return {key: value for key, value in stats.items() if key != "phase_wall_s"}


def _job(engine_rw, node, numjobs, size, runtime_s=None):
    engine, rw = engine_rw
    return FioJob(
        name=f"loop-{engine}-{rw}", engine=engine, rw=rw, numjobs=numjobs,
        cpunodebind=node, size_bytes=size, blocksize=min(128 * KiB, size),
        runtime_s=runtime_s,
    ).with_numjobs(numjobs)


#: Sizes around the retire threshold ``max(1.0, 1e-9 * size)``: a few
#: bytes, where the 1-byte floor holds, and 1e9, where it hands over.
_SIZES = [1, 2, 3, 7, 999_999_999, 10**9, 10**9 + 1, 400 * GB]


@given(
    engine_rw=st.sampled_from(_ENGINE_RW),
    node=st.sampled_from(_HOST.node_ids),
    numjobs=st.integers(min_value=1, max_value=48),
    size=st.one_of(st.sampled_from(_SIZES), st.integers(min_value=1, max_value=10**12)),
    runtime_s=st.sampled_from([None, None, None, 30.0]),
    seed=st.integers(min_value=0, max_value=2**32),
)
@example(engine_rw=("rdma", "write"), node=7, numjobs=12, size=400 * GB,
         runtime_s=None, seed=5)
@settings(max_examples=150, deadline=None)
def test_list_loop_matches_the_flow_network(engine_rw, node, numjobs, size,
                                            runtime_s, seed):
    job = _job(engine_rw, node, numjobs, size, runtime_s)
    assert _outcome(_FAST, job, seed) == _outcome(_FROZEN, job, seed)


@pytest.mark.parametrize("engine_rw", [("tcp", "send"), ("rdma", "read")])
def test_every_node_and_stream_count(engine_rw):
    """numjobs 1-48 on every node: past the DMA contexts, names >= 10."""
    for node in _HOST.node_ids:
        for numjobs in range(1, 49):
            job = _job(engine_rw, node, numjobs, 400 * GB)
            assert _outcome(_FAST, job) == _outcome(_FROZEN, job), (node, numjobs)


@pytest.mark.parametrize("mix, agg, fast", [
    (0.0, None, False), (-1.0, None, False), (math.nan, None, False),
    (math.inf, None, False),
    (None, 0.0, False), (None, -0.5, False), (None, math.nan, False),
    (None, math.inf, False),
    # Positive and finite, so the list loop runs; a denormal capacity
    # starves or stalls every stream, a huge one lets each take its demand.
    (None, 5e-324, True), (None, 1e-310, True), (None, 1e300, True),
])
def test_odd_capacities_and_demands(monkeypatch, mix, agg, fast):
    if mix is not None:
        monkeypatch.setattr(type(_HOST.devices["nic"].dma),
                            "mixture_factor", lambda self, shares, coef: mix)
    if agg is not None:
        monkeypatch.setattr(NoiseModel, "factor", lambda self, sigma: agg)
    calls = []

    def spy(*args):
        calls.append(args)
        return shared_finish(*args)

    monkeypatch.setattr(engines, "shared_finish", spy)
    job = _job(("tcp", "send"), 7, 12, 400 * GB)
    fast_outcome = _outcome(_FAST, job)
    assert len(calls) == fast
    assert fast_outcome == _outcome(_FROZEN, job)


# --- shared_finish against FlowNetwork.simulate ---------------------------

_NAMES = ["j/0", "j/1", "j/2", "j/10", "j/11", "j/100", "", "é", "Z", "a b"]
_DEMANDS = [0.5, 1.0, 2.5, 7.0, 7.0 + 2**-40, 16.0, 1e-3, 1e3]


@st.composite
def shared_problems(draw):
    """Streams with names whose order differs from their index order,
    demands from a small pool (so some tie), sizes near the retire
    threshold and capacities from starving to ample."""
    names = draw(st.lists(st.sampled_from(_NAMES), min_size=1, max_size=10,
                          unique=True))
    demands = [
        draw(st.one_of(st.sampled_from(_DEMANDS),
                       st.floats(min_value=1e-3, max_value=1e3)))
        for _ in names
    ]
    size = draw(st.one_of(
        st.sampled_from([0.5, 1.0, 1.5, 2.0, 3.0, 999_999_999.0, 1e9, 1e9 + 1.0,
                         1.0000000001e9, 4e11]),
        st.floats(min_value=1e-3, max_value=1e13),
    ))
    capacity = draw(st.one_of(
        st.sampled_from([1e-3, 1.0, 23.3, 1e4]),
        st.floats(min_value=1e-6, max_value=1e6),
    ))
    return names, demands, size, capacity


def _network_outcome(names, demands, size, capacity):
    stats = SolverStats()
    network = FlowNetwork({"dev": capacity}, stats=stats)
    try:
        outcomes = network.simulate([
            Flow(name, ("dev",), demand_gbps=demand, size_bytes=size)
            for name, demand in zip(names, demands)
        ])
    except SimulationError as exc:
        return "error", str(exc)
    return (
        "ok",
        [(name, o.avg_gbps.hex()) for name, o in outcomes.items()],
        max(o.finish_s for o in outcomes.values()).hex(),
        stats.solves, stats.events,
    )


def _list_outcome(names, demands, size, capacity):
    stats = SolverStats()
    try:
        finished, end = shared_finish(names, demands, size, "dev", capacity, stats)
    except SimulationError as exc:
        return "error", str(exc)
    return (
        "ok", [(name, gbps.hex()) for name, gbps in finished.items()], end.hex(),
        stats.solves, stats.events,
    )


@given(shared_problems())
@example((["j/2", "j/10"], [7.0, 7.0], 400e9, 10.0))
@example((["a", "b", "c"], [1.0, 2.0, 3.0], 1.5, 1.0))
@settings(max_examples=300, deadline=None)
def test_shared_finish_matches_flow_network(problem):
    assert _list_outcome(*problem) == _network_outcome(*problem)


@pytest.mark.parametrize("names, size, capacity", [
    (["a", "b"], 0.0, 1.0),
    (["a", "b"], -4.0, 1.0),
    (["a", "b", "a"], 10.0, 1.0),
    (["a", "b"], math.inf, 1.0),
    (["a", "b"], math.nan, 1.0),
    (["a", "b"], 1e9, 5e-324),
    (["a", "b"], 1e9, 1e-310),
])
def test_shared_finish_raises_like_flow_network(names, size, capacity):
    demands = [1.0] * len(names)
    outcome = _list_outcome(names, demands, size, capacity)
    assert outcome[0] == "error"
    assert outcome == _network_outcome(names, demands, size, capacity)


# --- a paper pass takes the list loop and builds no SeedSequence ------------

def test_paper_pass_builds_no_flow_for_sized_jobs_and_no_seed_sequence(monkeypatch):
    from repro.experiments import EXPERIMENTS, registry
    from repro.solver.session import reset_sessions

    built = []
    real_flow = engines.Flow

    def counting_flow(*args, **kwargs):
        built.append(args)
        return real_flow(*args, **kwargs)

    jobs = []
    real_simulate = DeviceIOEngine._simulate

    def spy_simulate(self, job, *args):
        before = len(built)
        result = real_simulate(self, job, *args)
        jobs.append((job.runtime_s is None, len(built) - before))
        return result

    def no_seed_sequence(*args, **kwargs):
        raise AssertionError("a stream built a SeedSequence")

    monkeypatch.setattr(engines, "Flow", counting_flow)
    monkeypatch.setattr(DeviceIOEngine, "_simulate", spy_simulate)
    monkeypatch.setattr(np.random, "SeedSequence", no_seed_sequence)
    reset_sessions()
    try:
        for exp_id in EXPERIMENTS:
            registry.run_experiment(exp_id, registry=RngRegistry(5))
    finally:
        reset_sessions()
    sized = [flows for size_based, flows in jobs if size_based]
    assert sized and sum(sized) == 0
    # The spies are live: a time-based job still builds its flows.
    FioRunner(_HOST, RngRegistry(5)).run(
        FioJob(name="timed", engine="tcp", rw="send", numjobs=3,
               cpunodebind=7, runtime_s=10.0)
    )
    assert jobs[-1] == (False, 3)
