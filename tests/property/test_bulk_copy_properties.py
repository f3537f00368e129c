"""Closed-form bulk copies against max-min over their flow lists.

``bulk_copy_gbps_many`` solves each distinct ``(src, dst)`` copy from
the least capacity on its route, read route-free: both controllers'
capacities and the narrowest link of the DMA-plane route
(``RoutingTable.widest``).  Its reference is max-min over the copy's
per-thread flow list (``_bulk_copy_flows``) through
``SolverSession.rates``, totalled as ``sum(rates.values())``: the
values must agree by ``float.hex``, with one solve per distinct pair on
both sides, also when the session serves a capacity map that differs
from the machine's, and on ``scaled_host`` machines of 16 to 64 nodes.
Every Algorithm 1 model is built from these totals.  Where the closed
form cannot decide (a capacity that is zero, infinite, NaN or missing,
a link capacity that is not the link's width, a DMA-plane override, a
demand that is not positive) the call routes and solves the reference
itself, so it gives the reference's values or raises its typed errors.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.engines import (
    _bulk_copy_flows,
    _copy_resources,
    bulk_copy_gbps,
    bulk_copy_gbps_many,
)
from repro.errors import BenchmarkError, RoutingError, SimulationError
from repro.faults import FaultedMachine, LinkDegrade, LinkFail
from repro.interconnect.link import DirectedLink
from repro.interconnect.planes import PLANE_DMA
from repro.solver.capacity import build_capacities
from repro.solver.session import SolverSession
from repro.topology.builders import scaled_host
from repro.topology.machine import Machine, MachineParams
from repro.topology.node import Core, NumaNode, Package


@st.composite
def machines(draw):
    """A connected machine with per-direction link and per-node controller draws.

    Spanning tree plus random chords; each direction draws its own width
    and credit and each node its controller rate, from small sets, so
    copies are bound by a controller, a link or the per-thread demand.
    """
    n = draw(st.integers(min_value=2, max_value=7))
    perm = draw(st.permutations(range(n)))
    edges = set()
    for i in range(1, n):
        j = draw(st.integers(min_value=0, max_value=i - 1))
        edges.add((min(perm[i], perm[j]), max(perm[i], perm[j])))
    spare = [(a, b) for a in range(n) for b in range(a + 1, n) if (a, b) not in edges]
    if spare:
        edges.update(draw(st.lists(st.sampled_from(spare), max_size=n)))
    links = [
        DirectedLink(
            src=s,
            dst=d,
            width_bits=draw(st.sampled_from([8, 16])),
            gts=3.2,
            dma_credit=draw(st.sampled_from([0.45, 0.6, 0.9, 1.0])),
        )
        for a, b in sorted(edges)
        for s, d in ((a, b), (b, a))
    ]
    nodes = [
        NumaNode(
            node_id=i,
            package_id=i,
            cores=tuple(Core(core_id=4 * i + c, node_id=i) for c in range(4)),
            dram_gbps=draw(st.sampled_from([12.0, 25.6, 56.0])),
        )
        for i in range(n)
    ]
    packages = [Package(package_id=i, node_ids=(i,)) for i in range(n)]
    params = MachineParams(dma_per_thread_gbps=draw(st.sampled_from([1.5, 6.0, 16.0])))
    return Machine(f"random-{n}", nodes, packages, links, params)


@st.composite
def copies(draw):
    """A machine (healthy or a ``LinkDegrade`` view), pairs and threads."""
    machine = draw(machines())
    if draw(st.booleans()):
        degraded = draw(st.lists(
            st.sampled_from(sorted(machine.links)), min_size=1, max_size=3, unique=True
        ))
        factors = st.floats(min_value=0.05, max_value=1.0, allow_nan=False)
        machine = FaultedMachine(
            machine,
            [LinkDegrade(src=s, dst=d, factor=draw(factors)) for s, d in degraded],
        )
    nodes = st.sampled_from(machine.node_ids)
    local = draw(nodes)
    pairs = draw(st.lists(st.tuples(nodes, nodes), min_size=1, max_size=12))
    pairs.insert(draw(st.integers(0, len(pairs))), (local, local))
    return machine, pairs, draw(st.integers(min_value=1, max_value=16))


def _reference(machine, pairs, threads, session=None):
    session = session if session is not None else SolverSession(machine)
    return [
        sum(session.rates(_bulk_copy_flows(machine, src, dst, threads)).values())
        for src, dst in pairs
    ]


def _raised(fn):
    with pytest.raises(Exception) as info:
        fn()
    return type(info.value), str(info.value)


def _served(machine, capacities):
    """A session serving ``capacities`` as if built from ``machine``."""
    session = SolverSession(machine)
    session._capacities = dict(capacities)
    return session


def _maxmin_reference(machine, pairs, threads, session):
    """Totals from max-min over each distinct pair's flow list, one
    ``session.rates`` per pair on the map the session serves."""
    caps = session.capacities()
    distinct = list(dict.fromkeys(pairs))
    totals = {
        (src, dst): sum(session.rates(
            _bulk_copy_flows(machine, src, dst, threads), caps
        ).values())
        for src, dst in distinct
    }
    return [totals[pair] for pair in pairs]


def _assert_maxmin_oracle(machine, pairs, threads, capacities):
    reference, session = _served(machine, capacities), _served(machine, capacities)
    want = _maxmin_reference(machine, pairs, threads, reference)
    got = bulk_copy_gbps_many(machine, pairs, threads, session=session)
    assert [v.hex() for v in got] == [v.hex() for v in want]
    assert session.stats.solves == reference.stats.solves == len(set(pairs))
    assert session.stats.capacity_hits == reference.stats.capacity_hits


@given(copies())
@settings(max_examples=80, deadline=None)
def test_closed_form_equals_maxmin_bit_for_bit(case):
    machine, pairs, threads = case
    _assert_maxmin_oracle(machine, pairs, threads, build_capacities(machine))
    want = [v.hex() for v in _reference(machine, pairs, threads)]
    single = SolverSession(machine)
    assert [bulk_copy_gbps(machine, s, d, threads, session=single).hex()
            for s, d in pairs] == want


@given(copies(), st.data())
@settings(max_examples=60, deadline=None)
def test_route_bottlenecks_read_the_session_map(case, data):
    """Served controller capacities keep the closed form; served link
    capacities other than the links' widths send it to the reference."""
    machine, pairs, threads = case
    scale = st.floats(min_value=1e-3, max_value=1e3, allow_nan=False)
    links_too = data.draw(st.booleans())
    capacities = {
        name: cap * data.draw(scale)
        if links_too or not name.startswith("link-") else cap
        for name, cap in build_capacities(machine).items()
    }
    _assert_maxmin_oracle(machine, pairs, threads, capacities)


@given(st.integers(min_value=8, max_value=32), st.integers(min_value=0, max_value=99),
       st.data())
@settings(max_examples=12, deadline=None)
def test_scaled_hosts_equal_maxmin_bit_for_bit(packages, seed, data):
    """Multi-hop hosts of 16 to 64 nodes, on the machine's own map: the
    closed form decides every pair and leaves no route behind."""
    machine = scaled_host(packages, seed=seed)
    nodes = st.sampled_from(machine.node_ids)
    pairs = data.draw(st.lists(st.tuples(nodes, nodes), min_size=1, max_size=24))
    threads = data.draw(st.integers(min_value=1, max_value=16))
    session = SolverSession(machine)
    got = bulk_copy_gbps_many(machine, pairs, threads, session=session)
    assert machine.routing.populated_planes == ()
    assert session.stats.solves == len(set(pairs))
    reference = SolverSession(machine)
    want = _maxmin_reference(machine, pairs, threads, reference)
    assert [v.hex() for v in got] == [v.hex() for v in want]
    assert session.stats.capacity_hits == reference.stats.capacity_hits


@given(machines(), st.data())
@settings(max_examples=40, deadline=None)
def test_dma_override_takes_the_reference(machine, data):
    """A two-hop DMA-plane override: its source's copies follow the
    override's links, as max-min over the routed flow list does."""
    mids = [m for m in machine.node_ids
            if sum(1 for a, _b in machine.links if a == m) >= 2]
    if not mids:
        return
    mid = data.draw(st.sampled_from(mids))
    ends = sorted(b for a, b in machine.links if a == mid)
    src = data.draw(st.sampled_from(ends))
    dst = data.draw(st.sampled_from([b for b in ends if b != src]))
    machine.routing.set_route(PLANE_DMA, (src, mid, dst))
    assert machine.routing.widest(PLANE_DMA, src) is None
    nodes = st.sampled_from(machine.node_ids)
    pairs = data.draw(st.lists(st.tuples(nodes, nodes), max_size=8))
    pairs.insert(data.draw(st.integers(0, len(pairs))), (src, dst))
    threads = data.draw(st.integers(min_value=1, max_value=16))
    _assert_maxmin_oracle(machine, pairs, threads, build_capacities(machine))


@given(machines(), st.data())
@settings(max_examples=40, deadline=None)
def test_partitioned_pair_raises_the_same_routing_error(machine, data):
    isolated = data.draw(st.sampled_from(machine.node_ids))
    cables = sorted({tuple(sorted(ends)) for ends in machine.links if isolated in ends})
    cut = FaultedMachine(machine, [LinkFail(a=a, b=b) for a, b in cables])
    other = data.draw(st.sampled_from([n for n in cut.node_ids if n != isolated]))
    pairs = [(other, other), (isolated, isolated)]
    pairs.insert(data.draw(st.integers(0, 2)), data.draw(
        st.sampled_from([(isolated, other), (other, isolated)])
    ))
    threads = data.draw(st.integers(min_value=1, max_value=16))
    expected = _raised(lambda: _reference(cut, pairs, threads))
    assert expected[0] is RoutingError
    assert _raised(lambda: bulk_copy_gbps_many(
        cut, pairs, threads, session=SolverSession(cut)
    )) == expected


@given(copies(), st.data())
@settings(max_examples=40, deadline=None)
def test_zero_capacity_raises_the_same_simulation_error(case, data):
    machine, pairs, threads = case
    src, dst = data.draw(st.sampled_from(pairs))
    resource = data.draw(st.sampled_from(_bulk_copy_flows(machine, src, dst, 1)[0].resources))
    capacities = {**build_capacities(machine), resource: 0.0}

    def session():
        s = SolverSession(machine)
        s._capacities = dict(capacities)  # served as if built from the machine
        return s

    expected = _raised(lambda: _reference(machine, pairs, threads, session()))
    assert expected[0] is SimulationError
    assert _raised(lambda: bulk_copy_gbps_many(
        machine, pairs, threads, session=session()
    )) == expected


@given(copies(), st.data())
@settings(max_examples=40, deadline=None)
def test_odd_capacities_take_the_reference(case, data):
    machine, pairs, threads = case
    src, dst = data.draw(st.sampled_from(pairs))
    resource = data.draw(st.sampled_from(_copy_resources(machine, src, dst)))
    capacities = build_capacities(machine)
    odd = data.draw(st.sampled_from([math.inf, math.nan, None]))
    if odd is None:
        del capacities[resource]
    else:
        capacities[resource] = odd

    def run(fn):
        session = _served(machine, capacities)
        try:
            return [v.hex() for v in fn(session)], session.stats.solves
        except SimulationError as exc:
            return type(exc), str(exc), session.stats.solves

    assert run(
        lambda session: bulk_copy_gbps_many(machine, pairs, threads, session=session)
    ) == run(
        lambda session: _maxmin_reference(machine, pairs, threads, session)
    )


@given(machines(), st.data())
@settings(max_examples=20, deadline=None)
def test_route_crossing_a_link_twice_raises_the_same_error(machine, data):
    a, b = data.draw(st.sampled_from(sorted(machine.links)))
    machine.routing.set_route(PLANE_DMA, (a, b, a, b))
    pairs = [(a, a), (a, b), (b, a)]
    threads = data.draw(st.integers(min_value=1, max_value=16))
    expected = _raised(lambda: _maxmin_reference(
        machine, pairs, threads, SolverSession(machine)
    ))
    assert expected[0] is SimulationError and "twice" in expected[1]
    assert _raised(lambda: bulk_copy_gbps_many(
        machine, pairs, threads, session=SolverSession(machine)
    )) == expected


@given(copies(), st.sampled_from([0.0, -0.0, -1.5]))
@settings(max_examples=20, deadline=None)
def test_non_positive_demand_raises_the_same_simulation_error(case, demand):
    machine, pairs, threads = case
    # MachineParams rejects such a demand; set it past the check.
    object.__setattr__(machine.params, "dma_per_thread_gbps", demand)
    expected = _raised(lambda: _maxmin_reference(
        machine, pairs, threads, SolverSession(machine)
    ))
    assert expected[0] is SimulationError and "demand must be positive" in expected[1]
    assert _raised(lambda: bulk_copy_gbps_many(
        machine, pairs, threads, session=SolverSession(machine)
    )) == expected


@given(copies(), st.integers(min_value=-3, max_value=0))
@settings(max_examples=20, deadline=None)
def test_too_few_threads_raise_the_same_benchmark_error(case, threads):
    machine, pairs, _threads = case
    expected = _raised(lambda: _reference(machine, pairs, threads))
    assert expected[0] is BenchmarkError
    assert _raised(lambda: bulk_copy_gbps_many(machine, pairs, threads)) == expected
