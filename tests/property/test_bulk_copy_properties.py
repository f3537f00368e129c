"""Closed-form bulk copies against max-min over their flow lists.

``bulk_copy_gbps_many`` solves each distinct ``(src, dst)`` copy with
``SolverSession.equal_shares``.  The reference is the allocation
cache's water-filling over the copy's per-thread flow list
(``_bulk_copy_flows``), totalled as ``sum(rates.values())``.  Every
Algorithm 1 model is built from these totals, so they must agree by
``float.hex``, and bad inputs must raise the same typed errors.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.engines import _bulk_copy_flows, bulk_copy_gbps, bulk_copy_gbps_many
from repro.errors import BenchmarkError, RoutingError, SimulationError
from repro.faults import FaultedMachine, LinkDegrade, LinkFail
from repro.interconnect.link import DirectedLink
from repro.solver.capacity import build_capacities
from repro.solver.session import SolverSession
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


@given(copies())
@settings(max_examples=80, deadline=None)
def test_closed_form_equals_maxmin_bit_for_bit(case):
    machine, pairs, threads = case
    want = [v.hex() for v in _reference(machine, pairs, threads)]
    got = bulk_copy_gbps_many(machine, pairs, threads, session=SolverSession(machine))
    assert [v.hex() for v in got] == want
    single = SolverSession(machine)
    assert [bulk_copy_gbps(machine, s, d, threads, session=single).hex()
            for s, d in pairs] == want


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


@given(copies(), st.integers(min_value=-3, max_value=0))
@settings(max_examples=20, deadline=None)
def test_too_few_threads_raise_the_same_benchmark_error(case, threads):
    machine, pairs, _threads = case
    expected = _raised(lambda: _reference(machine, pairs, threads))
    assert expected[0] is BenchmarkError
    assert _raised(lambda: bulk_copy_gbps_many(machine, pairs, threads)) == expected
