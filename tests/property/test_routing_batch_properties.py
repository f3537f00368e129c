"""Batched DP route selection vs per-pair enumeration.

The batch engine must be *bit-identical* to ``select_route`` — the
whole reproduction (EXPERIMENTS.md included) rides on the routes — so
these properties sweep randomized connected topologies with asymmetric
per-direction link attributes drawn from small discrete sets (to force
plenty of score ties) and compare every pair on both planes.  The
routed ``Path`` each pair builds once must equal one built fresh from
those routes, after an override and on a derived table too.  The
route-free widths (``widest_from_source``) must equal the narrowest
link of each selected route by ``float.hex``.
"""

from __future__ import annotations

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import RoutingError
from repro.faults import FaultedMachine, LinkFail
from repro.interconnect.link import DirectedLink
from repro.interconnect.planes import ALL_PLANES, PLANE_DMA
from repro.routing.batch import (
    batch_routes,
    plane_weights,
    routes_from_source,
    widest_from_source,
)
from repro.routing.paths import Path
from repro.routing.table import RoutingTable, _adjacency, select_route
from repro.topology.builders import reference_host, scaled_host

NS = 1e-9


@st.composite
def link_maps(draw):
    """A connected directed link map with asymmetric attributes.

    Spanning tree plus random chords; every direction draws its own
    width / credit / PIO cap / latency from small sets so distinct
    routes frequently tie on one score component and the tie-break
    chain (bottleneck, latency, lexicographic) actually decides.
    """
    n = draw(st.integers(min_value=3, max_value=8))
    nodes = list(range(n))
    perm = draw(st.permutations(nodes))
    edges = set()
    for i in range(1, n):
        j = draw(st.integers(min_value=0, max_value=i - 1))
        a, b = perm[i], perm[j]
        edges.add((min(a, b), max(a, b)))
    spare = [
        (a, b) for a in nodes for b in nodes if a < b and (a, b) not in edges
    ]
    if spare:
        extras = draw(
            st.lists(st.sampled_from(spare), min_size=0, max_size=min(len(spare), n))
        )
        edges.update(extras)
    links = {}
    for a, b in sorted(edges):
        for s, d in ((a, b), (b, a)):
            links[(s, d)] = DirectedLink(
                src=s,
                dst=d,
                width_bits=draw(st.sampled_from([8, 16])),
                gts=3.2,
                dma_credit=draw(st.sampled_from([0.5, 0.9, 1.0])),
                pio_cap_gbps=draw(st.sampled_from([10.0, 20.0, 25.0])),
                pio_latency_s=draw(
                    st.sampled_from([5 * NS, 12.5 * NS, 40 * NS, 130 * NS])
                ),
            )
    return links


@given(link_maps())
@settings(max_examples=80, deadline=None)
def test_batch_routes_equal_select_route_everywhere(links):
    nodes = sorted({n for ends in links for n in ends})
    for plane in ALL_PLANES:
        routes = batch_routes(links, plane)
        for src in nodes:
            for dst in nodes:
                assert routes[(src, dst)] == select_route(links, plane, src, dst)


@given(link_maps())
@settings(max_examples=80, deadline=None)
def test_widest_equals_the_selected_routes_narrowest_link(links):
    """Every source, every reachable node, both planes' weights: the
    route-free width is the narrowest link of the selected route, bit
    for bit, and ``RoutingTable.widest`` serves the same values."""
    adj = _adjacency(links)
    table = RoutingTable(links)
    for plane in ALL_PLANES:
        weights = plane_weights(links, plane)
        for src in sorted(adj):
            routes = routes_from_source(adj, weights, src)
            widths = widest_from_source(adj, weights, src)
            assert set(widths) == set(routes)
            for node, hops in routes.items():
                narrowest = min(
                    (weights[ends][0] for ends in zip(hops, hops[1:])),
                    default=float("inf"),
                )
                assert widths[node].hex() == narrowest.hex()
            assert table.widest(plane, src) == widths
    assert table.populated_planes == ()


@given(link_maps())
@settings(max_examples=60, deadline=None)
def test_populated_table_matches_per_pair_path(links):
    nodes = sorted({n for ends in links for n in ends})
    table = RoutingTable(links)
    for plane in ALL_PLANES:
        table.populate(plane)
        for src in nodes:
            for dst in nodes:
                assert table.route(plane, src, dst) == select_route(
                    links, plane, src, dst
                )


@given(link_maps(), st.data())
@settings(max_examples=60, deadline=None)
def test_overrides_win_over_populated_routes(links, data):
    adj = {}
    for s, d in links:
        adj.setdefault(s, []).append(d)
    # A 2-hop override src -> mid -> dst through any mid with >= 2 neighbours.
    mid = data.draw(
        st.sampled_from(sorted(n for n, outs in adj.items() if len(outs) >= 2))
    )
    src = data.draw(st.sampled_from(sorted(adj[mid])))
    dst = data.draw(st.sampled_from(sorted(d for d in adj[mid] if d != src)))
    plane = data.draw(st.sampled_from(ALL_PLANES))
    table = RoutingTable(links)
    table.set_route(plane, (src, mid, dst))
    table.populate(plane)
    assert table.route(plane, src, dst) == (src, mid, dst)
    # Every non-overridden pair still matches the per-pair heuristic.
    nodes = sorted({n for ends in links for n in ends})
    for a in nodes:
        for b in nodes:
            if (a, b) != (src, dst):
                assert table.route(plane, a, b) == select_route(links, plane, a, b)


def _assert_paths_fresh(paths, links, nodes, overrides=()):
    """``paths(plane, a, b)`` equals a Path built fresh, and is built
    once; an unreachable pair raises on every lookup."""
    overrides = dict(overrides)
    for plane in ALL_PLANES:
        for a in nodes:
            for b in nodes:
                try:
                    hops = overrides.get((plane, a, b)) or select_route(
                        links, plane, a, b
                    )
                except RoutingError:
                    for _ in range(2):
                        with pytest.raises(RoutingError):
                            paths(plane, a, b)
                    continue
                path = paths(plane, a, b)
                assert path == Path(
                    plane=plane, hops=hops,
                    links=tuple(links[ends] for ends in zip(hops, hops[1:])),
                )
                assert paths(plane, a, b) is path


@given(link_maps(), st.data())
@settings(max_examples=60, deadline=None)
def test_paths_equal_fresh_paths_after_overrides_and_derive(links, data):
    nodes = sorted({n for ends in links for n in ends})
    table = RoutingTable(links)
    _assert_paths_fresh(table.path, links, nodes)
    # Override one 2-hop route after every path was built.
    adj = {}
    for s, d in links:
        adj.setdefault(s, []).append(d)
    mid = data.draw(
        st.sampled_from(sorted(n for n, outs in adj.items() if len(outs) >= 2))
    )
    src = data.draw(st.sampled_from(sorted(adj[mid])))
    dst = data.draw(st.sampled_from(sorted(d for d in adj[mid] if d != src)))
    plane = data.draw(st.sampled_from(ALL_PLANES))
    table.set_route(plane, (src, mid, dst))
    overrides = {(plane, src, dst): (src, mid, dst)}
    _assert_paths_fresh(table.path, links, nodes, overrides)
    # Derive onto a map where one direction lost DMA credit: every path,
    # the override's included, must carry the new map's link objects.
    ends = data.draw(st.sampled_from(sorted(links)))
    worse = dict(links)
    worse[ends] = replace(links[ends], dma_credit=0.25)
    _assert_paths_fresh(table.derive(worse).path, worse, nodes, overrides)


@given(st.integers(min_value=2, max_value=5), st.integers(min_value=0, max_value=99),
       st.data())
@settings(max_examples=15, deadline=None)
def test_machine_paths_equal_fresh_paths(packages, seed, data):
    """``Machine.path`` on seeded hosts and on their faulted views, whose
    tables are derived incrementally from the host's (a failed cable may
    cut nodes off)."""
    host = scaled_host(packages, seed=seed)
    links = host.links
    _assert_paths_fresh(host.path, links, host.node_ids)
    a, b = data.draw(st.sampled_from(sorted(
        (a, b) for a, b in links if a < b and a // 2 != b // 2
    )))
    faulted = FaultedMachine(host, (LinkFail(a, b),))
    assert faulted.routing.last_reroute
    _assert_paths_fresh(faulted.path, faulted.links, faulted.node_ids)


class TestPartitionedFabric:
    def _partitioned(self):
        host = reference_host(with_devices=False)
        cut = sorted(
            {(min(a, b), max(a, b)) for a, b in host.links if (a in (0, 1)) != (b in (0, 1))}
        )
        return FaultedMachine(host, tuple(LinkFail(a, b) for a, b in cut))

    def test_populate_raises_naming_unreachable_pair(self):
        machine = self._partitioned()
        with pytest.raises(RoutingError, match=r"no route from node \d+ to node \d+"):
            machine.routing.populate(PLANE_DMA, nodes=machine.node_ids)

    def test_widest_omits_unreachable_nodes(self):
        machine = self._partitioned()
        assert set(machine.routing.widest(PLANE_DMA, 0)) == {0, 1}
        assert set(machine.routing.widest(PLANE_DMA, 5)) == set(range(2, 8))

    def test_reachable_pairs_still_route_lazily(self):
        machine = self._partitioned()
        assert machine.routing.route(PLANE_DMA, 0, 1) == (0, 1)
        assert machine.path(PLANE_DMA, 2, 3).hops == (2, 3)
        with pytest.raises(RoutingError):
            machine.routing.route(PLANE_DMA, 0, 2)
