"""Route enumeration and plane-specific selection."""

import pytest

from repro.errors import RoutingError, TopologyError
from repro.interconnect.link import link_pair
from repro.interconnect.planes import PLANE_DMA, PLANE_PIO
from repro.routing.table import RoutingTable, enumerate_min_hop_routes, select_route


def _links(*pairs):
    """Build a link map from (a, b, kwargs) tuples."""
    out = {}
    for a, b, kw in pairs:
        fwd, rev = link_pair(a, b, kw.pop("width", 16), kw.pop("gts", 3.2), **kw)
        out[fwd.ends] = fwd
        out[rev.ends] = rev
    return out


@pytest.fixture()
def diamond():
    """0 -> {1, 2} -> 3, with the 1-branch wider for DMA."""
    return _links(
        (0, 1, {"dma_credit": 1.0}),
        (0, 2, {"dma_credit": 0.5}),
        (1, 3, {"dma_credit": 1.0}),
        (2, 3, {"dma_credit": 0.5}),
    )


class TestEnumeration:
    def test_local_route(self, diamond):
        assert enumerate_min_hop_routes(diamond, 1, 1) == [(1,)]

    def test_direct_route(self, diamond):
        assert enumerate_min_hop_routes(diamond, 0, 1) == [(0, 1)]

    def test_all_min_hop_routes_found(self, diamond):
        assert enumerate_min_hop_routes(diamond, 0, 3) == [(0, 1, 3), (0, 2, 3)]

    def test_unreachable_raises(self):
        links = _links((0, 1, {}))
        links_plus_island = dict(links)
        island = _links((5, 6, {}))
        links_plus_island.update(island)
        with pytest.raises(RoutingError):
            enumerate_min_hop_routes(links_plus_island, 0, 6)

    def test_unknown_endpoint_raises(self, diamond):
        with pytest.raises(RoutingError):
            enumerate_min_hop_routes(diamond, 0, 99)


class TestSelection:
    def test_dma_prefers_widest_bottleneck(self, diamond):
        assert select_route(diamond, PLANE_DMA, 0, 3) == (0, 1, 3)

    def test_pio_prefers_higher_pio_cap(self):
        links = _links(
            (0, 1, {"pio_cap_gbps": 25.0}),
            (0, 2, {"pio_cap_gbps": 10.0}),
            (1, 3, {"pio_cap_gbps": 25.0}),
            (2, 3, {"pio_cap_gbps": 10.0}),
        )
        assert select_route(links, PLANE_PIO, 0, 3) == (0, 1, 3)

    def test_min_hop_wins_over_width(self):
        # Direct narrow link vs wide 3-hop detour: hardware routes minimal.
        links = _links(
            (0, 3, {"dma_credit": 0.3}),
            (0, 1, {}),
            (1, 2, {}),
            (2, 3, {}),
        )
        assert select_route(links, PLANE_DMA, 0, 3) == (0, 3)

    def test_lexicographic_tie_break(self):
        links = _links(
            (0, 1, {}),
            (0, 2, {}),
            (1, 3, {}),
            (2, 3, {}),
        )
        assert select_route(links, PLANE_DMA, 0, 3) == (0, 1, 3)


class TestRoutingTable:
    def test_routes_cached_and_consistent(self, diamond):
        table = RoutingTable(diamond)
        assert table.route(PLANE_DMA, 0, 3) == table.route(PLANE_DMA, 0, 3)

    def test_route_links_match_hops(self, diamond):
        table = RoutingTable(diamond)
        hops = table.route(PLANE_DMA, 0, 3)
        links = table.route_links(PLANE_DMA, 0, 3)
        assert [l.ends for l in links] == list(zip(hops, hops[1:]))

    def test_override(self, diamond):
        table = RoutingTable(diamond)
        table.set_route(PLANE_DMA, (0, 2, 3))
        assert table.route(PLANE_DMA, 0, 3) == (0, 2, 3)
        # Other plane unaffected.
        assert table.route(PLANE_PIO, 0, 3) != (0, 2, 3) or True

    def test_override_requires_real_links(self, diamond):
        table = RoutingTable(diamond)
        with pytest.raises(RoutingError):
            table.set_route(PLANE_DMA, (0, 3))

    def test_override_needs_two_hops(self, diamond):
        table = RoutingTable(diamond)
        with pytest.raises(TopologyError):
            table.set_route(PLANE_DMA, (0,))

    def test_route_unknown_endpoint_raises(self, diamond):
        table = RoutingTable(diamond)
        with pytest.raises(RoutingError):
            table.route(PLANE_DMA, 0, 99)


class TestPopulate:
    def test_populate_matches_select_route(self, diamond):
        table = RoutingTable(diamond)
        table.populate(PLANE_DMA)
        table.populate(PLANE_PIO)
        for plane in (PLANE_DMA, PLANE_PIO):
            for src in range(4):
                for dst in range(4):
                    assert table.route(plane, src, dst) == select_route(
                        diamond, plane, src, dst
                    )

    def test_populate_respects_prior_override(self, diamond):
        table = RoutingTable(diamond)
        table.set_route(PLANE_DMA, (0, 2, 3))
        table.populate(PLANE_DMA)
        assert table.route(PLANE_DMA, 0, 3) == (0, 2, 3)

    def test_override_after_populate_wins(self, diamond):
        table = RoutingTable(diamond)
        table.populate(PLANE_DMA)
        table.set_route(PLANE_DMA, (0, 2, 3))
        assert table.route(PLANE_DMA, 0, 3) == (0, 2, 3)

    def test_populate_unknown_node_raises(self, diamond):
        table = RoutingTable(diamond)
        with pytest.raises(RoutingError):
            table.populate(PLANE_DMA, nodes=(0, 1, 2, 3, 99))

    def test_populate_disconnected_names_pair(self):
        links = _links((0, 1, {}))
        links.update(_links((5, 6, {})))
        table = RoutingTable(links)
        with pytest.raises(RoutingError, match="no route from node 0 to node 5"):
            table.populate(PLANE_DMA)

    def test_adjacency_is_cached(self, diamond):
        table = RoutingTable(diamond)
        assert table.adjacency is table.adjacency
        assert table.adjacency[0] == [1, 2]


class TestWidest:
    def test_widths_without_routes(self, diamond):
        table = RoutingTable(diamond)
        widths = table.widest(PLANE_DMA, 0)
        assert widths == {0: float("inf"), 1: 51.2, 2: 25.6, 3: 51.2}
        assert table.populated_planes == () and table._cache == {}
        assert table.widest(PLANE_DMA, 0) is widths

    def test_pio_plane_reads_pio_widths(self, diamond):
        table = RoutingTable(diamond)
        # 60 % of raw on every link: both branches tie at 30.72.
        assert table.widest(PLANE_PIO, 3) == {
            3: float("inf"), 1: 30.72, 2: 30.72, 0: 30.72,
        }

    def test_unreachable_nodes_are_absent(self):
        links = _links((0, 1, {}))
        links.update(_links((5, 6, {})))
        table = RoutingTable(links)
        assert set(table.widest(PLANE_DMA, 0)) == {0, 1}
        assert table.widest(PLANE_DMA, 9) == {9: float("inf")}

    def test_override_from_source_declines(self, diamond):
        table = RoutingTable(diamond)
        before = table.widest(PLANE_DMA, 0)
        assert before[3] == 51.2
        table.set_route(PLANE_DMA, (0, 2, 3))
        assert table.widest(PLANE_DMA, 0) is None
        # Other sources and the other plane keep the heuristic's widths.
        assert table.widest(PLANE_DMA, 1) == {1: float("inf"), 0: 51.2, 3: 51.2, 2: 25.6}
        assert table.widest(PLANE_PIO, 0) is not None

    def test_plane_validated(self, diamond):
        with pytest.raises(RoutingError, match="unknown traffic plane"):
            RoutingTable(diamond).widest("bogus", 0)
