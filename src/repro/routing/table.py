"""Routing-table construction.

The table answers ``route(plane, src, dst) -> node sequence``.  Routes
come from two sources, in priority order:

1. explicit overrides installed with :meth:`RoutingTable.set_route`
   (machines whose BIOS programs unusual routing registers);
2. the deterministic heuristic of :func:`select_route`: minimal hop
   count, then the plane preference, then lexicographic order.

Routing is static — computed once per (plane, src, dst) and cached —
matching how HT routing registers actually work (no adaptive routing on
these platforms).  :meth:`RoutingTable.path` builds each pair's routed
:class:`~repro.routing.paths.Path` once, too, and
:meth:`RoutingTable.widest` reads every route's narrowest link from one
source without building a route.  Only :meth:`RoutingTable.set_route`
changes an answer; it drops that pair's route and path and its source's
widths, and replaces the table's :attr:`~RoutingTable.revision` token,
so memos kept elsewhere on routed answers can tell they are stale.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Iterable, Mapping, Sequence

from repro.errors import RoutingError, TopologyError
from repro.interconnect.link import DirectedLink
from repro.interconnect.planes import PLANE_DMA, PLANE_PIO, Plane, validate_plane
from repro.obs import recorder as _obs
from repro.routing.batch import batch_routes, plane_weights, widest_from_source
from repro.routing.incremental import (
    RerouteStats,
    incremental_routes,
    route_usage,
)
from repro.routing.paths import Path

__all__ = ["RoutingTable", "enumerate_min_hop_routes", "select_route"]

LinkMap = Mapping[tuple[int, int], DirectedLink]


def _adjacency(links: LinkMap) -> dict[int, list[int]]:
    adj: dict[int, list[int]] = {}
    for src, dst in links:
        adj.setdefault(src, []).append(dst)
        adj.setdefault(dst, [])
    for neighbours in adj.values():
        neighbours.sort()
    return adj


def enumerate_min_hop_routes(
    links: LinkMap, src: int, dst: int, adj: dict[int, list[int]] | None = None
) -> list[tuple[int, ...]]:
    """All directed routes from ``src`` to ``dst`` with minimal hop count.

    Uses a BFS distance labelling followed by a predecessor walk.  The
    result is sorted lexicographically, so callers that pick the first
    element of a filtered subset stay deterministic.  Callers holding a
    cached adjacency map (:attr:`RoutingTable.adjacency`) pass it as
    ``adj`` to skip the rebuild.

    Raises
    ------
    RoutingError
        If ``dst`` is unreachable from ``src``.
    """
    if src == dst:
        return [(src,)]
    if adj is None:
        adj = _adjacency(links)
    if src not in adj or dst not in adj:
        raise RoutingError(f"unknown endpoint in route request {src}->{dst}")

    dist = {src: 0}
    queue = deque([src])
    while queue:
        here = queue.popleft()
        for nxt in adj[here]:
            if nxt not in dist:
                dist[nxt] = dist[here] + 1
                queue.append(nxt)
    if dst not in dist:
        raise RoutingError(f"no route from node {src} to node {dst}")

    routes: list[tuple[int, ...]] = []

    def walk(prefix: list[int]) -> None:
        here = prefix[-1]
        if here == dst:
            routes.append(tuple(prefix))
            return
        for nxt in adj[here]:
            if dist.get(nxt) == len(prefix):  # strictly forward in BFS layers
                walk(prefix + [nxt])

    walk([src])
    routes.sort()
    return routes


def _route_links(
    links: LinkMap, hops: Sequence[int]
) -> tuple[DirectedLink, ...]:
    out = []
    for a, b in zip(hops, hops[1:]):
        try:
            out.append(links[(a, b)])
        except KeyError as exc:
            raise RoutingError(f"route {hops} uses missing link {a}->{b}") from exc
    return tuple(out)


def select_route(
    links: LinkMap, plane: Plane, src: int, dst: int,
    adj: dict[int, list[int]] | None = None,
) -> tuple[int, ...]:
    """Pick the route a static routing register would hold.

    Selection: minimal hop count, then

    * ``PLANE_DMA``: widest bulk bottleneck (max of min ``dma_gbps``);
    * ``PLANE_PIO``: widest streaming bottleneck (max of min
      ``pio_gbps``), then lowest one-way latency;

    finally lexicographically smallest node sequence.
    """
    validate_plane(plane)
    candidates = enumerate_min_hop_routes(links, src, dst, adj=adj)
    if len(candidates) == 1:
        return candidates[0]

    def score(hops: tuple[int, ...]) -> tuple:
        route_links = _route_links(links, hops)
        if plane == PLANE_DMA:
            bottleneck = min(l.dma_gbps for l in route_links)
            # Negative for max; hops for lexicographic tie-break.
            return (-bottleneck, hops)
        bottleneck = min(l.pio_gbps for l in route_links)
        latency = sum(l.pio_latency_s for l in route_links)
        return (-bottleneck, latency, hops)

    return min(candidates, key=score)


class RoutingTable:
    """Cached per-plane routes over one machine's link map.

    Parameters
    ----------
    links:
        The machine's directed link map.  The table holds a reference; it
        must not be mutated after routing begins (builders finish the link
        set before touching routes).
    """

    def __init__(self, links: LinkMap) -> None:
        self._links = links
        self._overrides: dict[tuple[Plane, int, int], tuple[int, ...]] = {}
        self._cache: dict[tuple[Plane, int, int], tuple[int, ...]] = {}
        #: Routed paths built so far, keyed like ``_cache``.
        self._paths: dict[tuple[Plane, int, int], Path] = {}
        #: Per-plane link weights and per-(plane, src) widths, for
        #: :meth:`widest`.
        self._weights: dict[Plane, dict[tuple[int, int], tuple[float, float]]] = {}
        self._widest: dict[tuple[Plane, int], dict[int, float]] = {}
        #: A token replaced on every :meth:`set_route` and unique to this
        #: table, so a memo that recorded it also notices a new table.
        self.revision = object()
        self._adj: dict[int, list[int]] | None = None
        self._populated: set[Plane] = set()
        # Derive-time caches, built lazily by the first derive() and
        # dropped whenever the cached routes change: the per-plane
        # pair-keyed route view and its usage index (link ends -> pairs
        # whose selected route crosses it).
        self._plane_routes: dict[
            Plane, dict[tuple[int, int], tuple[int, ...]]
        ] = {}
        self._usage: dict[Plane, dict[tuple[int, int], list[tuple[int, int]]]] = {}
        #: Per-plane :class:`~repro.routing.incremental.RerouteStats`
        #: when this table was built by :meth:`derive`; empty otherwise.
        self.last_reroute: dict[Plane, RerouteStats] = {}

    @property
    def populated_planes(self) -> tuple[Plane, ...]:
        """Planes whose all-pairs routes are fully cached."""
        return tuple(sorted(self._populated))

    @property
    def adjacency(self) -> dict[int, list[int]]:
        """The link map's adjacency structure, built once and cached.

        The link map is immutable once routing begins (see the class
        docstring), so the adjacency never needs invalidation.
        """
        if self._adj is None:
            self._adj = _adjacency(self._links)
        return self._adj

    def populate(
        self, plane: Plane, nodes: Iterable[int] | None = None, strict: bool = True
    ) -> None:
        """Batch-compute every pair's route for ``plane`` in one pass.

        One BFS per source node plus a dynamic program over the BFS
        layer DAG (:mod:`repro.routing.batch`) fills the route cache
        with answers bit-identical to :func:`select_route`; explicit
        overrides installed with :meth:`set_route` still win on lookup.

        Parameters
        ----------
        plane:
            Traffic plane to populate.
        nodes:
            Endpoints to cover (default: every node with a link).
        strict:
            When true, a pair with no route — a partitioned fabric —
            raises :class:`~repro.errors.RoutingError` naming the pair;
            when false such pairs are left uncached and per-pair lookups
            keep raising lazily, as before.
        """
        validate_plane(plane)
        with _obs.span("routing.populate", plane=plane):
            routes = batch_routes(
                self._links, plane, nodes=nodes, adj=self.adjacency, strict=strict
            )
        _obs.count("routing.populates")
        for (src, dst), hops in routes.items():
            key = (plane, src, dst)
            if key not in self._overrides:
                self._cache[key] = hops
        self._plane_routes.pop(plane, None)
        self._usage.pop(plane, None)
        if nodes is None:
            self._populated.add(plane)

    def derive(self, links: LinkMap) -> "RoutingTable":
        """A table over ``links``, re-routed incrementally from this one.

        For every fully populated plane the new table's cache is filled
        through :func:`~repro.routing.incremental.incremental_routes`:
        only sources whose selected routes a removed/worsened link
        actually crossed — or that an added/improved link could newly
        serve — re-run BFS + Pareto-DP; everything else is carried over
        verbatim.  The result is bit-identical to constructing a fresh
        table and populating it non-strict, so lookups on partitioned
        pairs keep raising :class:`~repro.errors.RoutingError` lazily.

        Partially cached planes (never fully populated) start empty and
        re-populate lazily, as a fresh table would.  Explicit overrides
        are carried over when every link they use still exists (exactly
        the overrides :meth:`set_route` would accept on the new map);
        the rest are dropped.

        The per-plane :class:`~repro.routing.incremental.RerouteStats`
        land on the new table's :attr:`last_reroute` — the self-healing
        control plane reads the touched nodes from there.
        """
        table = RoutingTable(links)
        for plane in self.populated_planes:
            old_routes = self._plane_routes.get(plane)
            if old_routes is None:
                old_routes = {
                    (src, dst): hops
                    for (cached_plane, src, dst), hops in self._cache.items()
                    if cached_plane == plane
                }
                self._plane_routes[plane] = old_routes
            usage = self._usage.get(plane)
            if usage is None:
                usage = route_usage(old_routes)
                self._usage[plane] = usage
            routes, stats = incremental_routes(
                self._links, links, plane, old_routes,
                new_adj=table.adjacency, usage=usage,
            )
            cache = table._cache
            for (src, dst), hops in routes.items():
                cache[(plane, src, dst)] = hops
            table._populated.add(plane)
            table.last_reroute[plane] = stats
        for key, hops in self._overrides.items():
            try:
                _route_links(links, hops)
            except RoutingError:
                continue
            table._overrides[key] = hops
            table._cache.pop(key, None)
        return table

    def set_route(self, plane: Plane, hops: Iterable[int]) -> None:
        """Install an explicit route (overrides the heuristic).

        ``hops`` must be the full node sequence; every consecutive pair
        must be an existing directed link.
        """
        validate_plane(plane)
        hop_seq = tuple(hops)
        if len(hop_seq) < 2:
            raise TopologyError(f"an explicit route needs >= 2 hops, got {hop_seq!r}")
        _route_links(self._links, hop_seq)  # validates links exist
        key = (plane, hop_seq[0], hop_seq[-1])
        self._overrides[key] = hop_seq
        self._cache.pop(key, None)
        self._paths.pop(key, None)
        self._widest.pop((plane, hop_seq[0]), None)
        self._plane_routes.pop(plane, None)
        self._usage.pop(plane, None)
        self.revision = object()

    def route(self, plane: Plane, src: int, dst: int) -> tuple[int, ...]:
        """The node sequence traffic takes from ``src`` to ``dst``.

        The first lookup on a plane batch-populates every pair's route
        (non-strict, so partitioned fabrics still fail lazily per pair);
        later lookups are dictionary hits.
        """
        validate_plane(plane)
        key = (plane, src, dst)
        hit = self._overrides.get(key)
        if hit is not None:
            _obs.count("routing.route.cached")
            return hit
        hit = self._cache.get(key)
        if hit is None:
            if plane not in self._populated:
                self.populate(plane, strict=False)
                hit = self._cache.get(key)
            if hit is None:
                # Unknown or unreachable endpoints: the per-pair path
                # raises the precise RoutingError for this pair.
                with _obs.span("routing.select", plane=plane, src=src, dst=dst):
                    hit = select_route(
                        self._links, plane, src, dst, adj=self.adjacency
                    )
                self._cache[key] = hit
            _obs.count("routing.route.computed")
        else:
            _obs.count("routing.route.cached")
        return hit

    def widest(self, plane: Plane, src: int) -> dict[int, float] | None:
        """Narrowest link width on :meth:`route`'s route from ``src`` to each node.

        Route-free: one :func:`~repro.routing.batch.widest_from_source`
        pass over the cached adjacency, kept per ``(plane, src)`` until
        :meth:`set_route` installs a route from ``src``; no route is
        selected, cached or counted.  ``src`` maps to ``inf``, a node
        ``src`` cannot reach is absent, and a node with no links
        reaches only itself.  ``None`` when an override on ``plane``
        starts at ``src``: that pair's route is not the heuristic's, so
        the caller routes the pair itself.  The returned dict is the
        memo itself; do not mutate it.
        """
        validate_plane(plane)
        key = (plane, src)
        hit = self._widest.get(key)
        if hit is None:
            if any(o_plane == plane and o_src == src
                   for o_plane, o_src, _dst in self._overrides):
                return None
            adj = self.adjacency
            if src not in adj:
                hit = {src: math.inf}
            else:
                weights = self._weights.get(plane)
                if weights is None:
                    weights = self._weights[plane] = plane_weights(self._links, plane)
                hit = widest_from_source(adj, weights, src)
            self._widest[key] = hit
        return hit

    def route_links(self, plane: Plane, src: int, dst: int) -> tuple[DirectedLink, ...]:
        """The directed links along :meth:`route`."""
        return _route_links(self._links, self.route(plane, src, dst))

    def path(self, plane: Plane, src: int, dst: int) -> Path:
        """The routed :class:`~repro.routing.paths.Path` along :meth:`route`.

        Built on the pair's first lookup and kept until :meth:`set_route`
        replaces its route; a lookup that raises keeps nothing.
        """
        key = (plane, src, dst)
        hit = self._paths.get(key)
        if hit is None:
            hops = self.route(plane, src, dst)
            hit = Path(plane=plane, hops=hops, links=_route_links(self._links, hops))
            self._paths[key] = hit
        return hit
