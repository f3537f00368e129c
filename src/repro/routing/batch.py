"""Batched all-pairs route computation.

:func:`select_route` answers one ``(plane, src, dst)`` query by
enumerating *every* minimal-hop route and scoring each — correct, but
the enumeration is worst-case exponential in path diversity and each
query re-runs a BFS over a freshly rebuilt adjacency map.  Dense
characterization sweeps (the Fig. 3 matrix, Algorithm 1 over every
node, hop-distance analysis) ask for all pairs at once, so this module
computes them that way: **one BFS per source node**, then route
selection by dynamic programming over the BFS layer DAG.

Per source the DP carries, for every node, a small Pareto frontier of
labels ``(bottleneck, latency, hops)`` over minimal-hop prefixes.  A
label is dropped only when another one is at least as good in *all
three* components (wider-or-equal bottleneck, lower-or-equal latency,
lexicographically smaller-or-equal hop sequence); extending both labels
by any common suffix preserves that ordering, so the pruned label can
never win the final ``(-bottleneck, latency, hops)`` comparison at any
destination.  The surviving best label per destination is therefore
**bit-identical** to ``min(enumerate_min_hop_routes(...), key=score)``
— the property suite asserts exactly that against randomized
asymmetric topologies.

Cost: ``O(N * E * F)`` for all pairs of one plane, where the frontier
size ``F`` is bounded by the number of distinct link widths/latencies a
machine actually has (single digits in practice), instead of per-pair
BFS plus exponential route enumeration.

Callers that need only each route's narrowest link, not its hops (a
bulk copy's bottleneck), take :func:`widest_from_source` instead: one
BFS per source that carries a single float per node, the widest
bottleneck among minimal-hop prefixes.  That is the selection's first
key, so the value equals the narrowest width on the route
:func:`routes_from_source` selects, bit for bit, and no hop tuple is
built.
"""

from __future__ import annotations

import math
from typing import Iterable, Mapping, Sequence

from repro.errors import RoutingError
from repro.interconnect.planes import PLANE_DMA, Plane, validate_plane
from repro.obs import recorder as _obs

__all__ = [
    "bfs_layers",
    "plane_weights",
    "routes_from_source",
    "widest_from_source",
    "batch_routes",
]

#: A DP label: (bottleneck so far, latency so far, hop sequence).
Label = tuple[float, float, tuple[int, ...]]


def plane_weights(
    links: Mapping[tuple[int, int], object], plane: Plane
) -> dict[tuple[int, int], tuple[float, float]]:
    """Per-link ``(bottleneck, latency)`` contributions for one plane.

    The DMA plane scores routes on bulk bottleneck only, so its latency
    contribution is zero — which collapses the DP's tie-break to the
    same ``(-bottleneck, hops)`` key :func:`select_route` uses there.
    """
    validate_plane(plane)
    if plane == PLANE_DMA:
        return {ends: (link.dma_gbps, 0.0) for ends, link in links.items()}
    return {ends: (link.pio_gbps, link.pio_latency_s) for ends, link in links.items()}


def bfs_layers(
    adj: Mapping[int, Sequence[int]], src: int
) -> tuple[dict[int, int], list[list[int]]]:
    """BFS distance labels and per-layer node lists from ``src``."""
    dist = {src: 0}
    layers = [[src]]
    frontier = [src]
    while frontier:
        nxt = []
        for here in frontier:
            for there in adj[here]:
                if there not in dist:
                    dist[there] = dist[here] + 1
                    nxt.append(there)
        if nxt:
            layers.append(nxt)
        frontier = nxt
    return dist, layers


def _prune(candidates: list[Label]) -> list[Label]:
    """Pareto-prune labels; result sorted by the selection key."""
    candidates.sort(key=lambda t: (-t[0], t[1], t[2]))
    kept: list[Label] = []
    for b, lat, hops in candidates:
        if not any(kb >= b and kl <= lat and kh <= hops for kb, kl, kh in kept):
            kept.append((b, lat, hops))
    return kept


def routes_from_source(
    adj: Mapping[int, Sequence[int]],
    weights: Mapping[tuple[int, int], tuple[float, float]],
    src: int,
    bfs: "tuple[dict[int, int], list[list[int]]] | None" = None,
) -> dict[int, tuple[int, ...]]:
    """Selected minimal-hop route from ``src`` to every reachable node.

    Callers that already ran :func:`bfs_layers` for ``src`` (the
    incremental re-router probes reachability first) pass its result as
    ``bfs`` to skip the second sweep.
    """
    dist, layers = bfs_layers(adj, src) if bfs is None else bfs
    labels: dict[int, list[Label]] = {src: [(float("inf"), 0.0, (src,))]}
    for d in range(len(layers) - 1):
        candidates: dict[int, list[Label]] = {}
        for here in layers[d]:
            here_labels = labels[here]
            for there in adj[here]:
                if dist[there] != d + 1:
                    continue
                width, latency = weights[(here, there)]
                extended = candidates.setdefault(there, [])
                for b, lat, hops in here_labels:
                    extended.append(
                        (width if width < b else b, lat + latency, hops + (there,))
                    )
        for there, cand in candidates.items():
            labels[there] = _prune(cand)
    # _prune sorts by (-bottleneck, latency, hops) — the route selection
    # key — so the first surviving label is the selected route.
    return {node: node_labels[0][2] for node, node_labels in labels.items()}


def widest_from_source(
    adj: Mapping[int, Sequence[int]],
    weights: Mapping[tuple[int, int], tuple[float, float]],
    src: int,
) -> dict[int, float]:
    """Narrowest link width on the selected route from ``src`` to every reachable node.

    The route-free companion of :func:`routes_from_source`, over the
    same ``adj`` and ``weights`` (only each link's width, ``[0]``, is
    read).  One BFS from ``src`` visits the layer DAG in order; each
    node's value is the max over its previous-layer neighbours of the
    min of their value and the link's width, final once the BFS leaves
    the node's layer.  That is the widest bottleneck among minimal-hop
    routes, the first key of the route selection, and ``min``/``max``
    only pick among their operands, so every value is exactly the
    narrowest width on :func:`routes_from_source`'s route.  ``src``
    maps to ``inf`` (its route crosses no link); unreachable nodes are
    absent.  ``src`` must be a key of ``adj``.
    """
    widest = {src: math.inf}
    dist = {src: 0}
    frontier = [src]
    layer = 0
    while frontier:
        layer += 1
        nxt = []
        for here in frontier:
            through = widest[here]
            for there in adj[here]:
                seen = dist.get(there)
                if seen is None:
                    dist[there] = layer
                    nxt.append(there)
                    width = weights[(here, there)][0]
                    widest[there] = through if through < width else width
                elif seen == layer:
                    width = weights[(here, there)][0]
                    if through < width:
                        width = through
                    if width > widest[there]:
                        widest[there] = width
        frontier = nxt
    return widest


def batch_routes(
    links: Mapping[tuple[int, int], object],
    plane: Plane,
    nodes: Iterable[int] | None = None,
    adj: Mapping[int, Sequence[int]] | None = None,
    strict: bool = True,
) -> dict[tuple[int, int], tuple[int, ...]]:
    """All-pairs selected routes for one plane.

    Parameters
    ----------
    links:
        Directed link map, ``(src, dst) -> DirectedLink``.
    plane:
        Traffic plane the selection scores on.
    nodes:
        Endpoints to cover (default: every node appearing in ``links``).
    adj:
        Pre-built adjacency map (callers with a cached one avoid the
        rebuild; see :meth:`RoutingTable.adjacency`).
    strict:
        When true, raise :class:`~repro.errors.RoutingError` naming the
        first pair with no route (a partitioned or incomplete fabric);
        when false, silently omit unreachable pairs.
    """
    validate_plane(plane)
    if adj is None:
        from repro.routing.table import _adjacency

        adj = _adjacency(links)
    node_list = tuple(sorted(adj)) if nodes is None else tuple(nodes)
    weights = plane_weights(links, plane)
    out: dict[tuple[int, int], tuple[int, ...]] = {}
    with _obs.span("routing.batch", plane=plane, nodes=len(node_list)):
        for src in node_list:
            if src not in adj:
                others = [d for d in node_list if d != src]
                if strict and others:
                    raise RoutingError(
                        f"no route from node {src} to node {others[0]}: "
                        f"node {src} has no fabric links"
                    )
                out[(src, src)] = (src,)
                continue
            routes = routes_from_source(adj, weights, src)
            _obs.count("routing.batch.bfs")
            for dst in node_list:
                hops = routes.get(dst)
                if hops is None:
                    if strict:
                        raise RoutingError(
                            f"no route from node {src} to node {dst}"
                        )
                    continue
                out[(src, dst)] = hops
    return out
