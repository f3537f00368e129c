"""The :class:`Machine`: one NUMA host, fully described.

Besides the structural description (nodes, packages, links, devices), the
machine exposes the two *capacity models* every benchmark is built on:

* :meth:`Machine.dma_path_gbps` — sustainable bulk/DMA bandwidth between
  two nodes' memories (what device DMA engines and streaming ``memcpy``
  see);
* :meth:`Machine.pio_stream_gbps` — reported STREAM-style bandwidth for
  CPU threads on one node accessing memory of another (latency- and
  credit-bound coherent traffic).

Keeping both models on one object, fed by one link map, is what makes the
paper's "STREAM model disagrees with I/O model" result an emergent
property here instead of two unrelated lookup tables.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Any, Iterable

from repro.errors import TopologyError
from repro.interconnect.link import DirectedLink
from repro.interconnect.planes import PLANE_DMA, PLANE_PIO, Plane
from repro.routing.paths import Path
from repro.routing.table import RoutingTable
from repro.units import NS

__all__ = ["Machine", "MachineParams", "Relation"]


class Relation(enum.Enum):
    """NUMA relation between two nodes, per the paper's §II-A terminology."""

    LOCAL = "local"
    NEIGHBOR = "neighbor"
    REMOTE = "remote"


@dataclass(frozen=True)
class MachineParams:
    """Host-wide calibration parameters.

    Parameters
    ----------
    local_latency_s:
        Load-to-use latency of a local DRAM access.
    pio_core_gbps_ns:
        Per-core streaming PIO constant: a core sustains
        ``pio_core_gbps_ns / latency_ns`` Gbps of reported STREAM
        bandwidth.  This is the product (outstanding window) x (bits per
        line) collapsed into one calibrated number.
    oslib_penalty:
        Multiplicative PIO throughput factor paid by threads running off
        ``os_node``: shared libraries and OS structures live on
        ``os_node``, so everyone else's instruction/metadata fetches cross
        the fabric (§IV-A's node-0 anomaly).
    os_node:
        Node holding the OS image (0 on Linux after boot).
    dma_per_thread_gbps:
        Ceiling on a single bulk-copy thread (one DMA-style engine
        context); Algorithm 1 uses one thread per core to overcome it.
    pio_request_frac / pio_response_frac:
        Fraction of reported STREAM bytes that crosses the request
        (cpu -> memory) and response (memory -> cpu) link directions.  For
        the Copy kernel the response path carries the read stream plus the
        read-for-ownership fill (1.0 of reported bytes) and the request
        path carries the write-back stream (0.5).
    router_latency_s:
        Per-hop latency added by intermediate routing (node controllers on
        glued topologies like the 32-node blade).
    llc_bytes:
        Last-level cache per die (5 MB on the Opteron 6136); STREAM's
        "arrays at least 4x the largest cache" rule validates against it.
    description:
        Free-form provenance note rendered in reports.
    """

    local_latency_s: float = 100 * NS
    pio_core_gbps_ns: float = 775.0
    oslib_penalty: float = 0.92
    os_node: int = 0
    dma_per_thread_gbps: float = 16.0
    pio_request_frac: float = 0.5
    pio_response_frac: float = 1.0
    router_latency_s: float = 0.0
    llc_bytes: int = 5_000_000
    description: str = ""

    def __post_init__(self) -> None:
        _check_param(self, "local_latency_s")
        _check_param(self, "pio_core_gbps_ns")
        if not 0 < self.oslib_penalty <= 1:
            raise TopologyError("oslib_penalty must be in (0, 1]")
        _check_param(self, "dma_per_thread_gbps")
        _check_param(self, "pio_request_frac", zero_ok=True)
        _check_param(self, "pio_response_frac")
        _check_param(self, "router_latency_s", zero_ok=True)


def _check_param(params: MachineParams, name: str, zero_ok: bool = False) -> None:
    """Reject a non-finite ``params.<name>``, or one below 0 (at most 0
    unless ``zero_ok``), naming the field and the value."""
    value = getattr(params, name)
    above_floor = 0 <= value if zero_ok else 0 < value
    if not (above_floor and value < math.inf):
        sign = "non-negative" if zero_ok else "positive"
        raise TopologyError(f"{name} must be {sign} and finite, got {value!r}")


class Machine:
    """A complete NUMA host description.

    Built by the functions in :mod:`repro.topology.builders`; most users
    never construct one directly.  The constructor validates structural
    consistency (every link endpoint exists, packages partition the
    nodes, ...).
    """

    def __init__(
        self,
        name: str,
        nodes: Iterable[Any],
        packages: Iterable[Any],
        links: Iterable[DirectedLink],
        params: MachineParams | None = None,
    ) -> None:
        self.name = name
        self.params = params or MachineParams()
        self._nodes = {n.node_id: n for n in nodes}
        self._packages = {p.package_id: p for p in packages}
        self._links: dict[tuple[int, int], DirectedLink] = {}
        for link in links:
            if link.ends in self._links:
                raise TopologyError(f"duplicate link direction {link.ends} on {name}")
            self._links[link.ends] = link
        #: Devices attached to this host, name -> device object
        #: (populated by :func:`repro.devices.attach.attach_device`).
        self.devices: dict[str, Any] = {}
        self._validate()
        self._node_ids = tuple(sorted(self._nodes))
        self._routing = RoutingTable(self._links)

    # --- validation ------------------------------------------------------
    def _validate(self) -> None:
        if not self._nodes:
            raise TopologyError(f"machine {self.name!r} has no nodes")
        listed = [nid for p in self._packages.values() for nid in p.node_ids]
        if sorted(listed) != sorted(self._nodes):
            raise TopologyError(
                f"machine {self.name!r}: packages do not partition the node set "
                f"(packages list {sorted(listed)}, nodes are {sorted(self._nodes)})"
            )
        for node in self._nodes.values():
            if node.package_id not in self._packages:
                raise TopologyError(
                    f"node {node.node_id} references unknown package {node.package_id}"
                )
            if node.node_id not in self._packages[node.package_id].node_ids:
                raise TopologyError(
                    f"node {node.node_id} not listed in its package {node.package_id}"
                )
        for (src, dst), _link in self._links.items():
            if src not in self._nodes or dst not in self._nodes:
                raise TopologyError(f"link {src}->{dst} references an unknown node")
        core_ids = [c.core_id for n in self._nodes.values() for c in n.cores]
        if len(set(core_ids)) != len(core_ids):
            raise TopologyError(f"machine {self.name!r}: duplicate core ids")

    # --- structure queries -------------------------------------------------
    @property
    def node_ids(self) -> tuple[int, ...]:
        """Sorted node ids."""
        return self._node_ids

    @property
    def n_nodes(self) -> int:
        """Number of NUMA nodes."""
        return len(self._nodes)

    @property
    def n_cores(self) -> int:
        """Total core count."""
        return sum(n.n_cores for n in self._nodes.values())

    def node(self, node_id: int):
        """The :class:`~repro.topology.node.NumaNode` with this id."""
        try:
            return self._nodes[node_id]
        except KeyError as exc:
            raise TopologyError(f"{self.name!r} has no node {node_id}") from exc

    @property
    def packages(self) -> dict[int, Any]:
        """Package id -> :class:`~repro.topology.node.Package`."""
        return dict(self._packages)

    @property
    def links(self) -> dict[tuple[int, int], DirectedLink]:
        """Directed link map, ``(src, dst) -> link``."""
        return dict(self._links)

    def link(self, src: int, dst: int) -> DirectedLink:
        """The directed link ``src -> dst``; raises if absent."""
        try:
            return self._links[(src, dst)]
        except KeyError as exc:
            raise TopologyError(f"{self.name!r} has no link {src}->{dst}") from exc

    def relation(self, a: int, b: int) -> Relation:
        """LOCAL, NEIGHBOR (same package) or REMOTE, per the paper's terms."""
        if a == b:
            return Relation.LOCAL
        if self.node(a).package_id == self.node(b).package_id:
            return Relation.NEIGHBOR
        return Relation.REMOTE

    def cores_per_node(self) -> int:
        """Cores per node (the paper's thread count for node-level tests)."""
        counts = {n.n_cores for n in self._nodes.values()}
        if len(counts) != 1:
            raise TopologyError(f"{self.name!r} has heterogeneous core counts: {counts}")
        return counts.pop()

    # --- routing ------------------------------------------------------------
    @property
    def routing(self) -> RoutingTable:
        """The static routing table (explicit overrides allowed)."""
        return self._routing

    def path(self, plane: Plane, src: int, dst: int) -> Path:
        """The routed :class:`~repro.routing.paths.Path` for this plane.

        Built once per pair by :meth:`RoutingTable.path
        <repro.routing.table.RoutingTable.path>`.
        """
        return self._routing.path(plane, src, dst)

    # --- capacity models ------------------------------------------------------
    def dma_path_gbps(self, src: int, dst: int) -> float:
        """Bulk/DMA bandwidth moving data from node ``src`` memory to ``dst``.

        The minimum of the source controller read rate, destination
        controller write rate, and the DMA-plane bottleneck link.  This is
        the quantity Algorithm 1 estimates empirically and that device DMA
        engines experience.
        """
        ctrl = min(self.node(src).dram_gbps, self.node(dst).dram_gbps)
        if src == dst:
            return ctrl
        return min(ctrl, self.path(PLANE_DMA, src, dst).dma_bottleneck_gbps())

    def pio_round_trip_s(self, cpu_node: int, mem_node: int) -> float:
        """Request+response latency for a coherent access cpu -> mem."""
        base = self.params.local_latency_s
        if cpu_node == mem_node:
            return base
        fwd = self.path(PLANE_PIO, cpu_node, mem_node)
        rev = self.path(PLANE_PIO, mem_node, cpu_node)
        hop_cost = self.params.router_latency_s * (fwd.n_hops + rev.n_hops)
        return base + fwd.latency_one_way_s() + rev.latency_one_way_s() + hop_cost

    def pio_stream_gbps(self, cpu_node: int, mem_node: int, threads: int | None = None) -> float:
        """Reported STREAM-Copy bandwidth, ``threads`` on ``cpu_node``
        against arrays on ``mem_node`` (no measurement noise).

        Composition: per-core latency-bound rate x threads, capped by the
        response-direction link caps (1.0 x reported bytes), the
        request-direction caps (``pio_request_frac`` x reported bytes),
        and the memory-node controller; scaled by the shared-library
        penalty when the threads run off the OS node.
        """
        if threads is None:
            threads = self.node(cpu_node).n_cores
        if threads <= 0:
            raise TopologyError(f"thread count must be positive, got {threads}")
        latency_ns = self.pio_round_trip_s(cpu_node, mem_node) / NS
        rate = threads * self.params.pio_core_gbps_ns / latency_ns
        rate = min(rate, self.node(mem_node).pio_ctrl_gbps)
        if cpu_node != mem_node:
            request = self.path(PLANE_PIO, cpu_node, mem_node)
            response = self.path(PLANE_PIO, mem_node, cpu_node)
            rate = min(rate, response.pio_bottleneck_gbps() / self.params.pio_response_frac)
            if self.params.pio_request_frac > 0:
                rate = min(rate, request.pio_bottleneck_gbps() / self.params.pio_request_frac)
        if cpu_node != self.params.os_node:
            rate *= self.params.oslib_penalty
        return rate

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Machine({self.name!r}, nodes={self.n_nodes}, cores={self.n_cores}, "
            f"links={len(self._links)}, devices={sorted(self.devices)})"
        )
