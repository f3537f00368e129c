"""NUMA node, core, and package records."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.errors import TopologyError
from repro.units import GiB

__all__ = ["Core", "NumaNode", "Package"]


@dataclass(frozen=True)
class Core:
    """A CPU core, identified globally and by its home node."""

    core_id: int
    node_id: int

    def __post_init__(self) -> None:
        if self.core_id < 0 or self.node_id < 0:
            raise TopologyError(f"negative core/node id: {self!r}")


@dataclass(frozen=True)
class NumaNode:
    """One NUMA node: a CPU die plus its directly attached memory.

    Parameters
    ----------
    node_id:
        Global node index (0-based, matching ``numactl`` numbering).
    package_id:
        The physical CPU package (socket) this die belongs to.
    cores:
        The cores on this die.
    memory_bytes:
        Installed DRAM behind this node's controller.
    dram_gbps:
        Streaming capacity of the memory controller for bulk/DMA traffic,
        in Gbps of payload.
    pio_ctrl_gbps:
        Controller-side cap on *reported* PIO streaming bandwidth (STREAM
        semantics count both the read and the write of a copy; coherent
        traffic adds probe overhead, so this is well below ``dram_gbps``).
    os_resident_bytes:
        Memory pinned by the OS at boot (kernel, buffers, shared
        libraries).  On the reference host this is concentrated on node 0,
        reproducing the paper's ``numactl --hardware`` free-memory
        observation.
    """

    node_id: int
    package_id: int
    cores: tuple[Core, ...]
    memory_bytes: int = 4 * GiB
    dram_gbps: float = 56.0
    pio_ctrl_gbps: float = 31.0
    os_resident_bytes: int = 0

    def __post_init__(self) -> None:
        if self.node_id < 0:
            raise TopologyError(f"negative node id: {self.node_id}")
        if not self.cores:
            raise TopologyError(f"node {self.node_id} has no cores")
        for core in self.cores:
            if core.node_id != self.node_id:
                raise TopologyError(
                    f"core {core.core_id} claims node {core.node_id}, "
                    f"but is listed under node {self.node_id}"
                )
        if self.memory_bytes <= 0:
            raise TopologyError(f"node {self.node_id}: memory_bytes must be positive")
        for name in ("dram_gbps", "pio_ctrl_gbps"):
            value = getattr(self, name)
            if not 0 < value < math.inf:
                raise TopologyError(
                    f"node {self.node_id}: {name} must be positive and finite, "
                    f"got {value!r}"
                )
        if not 0 <= self.os_resident_bytes <= self.memory_bytes:
            raise TopologyError(
                f"node {self.node_id}: os_resident_bytes outside [0, memory_bytes]"
            )

    @property
    def n_cores(self) -> int:
        """Number of cores on this die."""
        return len(self.cores)

    @property
    def free_bytes(self) -> int:
        """Memory available to applications on an idle system."""
        return self.memory_bytes - self.os_resident_bytes


@dataclass(frozen=True)
class Package:
    """A physical CPU package (socket) containing one or more dies."""

    package_id: int
    node_ids: tuple[int, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if self.package_id < 0:
            raise TopologyError(f"negative package id: {self.package_id}")
        if not self.node_ids:
            raise TopologyError(f"package {self.package_id} contains no nodes")
        if len(set(self.node_ids)) != len(self.node_ids):
            raise TopologyError(f"package {self.package_id} lists a node twice")
