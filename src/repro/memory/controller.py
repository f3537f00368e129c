"""Memory-controller resource adapters for the flow solver."""

from __future__ import annotations

import functools
from dataclasses import dataclass

from repro.topology.machine import Machine

__all__ = ["MemoryController", "controller_capacities", "dma_resource"]


@functools.cache
def dma_resource(node_id: int) -> str:
    """Resource name for bulk/DMA traffic through ``node_id``'s controller.

    Built once per node, so every copy's resource tuple shares it.
    """
    return f"ctrl-dma:{node_id}"


@dataclass(frozen=True)
class MemoryController:
    """Flow-solver view of one node's DRAM controller.

    Exposes stable resource names so benchmark engines and the core
    characterization code count controller contention consistently.
    """

    node_id: int
    dram_gbps: float
    pio_ctrl_gbps: float

    @property
    def dma_resource(self) -> str:
        """Resource name for bulk/DMA traffic through this controller."""
        return dma_resource(self.node_id)

    @property
    def pio_resource(self) -> str:
        """Resource name for reported-PIO traffic through this controller."""
        return f"ctrl-pio:{self.node_id}"


def controller_capacities(machine: Machine) -> dict[str, float]:
    """Capacities for every controller resource of ``machine``."""
    caps: dict[str, float] = {}
    for nid in machine.node_ids:
        node = machine.node(nid)
        ctrl = MemoryController(nid, node.dram_gbps, node.pio_ctrl_gbps)
        caps[ctrl.dma_resource] = node.dram_gbps
        caps[ctrl.pio_resource] = node.pio_ctrl_gbps
    return caps
