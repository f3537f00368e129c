"""``libnuma``-shaped runtime API.

Thin functional wrappers whose names mirror the libnuma calls the
paper's Algorithm 1 is written against (``numa_num_configured_nodes``,
``numa_alloc_onnode``, ``numa_run_on_node``...), so the core
characterization code reads like the paper's pseudocode.
"""

from __future__ import annotations

import functools

from repro.errors import AffinityError
from repro.memory.allocator import Allocation, PageAllocator
from repro.memory.policy import MemBinding
from repro.topology.machine import Machine

__all__ = [
    "numa_num_configured_nodes",
    "numa_num_configured_cpus",
    "numa_node_of_cpu",
    "numa_alloc_onnode",
    "numa_free",
    "numa_run_on_node",
    "numa_distance_ok",
]


def numa_num_configured_nodes(machine: Machine) -> int:
    """Number of configured NUMA nodes (Algorithm 1, line 1)."""
    return machine.n_nodes


def numa_num_configured_cpus(machine: Machine) -> int:
    """Total configured CPUs (Algorithm 1, line 2 numerator)."""
    return machine.n_cores


def numa_node_of_cpu(machine: Machine, cpu: int) -> int:
    """Home node of a CPU id."""
    for nid in machine.node_ids:
        if any(c.core_id == cpu for c in machine.node(nid).cores):
            return nid
    raise AffinityError(f"no such cpu {cpu}")


@functools.cache
def _bind(node: int) -> MemBinding:
    """The frozen BIND binding to ``node``, built once per node."""
    return MemBinding.bind(node)


def numa_alloc_onnode(
    allocator: PageAllocator, size_bytes: int, node: int
) -> Allocation:
    """``numa_alloc_onnode``: hard allocation on one node."""
    return allocator.allocate(size_bytes, cpu_node=node, binding=_bind(node))


def numa_free(allocator: PageAllocator, allocation: Allocation) -> None:
    """Release an allocation."""
    allocator.release(allocation)


def numa_run_on_node(machine: Machine, node: int) -> int:
    """Validate-and-return a run-on-node request."""
    if node not in machine.node_ids:
        raise AffinityError(f"numa_run_on_node: unknown node {node}")
    return node


def numa_distance_ok(machine: Machine, a: int, b: int) -> bool:
    """True when both endpoints exist (libnuma's distance precondition)."""
    return a in machine.node_ids and b in machine.node_ids
