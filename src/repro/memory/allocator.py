"""Page-granular NUMA allocator.

Tracks per-node free memory (seeded from each node's OS-resident set,
which is how the paper's ``numactl --hardware`` observation — 1.5 GB
free on node 0, ~4 GB elsewhere — shows up here) and implements the four
Linux policies.  Benchmarks allocate their buffers through this, so a
BIND to a full node fails exactly like ``mbind`` would, and
LOCAL_PREFERRED spills to the nearest node with space.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import AllocationError
from repro.memory.numastat import NumaStat
from repro.memory.policy import AllocPolicy, MemBinding
from repro.topology.distance import hop_pairs
from repro.topology.machine import Machine

__all__ = ["Allocation", "PageAllocator"]

PAGE_BYTES = 4096


@dataclass(frozen=True)
class Allocation:
    """A satisfied allocation: bytes per node (page-aligned)."""

    bytes_by_node: dict[int, int]

    @property
    def total_bytes(self) -> int:
        """Total allocated size."""
        return sum(self.bytes_by_node.values())

    @property
    def nodes(self) -> tuple[int, ...]:
        """Nodes that received at least one page."""
        return tuple(sorted(n for n, b in self.bytes_by_node.items() if b))

    def home_node(self) -> int:
        """The node holding the majority of the allocation."""
        return max(sorted(self.bytes_by_node), key=lambda n: self.bytes_by_node[n])


def _pages(size_bytes: int) -> int:
    """Pages an allocation of ``size_bytes`` takes (rounded up)."""
    if not 0 < size_bytes < math.inf:
        raise AllocationError(
            f"allocation size must be a finite number > 0, got {size_bytes}"
        )
    return -(-size_bytes // PAGE_BYTES)


class PageAllocator:
    """Per-machine page bookkeeping with Linux policy semantics."""

    def __init__(self, machine: Machine) -> None:
        self.machine = machine
        self._free = {nid: machine.node(nid).free_bytes for nid in machine.node_ids}
        #: Each node's application memory: the most ``release`` can restore.
        self._limit = dict(self._free)
        self.stats = NumaStat(node_ids=machine.node_ids)
        # Shared per-machine distance dict: allocators only read it, and
        # characterization sweeps construct one allocator per probe.
        self._hops = hop_pairs(machine)

    def free_bytes(self, node: int) -> int:
        """Currently free memory on ``node``."""
        if node not in self._free:
            raise AllocationError(f"unknown node {node}")
        return self._free[node]

    def fits(self, size_bytes: int, node: int) -> int:
        """How many BIND allocations of ``size_bytes`` ``node`` holds now.

        ``k`` successive ``allocate(size_bytes, node, MemBinding.bind(node))``
        calls succeed exactly when ``k`` is at most this; it rejects the
        sizes and nodes :meth:`allocate` rejects, with the same errors.
        """
        pages = _pages(size_bytes)
        if node not in self._free:
            raise AllocationError(f"unknown CPU node {node}")
        return int(self._free[node] // PAGE_BYTES // pages)

    def allocate(self, size_bytes: int, cpu_node: int, binding: MemBinding | None = None) -> Allocation:
        """Allocate ``size_bytes`` for a task faulting from ``cpu_node``.

        Raises
        ------
        AllocationError
            When the size is not a finite number > 0, a BIND set is
            exhausted, or the whole machine is out of memory.
        """
        pages = _pages(size_bytes)
        if cpu_node not in self._free:
            raise AllocationError(f"unknown CPU node {cpu_node}")
        binding = binding or MemBinding.local()

        if binding.policy is AllocPolicy.INTERLEAVE:
            return self._interleave(pages, cpu_node, binding.nodes)

        if binding.policy is AllocPolicy.BIND:
            candidates = list(binding.nodes)
            strict = True
            intended = binding.nodes[0]
        elif binding.policy is AllocPolicy.PREFERRED:
            intended = binding.nodes[0]
            candidates = self._by_distance(intended)
            strict = False
        else:  # LOCAL_PREFERRED
            intended = cpu_node
            candidates = self._by_distance(cpu_node)
            strict = False

        got: dict[int, int] = {}
        need = pages
        for node in candidates:
            take = min(need, self._free[node] // PAGE_BYTES)
            if take > 0:
                got[node] = got.get(node, 0) + take * PAGE_BYTES
                self._free[node] -= take * PAGE_BYTES
                self.stats.record(node, intended, cpu_node, take)
                need -= take
            if need == 0:
                break
        if need > 0:
            # Roll back so a failed allocation leaves no trace.
            for node, size in got.items():
                self._free[node] += size
            where = f"nodes {binding.nodes}" if strict else "the machine"
            raise AllocationError(
                f"cannot allocate {size_bytes} bytes on {where} "
                f"({need * PAGE_BYTES} bytes short)"
            )
        return Allocation(bytes_by_node=got)

    def _interleave(self, pages: int, cpu_node: int, nodes: tuple[int, ...]) -> Allocation:
        per = pages // len(nodes)
        extra = pages % len(nodes)
        got: dict[int, int] = {}
        for i, node in enumerate(nodes):
            want = per + (1 if i < extra else 0)
            if want == 0:
                continue
            if self._free[node] < want * PAGE_BYTES:
                for done, size in got.items():
                    self._free[done] += size
                raise AllocationError(
                    f"interleave over {nodes} failed: node {node} lacks "
                    f"{want * PAGE_BYTES} bytes"
                )
            got[node] = want * PAGE_BYTES
            self._free[node] -= want * PAGE_BYTES
            self.stats.record(node, node, cpu_node, want, interleaved=True)
        return Allocation(bytes_by_node=got)

    def release(self, allocation: Allocation) -> None:
        """Return an allocation's pages to their nodes."""
        for node, size in allocation.bytes_by_node.items():
            if node not in self._free:
                raise AllocationError(f"release references unknown node {node}")
            if self._free[node] + size > self._limit[node]:
                raise AllocationError(
                    f"double free on node {node}: releasing {size} bytes would "
                    f"exceed the node's application memory"
                )
            self._free[node] += size

    def _by_distance(self, origin: int) -> list[int]:
        """Node ids ordered by hop distance from ``origin`` (stable)."""
        return sorted(self.machine.node_ids, key=lambda n: (self._hops[(origin, n)], n))
