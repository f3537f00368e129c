"""Page allocator policy semantics."""

import math

import pytest

from repro.errors import AllocationError
from repro.memory.allocator import PAGE_BYTES, PageAllocator
from repro.memory.policy import MemBinding
from repro.units import GiB, MiB


@pytest.fixture()
def allocator(host):
    return PageAllocator(host)


class TestLocalPreferred:
    def test_lands_on_cpu_node(self, allocator):
        allocation = allocator.allocate(64 * MiB, cpu_node=3)
        assert allocation.home_node() == 3
        assert allocation.total_bytes >= 64 * MiB

    def test_spills_to_nearest_when_full(self, allocator):
        # Exhaust node 3, then allocate local-preferred from it.
        free = allocator.free_bytes(3)
        allocator.allocate(free, cpu_node=3, binding=MemBinding.bind(3))
        spilled = allocator.allocate(64 * MiB, cpu_node=3)
        assert 3 not in spilled.nodes
        # Nearest first: a one-hop neighbour of node 3 (lowest id wins).
        assert spilled.home_node() == 1

    def test_records_stats(self, allocator):
        allocator.allocate(4 * MiB, cpu_node=5)
        assert allocator.stats.numa_hit[5] == 4 * MiB // PAGE_BYTES


class TestBind:
    def test_bind_lands_exactly(self, allocator):
        allocation = allocator.allocate(
            32 * MiB, cpu_node=0, binding=MemBinding.bind(6)
        )
        assert allocation.nodes == (6,)

    def test_bind_fails_when_exhausted(self, allocator):
        with pytest.raises(AllocationError):
            allocator.allocate(8 * GiB, cpu_node=0, binding=MemBinding.bind(6))

    def test_failed_bind_rolls_back(self, allocator):
        before = allocator.free_bytes(6)
        with pytest.raises(AllocationError):
            allocator.allocate(8 * GiB, cpu_node=0, binding=MemBinding.bind(6))
        assert allocator.free_bytes(6) == before

    def test_bind_spans_multiple_bound_nodes(self, allocator):
        free6 = allocator.free_bytes(6)
        allocation = allocator.allocate(
            free6 + 16 * MiB, cpu_node=0, binding=MemBinding.bind(6, 5)
        )
        assert set(allocation.nodes) == {5, 6}


class TestInterleave:
    def test_even_split(self, allocator):
        allocation = allocator.allocate(
            64 * MiB, cpu_node=0, binding=MemBinding.interleave(0, 1, 2, 3)
        )
        sizes = [allocation.bytes_by_node[n] for n in (0, 1, 2, 3)]
        assert max(sizes) - min(sizes) <= PAGE_BYTES

    def test_interleave_fails_atomically(self, allocator):
        befores = {n: allocator.free_bytes(n) for n in (4, 5)}
        with pytest.raises(AllocationError):
            allocator.allocate(
                16 * GiB, cpu_node=0, binding=MemBinding.interleave(4, 5)
            )
        assert {n: allocator.free_bytes(n) for n in (4, 5)} == befores

    def test_interleave_counts_hits(self, allocator):
        allocator.allocate(
            8 * MiB, cpu_node=0, binding=MemBinding.interleave(1, 2)
        )
        assert allocator.stats.interleave_hit[1] > 0
        assert allocator.stats.interleave_hit[2] > 0


class TestPreferred:
    def test_preferred_falls_back(self, allocator):
        free = allocator.free_bytes(4)
        allocator.allocate(free, cpu_node=4, binding=MemBinding.bind(4))
        allocation = allocator.allocate(
            16 * MiB, cpu_node=0, binding=MemBinding.preferred(4)
        )
        assert 4 not in allocation.nodes  # fell back without failing


class TestRelease:
    def test_release_restores_free(self, allocator):
        before = allocator.free_bytes(2)
        allocation = allocator.allocate(
            128 * MiB, cpu_node=2, binding=MemBinding.bind(2)
        )
        assert allocator.free_bytes(2) < before
        allocator.release(allocation)
        assert allocator.free_bytes(2) == before

    def test_double_free_detected(self, allocator):
        allocation = allocator.allocate(
            128 * MiB, cpu_node=2, binding=MemBinding.bind(2)
        )
        allocator.release(allocation)
        with pytest.raises(AllocationError):
            allocator.release(allocation)


class TestNode0Anomaly:
    def test_node0_has_least_free_memory(self, allocator, host):
        # The paper's `numactl --hardware` observation: ~1.5 GB free on
        # node 0, ~4 GB elsewhere.
        frees = {n: allocator.free_bytes(n) for n in host.node_ids}
        assert min(frees, key=frees.get) == 0
        assert frees[0] == pytest.approx(1.5 * GiB, rel=0.01)

    def test_zero_size_rejected(self, allocator):
        with pytest.raises(AllocationError):
            allocator.allocate(0, cpu_node=0)

    def test_unknown_cpu_node_rejected(self, allocator):
        with pytest.raises(AllocationError):
            allocator.allocate(4096, cpu_node=42)

    @pytest.mark.parametrize("size", [math.inf, math.nan, -math.inf, -1])
    def test_non_finite_or_negative_size_rejected(self, allocator, size):
        before = {n: allocator.free_bytes(n) for n in (0, 3)}
        with pytest.raises(AllocationError, match="must be a finite number > 0"):
            allocator.allocate(size, cpu_node=3)
        with pytest.raises(AllocationError, match="must be a finite number > 0"):
            allocator.allocate(size, cpu_node=0, binding=MemBinding.bind(3))
        assert {n: allocator.free_bytes(n) for n in (0, 3)} == before


class TestFits:
    def test_counts_bind_allocations(self, allocator):
        free = allocator.free_bytes(0)
        assert allocator.fits(free, 0) == 1
        assert allocator.fits(free // 3, 0) == 3
        assert allocator.fits(free + 1, 0) == 0
        allocator.allocate(free // 3, cpu_node=0, binding=MemBinding.bind(0))
        assert allocator.fits(free // 3, 0) == 2

    def test_rounds_sizes_up_to_pages(self, allocator):
        # One byte takes a whole page, as in allocate.
        pages = allocator.free_bytes(5) // PAGE_BYTES
        assert allocator.fits(1, 5) == pages
        assert allocator.fits(PAGE_BYTES + 1, 5) == pages // 2

    @pytest.mark.parametrize("size", [0, -1, math.inf, math.nan])
    def test_rejects_what_allocate_rejects(self, allocator, size):
        with pytest.raises(AllocationError) as fits:
            allocator.fits(size, 2)
        with pytest.raises(AllocationError) as allocate:
            allocator.allocate(size, cpu_node=2, binding=MemBinding.bind(2))
        assert str(fits.value) == str(allocate.value)

    def test_unknown_node_rejected(self, allocator):
        with pytest.raises(AllocationError, match="unknown CPU node 42"):
            allocator.fits(4096, 42)
