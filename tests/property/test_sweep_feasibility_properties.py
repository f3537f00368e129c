"""The Algorithm 1 sweep's feasibility check against the per-probe cycle.

``IOModelBuilder.build_many`` decides every probe's buffers with one
``PageAllocator.fits`` query per node and replays the per-probe
allocate / bind / free cycle only when some probe would fail.  The
reference is Algorithm 1 as written: ``measure_pair`` per (node, target)
probe, each allocating its two buffers with ``numa_alloc_onnode``.  On
hosts whose nodes hold a drawn number of probe buffers, both must give
the same models, or the same ``AllocationError`` after the same
``numa_alloc_onnode`` calls; ``fits`` must count exactly the BIND
allocations that succeed in a row.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.iomodel import IOModelBuilder
from repro.errors import AllocationError
from repro.memory.allocator import PageAllocator
from repro.osmodel import libnuma
from repro.topology.builders import reference_host
from repro.topology.serialize import machine_from_dict, machine_to_dict

_BARE = reference_host(with_devices=False)
_PROBE = IOModelBuilder(_BARE)
#: One probe buffer: m threads' copy buffers on one node.
_NEED = _PROBE.threads_per_node() * _PROBE.buffer_bytes


def _with_free_bytes(free_by_node):
    """A copy of the bare reference host; ``free_by_node`` sets free memory."""
    data = machine_to_dict(_BARE)
    for entry in data["nodes"]:
        if entry["node_id"] in free_by_node:
            entry["os_resident_bytes"] = (
                entry["memory_bytes"] - free_by_node[entry["node_id"]]
            )
    return machine_from_dict(data)


@st.composite
def sized_nodes(draw):
    """A node, a request size and the node's free memory.

    Free memory stays under ~40 requests, so the count stays small, and
    neither is page-aligned in general.
    """
    node = draw(st.sampled_from(_BARE.node_ids))
    size = draw(st.one_of(
        st.integers(min_value=1, max_value=2**28),
        st.floats(min_value=0.5, max_value=2.0**28),
    ))
    memory = _BARE.node(node).memory_bytes
    free = draw(st.integers(min_value=0, max_value=min(memory, int(40 * size) + 8192)))
    return node, size, free


@given(sized_nodes())
@settings(max_examples=120, deadline=None)
def test_fits_counts_successive_bind_allocations(case):
    node, size, free = case
    allocator = PageAllocator(_with_free_bytes({node: free}))
    k = allocator.fits(size, node)
    for _ in range(k):
        libnuma.numa_alloc_onnode(allocator, size, node)
    with pytest.raises(AllocationError):
        libnuma.numa_alloc_onnode(allocator, size, node)
    assert allocator.fits(size, node) == 0


#: Free memory per node, in probe buffers.
_ROOM = [0, 0.5, 1, 1.5, 2, 3]


@st.composite
def sweeps(draw):
    """A host with drawn free memory, distinct targets and a mode.

    A third of the hosts give every node two buffers or more, so every
    probe fits; a third give at least one, so only a local probe can
    fail; the rest draw from every level.
    """
    room = draw(st.sampled_from([_ROOM[4:], _ROOM[2:], _ROOM]))
    buffers = draw(st.lists(st.sampled_from(room), min_size=_BARE.n_nodes,
                            max_size=_BARE.n_nodes))
    machine = _with_free_bytes({
        n: int(b * _NEED) for n, b in zip(_BARE.node_ids, buffers)
    })
    targets = draw(st.lists(st.sampled_from(_BARE.node_ids), min_size=1, max_size=4,
                            unique=True))
    return machine, targets, draw(st.sampled_from(["write", "read"]))


def _outcome(run, calls):
    """``("ok", values per target)`` or ``("error", text, calls)``."""
    calls.clear()
    try:
        values = run()
    except AllocationError as exc:
        return "error", str(exc), list(calls)
    return "ok", values


@given(sweeps())
@settings(max_examples=60, deadline=None)
def test_sweep_matches_measure_pair_loop(case):
    machine, targets, mode = case
    calls = []
    alloc = libnuma.numa_alloc_onnode

    def logged(allocator, size_bytes, node):
        calls.append((size_bytes, node))
        return alloc(allocator, size_bytes, node)

    def sweep():
        models = IOModelBuilder(machine, runs=2).build_many(targets, mode)
        return {k: model.values for k, model in models.items()}

    def loop():
        builder = IOModelBuilder(machine, runs=2)
        return {
            k: {i: builder.measure_pair(i, k, mode).gbps for i in machine.node_ids}
            for k in targets
        }

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(libnuma, "numa_alloc_onnode", logged)
        swept = _outcome(sweep, calls)
        swept_calls = list(calls)
        looped = _outcome(loop, calls)
    assert swept == looped
    if swept[0] == "ok":
        assert swept_calls == []
