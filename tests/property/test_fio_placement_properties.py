"""The fio engine's per-group placements against the per-stream reference.

``DeviceIOEngine.run`` reads a job's placements off per node group when
every stream is bound to a known node and each node holds its whole
group's buffers; any other job replays ``resolve_placements`` stream by
stream.  The reference is ``run`` as it was before: every job through
``resolve_placements`` on a fresh allocator, frozen below.  On copies of
the reference host whose nodes hold a drawn number of I/O buffers (so
groups fit, spill and fail), both must give the same ``JobResult``
(every field but ``solver_stats``, floats by ``float.hex``) or the same
error.  ``device_service_levels``, which now computes each distinct
placement once, is held to its per-stream body the same way.
``solver_stats`` is left out: it holds wall times, and each distinct
placement now looks its DMA path up once, so ``path_hits`` falls.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.engines import (
    OVERSUBSCRIPTION_EXPONENT,
    DeviceIOEngine,
    StreamPlacement,
    device_service_levels,
    resolve_placements,
)
from repro.bench.jobfile import FioJob
from repro.devices.standard import attach_reference_devices
from repro.errors import BenchmarkError
from repro.memory.allocator import PageAllocator
from repro.solver.session import get_session
from repro.topology.builders import reference_host
from repro.topology.serialize import machine_from_dict, machine_to_dict
from repro.units import GB, KiB

_HOST = reference_host()
_NODES = _HOST.node_ids
_ENGINE_RW = [
    ("tcp", "send"), ("tcp", "recv"),
    ("rdma", "write"), ("rdma", "read"), ("rdma", "send"),
    ("libaio", "write"), ("libaio", "read"),
]
#: Free memory per node, in I/O buffers (``None``: the host's own).
_ROOM = [0, 0.5, 1, 1.5, 2, 3, 4.5, 8, 17, 40, None]
#: Room where every group of up to 40 streams fits.
_ROOMY = [40, 41.5, None]


def _frozen_run(self, job, rng):
    """``DeviceIOEngine.run`` before the per-group path, verbatim."""
    device = self.machine.devices.get(job.device)
    if device is None:
        raise BenchmarkError(
            f"job {job.name!r} needs device {job.device!r}, but "
            f"{self.machine.name!r} has {sorted(self.machine.devices)}"
        )
    profile = device.engine(job.profile_name)
    if job.engine == "libaio" and job.iodepth < device.min_iodepth:
        raise BenchmarkError(
            f"job {job.name!r}: iodepth {job.iodepth} cannot keep "
            f"{device.name!r} saturated (needs >= {device.min_iodepth})"
        )

    allocator = PageAllocator(self.machine)
    placements, allocations = resolve_placements(self.machine, allocator, job)
    try:
        return self._simulate(job, device, profile, placements, rng)
    finally:
        for allocation in allocations:
            allocator.release(allocation)


class _FrozenEngine(DeviceIOEngine):
    run = _frozen_run


def _frozen_levels(machine, device, profile, placements, direction, session=None):
    """``device_service_levels`` before it grouped placements, verbatim."""
    session = session if session is not None else get_session(machine)
    streams_on_node: dict[int, int] = {}
    for p in placements:
        streams_on_node[p.cpu_node] = streams_on_node.get(p.cpu_node, 0) + 1
    levels = []
    for p in placements:
        if direction == "write":
            path = session.dma_path_gbps(p.mem_node, device.node_id)
        else:
            path = session.dma_path_gbps(device.node_id, p.mem_node)
        level = profile.curve.value(path)
        level *= device.irq.factor(p.cpu_node, profile.irq_sensitivity)
        cores = machine.node(p.cpu_node).n_cores
        m = streams_on_node[p.cpu_node]
        if m > cores:
            level *= (cores / m) ** OVERSUBSCRIPTION_EXPONENT
        levels.append(level)
    return levels


def _with_buffers(buffers, buffer_bytes):
    """A copy of the reference host whose node ``i`` holds ``buffers[i]``."""
    data = machine_to_dict(_HOST)
    for entry, room in zip(data["nodes"], buffers):
        if room is not None:
            free = min(int(room * buffer_bytes), entry["memory_bytes"])
            entry["os_resident_bytes"] = entry["memory_bytes"] - free
    machine = machine_from_dict(data)
    attach_reference_devices(machine)
    return machine


#: ``cpunodebind`` values: unset, every known node and unknown ones.
_CPU_NODES = st.sampled_from([None, *_NODES, 8, 42])
#: ``membind`` values: mostly unset, every known node and an unknown one.
_MEM_NODES = st.sampled_from([None] * 12 + [*_NODES, 42])


@st.composite
def fio_cases(draw):
    """A host with drawn free memory and one device job against it.

    Half the jobs bind every stream to one node (or to none, or to an
    unknown one); the rest list mixed per-stream nodes, mostly known.
    ``membind`` is unset, a known node or an unknown one.  Half the
    hosts give every node room for 40 buffers, so every group fits; the
    rest draw each node's room from 0 buffers up.
    """
    engine, rw = draw(st.sampled_from(_ENGINE_RW))
    numjobs = draw(st.integers(min_value=1, max_value=40))
    blocksize = draw(st.sampled_from([4 * KiB, 128 * KiB, 1000 * KiB]))
    iodepth = draw(st.sampled_from([1, 4, 16, 33]))
    if draw(st.booleans()):
        cpunodebind = draw(_CPU_NODES)
        stream_nodes = None
    else:
        cpunodebind = None
        pool = draw(st.lists(st.sampled_from(_NODES), min_size=1, max_size=3))
        if draw(st.integers(min_value=0, max_value=5)) == 0:
            pool.append(draw(st.sampled_from([8, 42])))
        stream_nodes = tuple(draw(st.lists(
            st.sampled_from(pool), min_size=numjobs, max_size=numjobs,
        )))
    membind = draw(_MEM_NODES)
    job = FioJob(
        name=f"p-{engine}-{rw}", engine=engine, rw=rw, numjobs=numjobs,
        blocksize=blocksize, iodepth=iodepth, cpunodebind=cpunodebind,
        membind=membind, stream_nodes=stream_nodes,
        size_bytes=draw(st.integers(min_value=1, max_value=40)) * GB,
        runtime_s=draw(st.sampled_from([None, None, None, 30.0])),
    )
    room = draw(st.sampled_from([_ROOMY, _ROOM]))
    buffers = draw(st.lists(st.sampled_from(room), min_size=len(_NODES),
                            max_size=len(_NODES)))
    machine = _with_buffers(buffers, blocksize * iodepth)
    return machine, job, draw(st.integers(min_value=0, max_value=2**32 - 1))


def _hexed(value):
    return value.hex() if isinstance(value, float) else value


def _outcome(engine, job, seed):
    """Every ``JobResult`` field but ``solver_stats``, or the error."""
    try:
        result = engine.run(job, np.random.default_rng(seed))
    except Exception as exc:  # noqa: BLE001 - the error is the outcome
        return "error", type(exc), str(exc)
    return (
        "ok",
        result.job_name,
        result.engine,
        result.streams,
        [(name, rate.hex()) for name, rate in result.per_stream_gbps.items()],
        result.aggregate_gbps.hex(),
        result.duration_s.hex(),
        [(key, _hexed(value)) for key, value in result.tags.items()],
    )


@given(fio_cases())
@settings(max_examples=150, deadline=None)
def test_run_matches_per_stream_reference(case):
    machine, job, seed = case
    expected = _outcome(_FrozenEngine(machine), job, seed)
    assert _outcome(DeviceIOEngine(machine), job, seed) == expected


@st.composite
def level_cases(draw):
    """One device profile and up to 40 drawn placements."""
    engine, rw = draw(st.sampled_from(_ENGINE_RW))
    job = FioJob(name="levels", engine=engine, rw=rw)
    pool = draw(st.lists(
        st.tuples(st.sampled_from(_NODES), st.sampled_from(_NODES)),
        min_size=1, max_size=6,
    ))
    placements = [
        StreamPlacement(cpu_node=cpu, mem_node=mem)
        for cpu, mem in draw(st.lists(st.sampled_from(pool), min_size=1, max_size=40))
    ]
    return job, placements


@given(level_cases())
@settings(max_examples=150, deadline=None)
def test_levels_match_per_stream_body(case):
    job, placements = case
    device = _HOST.devices[job.device]
    profile = device.engine(job.profile_name)
    expected = _frozen_levels(_HOST, device, profile, placements, job.direction)
    levels = device_service_levels(_HOST, device, profile, placements, job.direction)
    assert [v.hex() for v in levels] == [v.hex() for v in expected]
