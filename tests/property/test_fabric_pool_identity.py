"""Satellite (d): sharded execution is bit-identical to serial.

Across random topologies and shard counts (including more shards than
items), a :class:`~repro.fabric.FabricPool` sweep must reproduce the
serial sweep exactly: same model values, same render bytes, same RNG
stream names, same draw counts.  A SIGKILLed worker mid-sweep must not
change any of that.

One module-scoped pool serves every example — the pool is
machine-agnostic (tasks carry their machine), and persistent-pool
reuse is exactly the production shape.
"""

from __future__ import annotations

import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.characterize import HostCharacterizer
from repro.core.iomodel import IOModelBuilder
from repro.fabric import FabricPool
from repro.rng import RngRegistry
from repro.topology.builders import scaled_host

pytestmark = pytest.mark.fabric

MAX_JOBS = 4

hosts = st.builds(
    scaled_host,
    n_packages=st.integers(min_value=2, max_value=5),
    seed=st.integers(min_value=0, max_value=20),
    asymmetry_fraction=st.floats(min_value=0.0, max_value=0.4, allow_nan=False),
)


@pytest.fixture(scope="module")
def pool():
    with FabricPool(jobs=MAX_JOBS) as shared:
        yield shared


@given(
    machine=hosts,
    jobs=st.integers(min_value=1, max_value=MAX_JOBS),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    mode=st.sampled_from(["write", "read"]),
)
@settings(max_examples=10, deadline=None)
def test_sharded_build_many_is_bit_identical(pool, machine, jobs, seed, mode):
    targets = list(machine.node_ids)
    serial_registry = RngRegistry(seed)
    serial = IOModelBuilder(machine, registry=serial_registry, runs=5).build_many(
        tuple(targets), mode
    )

    shard_pool = pool if jobs == MAX_JOBS else FabricPool(jobs=jobs)
    try:
        sharded_registry = RngRegistry(seed)
        sharded = shard_pool.build_many(
            machine, targets, mode, registry=sharded_registry, runs=5
        )
    finally:
        if shard_pool is not pool:
            shard_pool.close()

    assert list(sharded) == list(serial)
    for target in targets:
        assert sharded[target].values == serial[target].values
        assert sharded[target].render() == serial[target].render()
    assert sharded_registry.draw_counts == serial_registry.draw_counts
    assert set(sharded_registry.draw_counts) == set(serial_registry.draw_counts)


@given(
    machine=hosts,
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    n_nodes=st.integers(min_value=1, max_value=3),
)
@settings(max_examples=5, deadline=None)
def test_more_shards_than_items_degrades_gracefully(pool, machine, seed, n_nodes):
    """MAX_JOBS workers over fewer targets: plan clamps, results match."""
    targets = list(machine.node_ids)[:n_nodes]
    serial_registry = RngRegistry(seed)
    serial = HostCharacterizer(
        machine, registry=serial_registry, runs=5
    ).characterize_many(tuple(targets))

    sharded_registry = RngRegistry(seed)
    sharded = pool.characterize_many(
        machine, targets, registry=sharded_registry, runs=5
    )
    assert list(sharded) == list(serial)
    for target in targets:
        assert sharded[target].render() == serial[target].render()
    assert sharded_registry.draw_counts == serial_registry.draw_counts


def test_sigkilled_worker_recovers_bit_identical(tmp_path, monkeypatch):
    """A worker killed mid-sweep is retried; results stay identical."""
    machine = scaled_host(3, seed=7)
    targets = list(machine.node_ids)
    serial_registry = RngRegistry(123)
    serial = IOModelBuilder(machine, registry=serial_registry, runs=5).build_many(
        tuple(targets), "write"
    )

    marker = tmp_path / "kill-once"
    monkeypatch.setenv("REPRO_FABRIC_KILL_ONCE", str(marker))
    with FabricPool(jobs=2) as crash_pool:
        sharded_registry = RngRegistry(123)
        sharded = crash_pool.build_many(
            machine, targets, "write", registry=sharded_registry, runs=5
        )
        assert crash_pool.stats()["retried"] >= 1
    assert marker.exists(), "the kill-once hook never fired"
    assert list(sharded) == list(serial)
    for target in targets:
        assert sharded[target].render() == serial[target].render()
    assert sharded_registry.draw_counts == serial_registry.draw_counts


def test_pool_gives_up_after_retries(tmp_path, monkeypatch):
    """With retries exhausted the pool raises instead of looping."""
    from repro.errors import FabricError

    machine = scaled_host(2, seed=1)
    # Kill every incarnation: point the marker at an uncreatable path so
    # os.open never succeeds in marking "already died".
    monkeypatch.setenv(
        "REPRO_FABRIC_KILL_ONCE", str(tmp_path / "missing-dir" / "marker")
    )
    with FabricPool(jobs=1, retries=1) as crash_pool:
        with pytest.raises(FabricError, match="broke"):
            crash_pool.build_many(
                machine, list(machine.node_ids), "write",
                registry=RngRegistry(1), runs=3,
            )


def test_pool_rejects_routing_overrides():
    """Workers rebuild machines from their serialized form, which cannot
    carry explicit routing overrides: such a machine never reaches one."""
    from repro.errors import FabricError

    machine = scaled_host(3, seed=11)
    nodes = machine.node_ids
    hops = machine.routing.route("dma", nodes[0], nodes[1])
    machine.routing.set_route("dma", hops)
    with FabricPool(jobs=1) as override_pool:
        with pytest.raises(FabricError, match="overrides"):
            override_pool.build_many(
                machine, nodes, "write", registry=RngRegistry(1), runs=3,
            )
        assert override_pool.stats()["dispatched"] == 0
