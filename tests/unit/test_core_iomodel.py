"""Algorithm 1 implementation."""

import math

import pytest

from repro.core.characterize import HostCharacterizer
from repro.core.iomodel import IOModelBuilder
from repro.errors import AllocationError, ModelError
from repro.fabric import FabricPool
from repro.osmodel import libnuma
from repro.rng import RngRegistry
from repro.topology.builders import reference_host, scaled_host
from repro.topology.serialize import machine_from_dict, machine_to_dict


class TestBuilder:
    def test_threads_per_node(self, host):
        assert IOModelBuilder(host).threads_per_node() == 4

    def test_buffer_must_defeat_cache(self, host):
        with pytest.raises(ModelError):
            IOModelBuilder(host, buffer_bytes=host.params.llc_bytes)

    def test_runs_validated(self, host):
        with pytest.raises(ModelError):
            IOModelBuilder(host, runs=0)

    def test_measure_pair_protocol(self, host):
        builder = IOModelBuilder(host, runs=25)
        m = builder.measure_pair(0, 7, "write")
        assert m.protocol == "mean"
        assert m.runs == 25
        assert m.gbps == pytest.approx(44.5, rel=0.05)

    def test_measure_pair_mode_validated(self, host):
        with pytest.raises(ModelError):
            IOModelBuilder(host).measure_pair(0, 7, "sideways")

    def test_unknown_target_rejected(self, host):
        with pytest.raises(ModelError):
            IOModelBuilder(host).build(42, "write")

    def test_build_mode_validated(self, host):
        with pytest.raises(ModelError):
            IOModelBuilder(host).build(7, "sideways")

    def test_negative_sigma_rejected(self, host):
        with pytest.raises(ModelError):
            IOModelBuilder(host, sigma=-0.1)

    @pytest.mark.parametrize("sigma", [math.nan, math.inf])
    def test_non_finite_sigma_rejected(self, host, sigma):
        with pytest.raises(ModelError, match="noise sigma must be finite"):
            IOModelBuilder(host, sigma=sigma)

    @pytest.mark.parametrize("size", [math.nan, math.inf])
    def test_non_finite_buffer_rejected(self, host, size):
        with pytest.raises(ModelError, match="copy buffers must be finite"):
            IOModelBuilder(host, buffer_bytes=size)

    @pytest.mark.parametrize("runs", [2.5, 2.0, "10"])
    def test_non_integer_runs_rejected(self, host, runs):
        with pytest.raises(ModelError, match="runs must be an integer"):
            IOModelBuilder(host, runs=runs)

    def test_vectorized_build_matches_measure_pair_loop(self, host, registry):
        builder = IOModelBuilder(host, registry=registry, runs=10)
        for mode in ("write", "read"):
            model = builder.build(7, mode)
            assert model.values == {
                i: builder.measure_pair(i, 7, mode).gbps for i in host.node_ids
            }

    def test_build_many_matches_single_builds(self, host, registry):
        builder = IOModelBuilder(host, registry=registry, runs=10)
        swept = builder.build_many((0, 7), "write")
        assert sorted(swept) == [0, 7]
        for target in (0, 7):
            assert swept[target].values == builder.build(target, "write").values

    def test_build_many_unknown_target_rejected(self, host):
        with pytest.raises(ModelError):
            IOModelBuilder(host).build_many((7, 42), "write")

    def test_sweep_with_room_allocates_nothing(self, host, monkeypatch):
        # Every node of the reference host holds a local probe's two
        # buffers, so the feasibility check decides every probe.
        calls = []
        alloc = libnuma.numa_alloc_onnode

        def logged(allocator, size_bytes, node):
            calls.append((size_bytes, node))
            return alloc(allocator, size_bytes, node)

        monkeypatch.setattr(libnuma, "numa_alloc_onnode", logged)
        builder = IOModelBuilder(host, runs=2)
        for mode in ("write", "read"):
            assert len(builder.build_many(host.node_ids, mode)) == host.n_nodes
        assert calls == []


class TestSweepTargets:
    """Every sweep entry point checks its target list the same way."""

    def test_builder_takes_any_iterable(self, host):
        builder = IOModelBuilder(host, runs=3)
        swept = builder.build_many(iter((3, 5)), "write")
        assert list(swept) == [3, 5]
        assert {k: m.values for k, m in swept.items()} == {
            k: m.values for k, m in builder.build_many((3, 5), "write").items()
        }
        with pytest.raises(ModelError, match="unknown target node 42"):
            builder.build_many(iter((3, 42)), "write")

    def test_characterizer_rejects_a_repeat_before_probing(self, host):
        registry = RngRegistry(5)
        characterizer = HostCharacterizer(host, registry=registry, runs=3)
        solves = characterizer.builder.session.stats.solves
        with pytest.raises(ModelError, match="target node 3 is listed twice"):
            characterizer.characterize_many(iter((3, 5, 3)))
        assert registry.draw_counts == {}
        assert characterizer.builder.session.stats.solves == solves
        assert list(characterizer.characterize_many(iter((5, 3)))) == [5, 3]

    @pytest.mark.parametrize("targets, message", [
        ((3, 5, 3), "target node 3 is listed twice"),
        ((3, 42), "unknown target node 42"),
    ])
    def test_pool_build_many_checks_before_dispatch(self, host, targets, message):
        with FabricPool(jobs=2) as pool:
            with pytest.raises(ModelError, match=message):
                pool.build_many(host, iter(targets), "write", runs=3)
            assert pool.dispatched == 0 and pool._executor is None

    def test_build_many_rejects_a_repeat_serial_and_pooled(self, host):
        """Serial and sharded sweeps refuse a repeated target alike,
        before any probe is solved, any stream drawn or any task sent."""
        registry = RngRegistry(5)
        builder = IOModelBuilder(host, registry=registry, runs=3)
        solves = builder.session.stats.solves
        with pytest.raises(ModelError, match="^target node 3 is listed twice$"):
            builder.build_many(iter((3, 5, 3)), "write")
        assert registry.draw_counts == {}
        assert builder.session.stats.solves == solves
        with FabricPool(jobs=2) as pool:
            with pytest.raises(ModelError, match="^target node 3 is listed twice$"):
                pool.build_many(host, iter((3, 5, 3)), "write",
                                registry=registry, runs=3)
            assert pool.dispatched == 0
        assert registry.draw_counts == {}

    @pytest.mark.parametrize("targets, message", [
        ((3, 5, 3), "target node 3 is listed twice"),
        ((3, 42), "unknown target node 42"),
    ])
    def test_pool_characterize_many_checks_before_dispatch(
        self, host, targets, message
    ):
        with FabricPool(jobs=2) as pool:
            with pytest.raises(ModelError, match=message):
                pool.characterize_many(host, iter(targets), runs=3)
            assert pool.dispatched == 0 and pool._executor is None


class TestSweepFastPaths:
    """A sweep reads copy shares off route bottlenecks and draws every
    probe's noise from one state derivation per ``build_many`` call."""

    @pytest.mark.parametrize("build", [
        reference_host, lambda: scaled_host(32, seed=3),
    ], ids=["reference", "scaled32"])
    def test_sweep_skips_the_references(self, build, monkeypatch):
        from repro import rng
        from repro.bench import engines
        from repro.solver.session import SolverSession

        calls = {"resources": 0, "rates": 0, "derivations": 0, "streams": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(engines, "_copy_resources",
                            counted("resources", engines._copy_resources))
        monkeypatch.setattr(SolverSession, "rates",
                            counted("rates", SolverSession.rates))
        monkeypatch.setattr(rng, "_pcg64_states",
                            counted("derivations", rng._pcg64_states))

        class Spied(rng.CountingGenerator):
            __slots__ = ()

            def __init__(self, *args):
                calls["streams"] += 1
                super().__init__(*args)

        monkeypatch.setattr(rng, "CountingGenerator", Spied)
        machine = build()
        registry = RngRegistry(5)
        builder = IOModelBuilder(machine, registry=registry, runs=4)
        for n_calls, mode in enumerate(("write", "read"), start=1):
            models = builder.build_many(machine.node_ids, mode)
            assert len(models) == machine.n_nodes
            assert calls["derivations"] == n_calls
        assert calls == {"resources": 0, "rates": 0, "derivations": 2,
                         "streams": 0}
        assert len(registry.draw_counts) == 2 * machine.n_nodes ** 2
        # The spies are live: the per-probe and flow-list references hit them.
        builder.measure_pair(0, 1, "write")
        engines._bulk_copy_flows(machine, 0, 1, 2)
        builder.session.rates([])
        assert calls == {"resources": 1, "rates": 1, "derivations": 2,
                         "streams": 1}


    @pytest.mark.parametrize("mode", ["write", "read"])
    @pytest.mark.parametrize("build", [
        reference_host, lambda: scaled_host(8, seed=3),
    ], ids=["reference", "scaled8"])
    def test_sweep_builds_no_route_table(self, build, mode, monkeypatch):
        """Copy bottlenecks are read route-free: a fresh machine's sweep
        leaves its routing table unpopulated and asks ``route()`` for
        nothing, with one solve per distinct pair and one capacity map
        read per ``bulk_copy_gbps_many`` call."""
        from repro.routing.table import RoutingTable

        def refuse(*args, **kwargs):
            raise AssertionError("the sweep routed a pair")

        monkeypatch.setattr(RoutingTable, "route", refuse)
        monkeypatch.setattr(RoutingTable, "populate", refuse)
        machine = build()
        builder = IOModelBuilder(machine, registry=RngRegistry(5), runs=4)
        stats = builder.session.stats
        before = (stats.solves, stats.capacity_builds + stats.capacity_hits)
        models = builder.build_many(machine.node_ids, mode)
        assert len(models) == machine.n_nodes
        assert machine.routing.populated_planes == ()
        assert (stats.solves - before[0],
                stats.capacity_builds + stats.capacity_hits - before[1]) == (
            machine.n_nodes ** 2, 1)


class TestAllocationFailure:
    @staticmethod
    def _with_free_bytes(machine, node, free_bytes):
        data = machine_to_dict(machine)
        for entry in data["nodes"]:
            if entry["node_id"] == node:
                entry["os_resident_bytes"] = entry["memory_bytes"] - free_bytes
        return machine_from_dict(data)

    @pytest.mark.parametrize("mode", ["write", "read"])
    @pytest.mark.parametrize("free_probes", [0.75, 1.5])
    def test_build_many_fails_like_measure_pair(
        self, bare_host, monkeypatch, mode, free_probes
    ):
        # Node 3 lacks one probe's buffers (0.75) or holds one but not a
        # local probe's two (1.5); a probe that kept what it took would
        # make a later one fail early.
        probe = IOModelBuilder(bare_host)
        need = probe.threads_per_node() * probe.buffer_bytes
        machine = self._with_free_bytes(bare_host, 3, int(free_probes * need))
        targets = (0, 3, 7)
        calls = []
        alloc = libnuma.numa_alloc_onnode

        def logged(allocator, size_bytes, node):
            calls.append((size_bytes, node))
            return alloc(allocator, size_bytes, node)

        monkeypatch.setattr(libnuma, "numa_alloc_onnode", logged)

        def sweep():
            IOModelBuilder(machine, runs=2).build_many(targets, mode)

        def loop():
            builder = IOModelBuilder(machine, runs=2)
            for target in targets:
                for i in machine.node_ids:
                    builder.measure_pair(i, target, mode)

        failures = []
        for run in (sweep, loop):
            calls.clear()
            with pytest.raises(AllocationError) as info:
                run()
            failures.append((str(info.value), list(calls)))
        assert failures[0] == failures[1]
        assert calls[-1] == (need, 3)


class TestModels:
    def test_write_model_matches_paper(self, host, registry):
        model = IOModelBuilder(host, registry=registry, runs=20).build(7, "write")
        assert [sorted(c.node_ids) for c in model.classes] == [
            [6, 7], [0, 1, 4, 5], [2, 3]
        ]
        assert model.mode == "write"
        assert model.threads == 4

    def test_read_model_matches_paper(self, host, registry):
        model = IOModelBuilder(host, registry=registry, runs=20).build(7, "read")
        assert [sorted(c.node_ids) for c in model.classes] == [
            [6, 7], [2, 3], [0, 1, 5], [4]
        ]

    def test_build_both(self, host, registry):
        write, read = IOModelBuilder(host, registry=registry, runs=5).build_both(7)
        assert write.mode == "write"
        assert read.mode == "read"

    def test_deterministic(self, host):
        a = IOModelBuilder(host, runs=10).build(7, "write").values
        b = IOModelBuilder(host, runs=10).build(7, "write").values
        assert a == b

    def test_generalises_to_other_targets(self, host, registry):
        # §V-B: "The methodology ... can also be generalized to other
        # nodes in the host."
        model = IOModelBuilder(host, registry=registry, runs=5).build(0, "write")
        assert 0 in model.class_by_rank(1).node_ids
        assert 1 in model.class_by_rank(1).node_ids

    def test_no_device_consulted(self, registry):
        # The methodology must work on a device-free machine.
        from repro.topology.builders import reference_host

        bare = reference_host(with_devices=False)
        model = IOModelBuilder(bare, registry=registry, runs=5).build(7, "read")
        assert [sorted(c.node_ids) for c in model.classes] == [
            [6, 7], [2, 3], [0, 1, 5], [4]
        ]
