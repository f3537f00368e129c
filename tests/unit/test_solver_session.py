"""SolverSession: capacity caching, fingerprints, invalidation, cold solves, stats."""

import pytest

from repro.bench.engines import MemcpyEngine
from repro.bench.jobfile import FioJob
from repro.errors import SimulationError
from repro.flows.flow import Flow
from repro.interconnect.planes import PLANE_DMA
from repro.memory.controller import controller_capacities
from repro.rng import RngRegistry
from repro.solver.capacity import build_capacities, link_capacities, machine_fingerprint
from repro.solver.session import SolverSession, get_session, reset_sessions
from repro.topology.builders import reference_host
from repro.topology.modify import with_dram_gbps, with_link_credit, with_link_removed


@pytest.fixture(autouse=True)
def _fresh_registry():
    reset_sessions()
    yield
    reset_sessions()


class TestFingerprint:
    def test_stable_across_calls(self, bare_host):
        assert machine_fingerprint(bare_host) == machine_fingerprint(bare_host)

    def test_structurally_identical_machines_match(self, bare_host):
        # A no-op edit round-trips through the serialisation layer.
        copy = with_dram_gbps(
            bare_host, 0, bare_host.node(0).dram_gbps, rename=False
        )
        assert machine_fingerprint(copy) == machine_fingerprint(bare_host)

    def test_changes_when_controller_changes(self, bare_host):
        modified = with_dram_gbps(bare_host, 0, 99.0)
        assert machine_fingerprint(modified) != machine_fingerprint(bare_host)

    def test_changes_when_link_removed(self, bare_host):
        modified = with_link_removed(bare_host, 3, 4)
        assert machine_fingerprint(modified) != machine_fingerprint(bare_host)


class TestCapacities:
    def test_equals_merged_controller_and_link_maps(self, bare_host):
        session = SolverSession(bare_host)
        expected = {
            **controller_capacities(bare_host),
            **link_capacities(bare_host),
        }
        assert session.capacities() == expected
        assert build_capacities(bare_host) == expected

    def test_returns_a_copy(self, bare_host):
        session = SolverSession(bare_host)
        caps = session.capacities()
        caps["extra"] = 1.0
        assert "extra" not in session.capacities()

    def test_built_once_then_served_from_cache(self, bare_host):
        session = SolverSession(bare_host)
        session.capacities()
        session.capacities()
        session.capacities()
        assert session.stats.capacity_builds == 1
        assert session.stats.capacity_hits == 2

    def test_machineless_session_needs_explicit_capacities(self):
        session = SolverSession()
        with pytest.raises(SimulationError):
            session.capacities()
        rates = session.rates(
            [Flow(name="f", resources=("r",))], {"r": 10.0}
        )
        assert rates["f"] == pytest.approx(10.0)


class TestInvalidation:
    """Editing a machine through topology.modify must never serve stale
    answers: the edited copy has a new fingerprint, hence a new session."""

    def test_dram_edit_refreshes_capacity_map(self, bare_host):
        stale = get_session(bare_host).capacities()
        modified = with_dram_gbps(bare_host, 0, 99.0)
        fresh = get_session(modified).capacities()
        assert fresh != stale
        assert fresh["ctrl-dma:0"] == pytest.approx(99.0)
        # The original machine's session still answers for the original.
        assert get_session(bare_host).capacities() == stale

    def test_link_removal_refreshes_capacities_and_routes(self, bare_host):
        before = get_session(bare_host)
        before.capacities()
        before.dma_path_gbps(2, 7)
        modified = with_link_removed(bare_host, 2, 7)
        after = get_session(modified)
        assert after is not before
        assert len(after.capacities()) == len(before.capacities()) - 2
        # Routing answers re-derive on the modified fabric (2->7 detours).
        assert after.dma_path_gbps(2, 7) != before.dma_path_gbps(2, 7)
        assert after.dma_path_gbps(2, 7) == pytest.approx(
            modified.dma_path_gbps(2, 7)
        )

    def test_link_credit_edit_gets_fresh_session(self, bare_host):
        get_session(bare_host)
        modified = with_link_credit(bare_host, 2, 7, 0.87)
        assert get_session(modified) is not get_session(bare_host)

    def test_same_topology_reuses_session(self, bare_host):
        assert get_session(bare_host) is get_session(bare_host)

    def test_explicit_invalidate_drops_caches(self, bare_host):
        session = SolverSession(bare_host)
        session.capacities()
        session.dma_path_gbps(0, 7)
        session.invalidate()
        session.capacities()
        session.dma_path_gbps(0, 7)
        assert session.stats.capacity_builds == 2
        assert session.stats.path_misses == 2
        assert session.stats.path_hits == 0


class TestLateRoutingOverride:
    """An override installed after a machine's first session reaches
    every answer derived from routing: 0 -> 7 over the DMA plane reads
    44.544 Gbps on the reference route and 25.6 over 0-1-3-4-7."""

    ROUTE = (0, 1, 3, 4, 7)

    @pytest.fixture()
    def machine(self):
        """A reference host of this test's own: the override mutates it."""
        return reference_host(with_devices=False)

    def _override(self, machine):
        machine.routing.set_route(PLANE_DMA, self.ROUTE)

    def test_machine_path_is_built_once_and_rebuilt_by_the_override(self, machine):
        path = machine.path(PLANE_DMA, 0, 7)
        assert machine.path(PLANE_DMA, 0, 7) is path
        assert machine.dma_path_gbps(0, 7) == pytest.approx(44.544)
        self._override(machine)
        rerouted = machine.path(PLANE_DMA, 0, 7)
        assert rerouted.hops == self.ROUTE
        assert machine.path(PLANE_DMA, 0, 7) is rerouted
        assert machine.dma_path_gbps(0, 7) == pytest.approx(25.6)

    def test_get_session_answers_for_the_override(self, machine):
        assert get_session(machine).dma_path_gbps(0, 7) == pytest.approx(44.544)
        self._override(machine)
        assert get_session(machine).dma_path_gbps(0, 7) == pytest.approx(25.6)

    def test_a_session_held_across_the_override_answers_cold(self, machine):
        held = get_session(machine)
        assert held.dma_path_gbps(0, 7) == pytest.approx(44.544)
        self._override(machine)
        assert held.dma_path_gbps(0, 7) == pytest.approx(25.6)
        assert held.stats.path_misses == 2 and held.stats.path_hits == 0

    def test_fingerprint_folds_in_a_late_override(self, machine):
        before = machine_fingerprint(machine)
        self._override(machine)
        built = reference_host(with_devices=False)
        self._override(built)
        assert machine_fingerprint(machine) == machine_fingerprint(built)
        assert machine_fingerprint(machine) != before

    def test_an_untouched_twin_keeps_its_own_routes(self, machine):
        get_session(machine).dma_path_gbps(0, 7)
        self._override(machine)
        twin = reference_host(with_devices=False)
        session = get_session(twin)
        session.invalidate()
        assert session.dma_path_gbps(0, 7) == pytest.approx(44.544)


class TestRegistryDrop:
    """A session dropped from the registry goes cold even while a caller
    still holds it: its capacity map is rebuilt, its memos are empty."""

    @staticmethod
    def _warm(session):
        session.capacities()
        session.dma_path_gbps(0, 7)
        assert session.stats.capacity_builds == 1

    @staticmethod
    def _assert_cold(session):
        session.capacities()
        session.dma_path_gbps(0, 7)
        assert session.stats.capacity_builds == 2
        assert session.stats.path_misses == 2

    def test_reset_sessions(self, bare_host):
        held = get_session(bare_host)
        self._warm(held)
        reset_sessions()
        self._assert_cold(held)
        assert get_session(bare_host) is not held

    def test_lru_eviction(self, bare_host):
        from repro.solver.session import _MAX_SESSIONS

        held = get_session(bare_host)
        self._warm(held)
        for gbps in range(_MAX_SESSIONS):
            get_session(with_dram_gbps(bare_host, 0, 50.0 + gbps))
        self._assert_cold(held)
        assert get_session(bare_host) is not held


class TestColdSolves:
    """Every allocation is solved cold: no memo, one solve per call."""

    def test_repeat_solve_is_solved_again(self, bare_host):
        from repro.obs import MetricsRegistry, TraceRecorder
        from repro.obs import recorder as obs

        session = SolverSession(bare_host)
        flows = [
            Flow(name="a", resources=("ctrl-dma:0",), demand_gbps=5.0),
            Flow(name="b", resources=("ctrl-dma:0",)),
        ]
        recorder = TraceRecorder(MetricsRegistry())
        obs.install(recorder)
        try:
            first = session.rates(flows)
            second = session.rates(flows)
        finally:
            obs.uninstall()
        assert first == second
        assert session.stats.solves == 2
        assert recorder.phase_totals()["solver.allocate"]["count"] == 2

    def test_an_empty_problem_is_no_solve(self, bare_host):
        session = SolverSession(bare_host)
        assert session.rates([]) == {}
        assert session.stats.solves == 0


class TestPathMemoization:
    def test_path_lookups_memoized(self, bare_host):
        session = SolverSession(bare_host)
        for _ in range(3):
            assert session.dma_path_gbps(0, 7) == pytest.approx(
                bare_host.dma_path_gbps(0, 7)
            )
        assert session.stats.path_misses == 1
        assert session.stats.path_hits == 2


class TestStatsOnResults:
    def test_engine_result_carries_solver_stats(self, host):
        engine = MemcpyEngine(host)
        job = FioJob(name="m", engine="memcpy", rw="write", numjobs=4,
                     cpunodebind=0, target_node=7)
        result = engine.run(job, RngRegistry().stream("solver-stats"))
        assert result.solver_stats["solves"] >= 1
        assert result.solver_stats["events"] >= 1
        assert set(result.solver_stats) == {
            "solves", "events", "capacity_builds", "capacity_hits",
            "path_hits", "path_misses", "phase_wall_s",
        }

    def test_snapshot_is_detached(self, bare_host):
        session = SolverSession(bare_host)
        snap = session.stats.snapshot()
        session.rates([Flow(name="f", resources=("ctrl-dma:0",))])
        assert snap["solves"] == 0


class TestStatsCli:
    def test_stats_subcommand_reports_counters(self, capsys):
        from repro.cli.main import main

        assert main(["stats", "--workload", "fio"]) == 0
        out = capsys.readouterr().out
        assert "solver session stats" in out
        assert "max-min solves" in out
        assert "events processed" in out
        assert "cache hits" not in out

    def test_stats_stream_counts_path_lookups(self, capsys):
        from repro.cli.main import main

        assert main(["stats", "--workload", "stream", "--runs", "5"]) == 0
        out = capsys.readouterr().out
        assert "path lookups" in out
        assert "64 computed" in out
