"""SolverSession: capacity caching, fingerprints, invalidation, stats."""

import pytest

from repro.bench.engines import MemcpyEngine
from repro.bench.jobfile import FioJob
from repro.errors import SimulationError
from repro.flows.flow import Flow
from repro.memory.controller import controller_capacities
from repro.rng import RngRegistry
from repro.solver.capacity import build_capacities, link_capacities, machine_fingerprint
from repro.solver.session import SolverSession, get_session, reset_sessions
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
        session.rates([Flow(name="f", resources=("ctrl-dma:0",))])
        session.dma_path_gbps(0, 7)
        session.invalidate()
        session.capacities()
        session.rates([Flow(name="f", resources=("ctrl-dma:0",))])
        assert session.stats.capacity_builds == 2
        assert session.stats.cache_misses == 2
        assert session.stats.cache_hits == 0


class TestRegistryDrop:
    """A session dropped from the registry goes cold even while a caller
    still holds it: its capacity map is rebuilt, its memos are empty."""

    @staticmethod
    def _warm(session):
        session.capacities()
        session.rates([Flow(name="f", resources=("ctrl-dma:0",))])
        session.dma_path_gbps(0, 7)
        assert session.stats.capacity_builds == 1 and len(session._alloc) == 1

    @staticmethod
    def _assert_cold(session):
        assert len(session._alloc) == 0
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


class TestAllocationMemoization:
    def test_repeat_solve_hits_cache(self, bare_host):
        session = SolverSession(bare_host)
        flows = [
            Flow(name="a", resources=("ctrl-dma:0",), demand_gbps=5.0),
            Flow(name="b", resources=("ctrl-dma:0",)),
        ]
        first = session.rates(flows)
        second = session.rates(flows)
        assert first == second
        assert session.stats.solves == 1
        assert session.stats.cache_hits == 1
        assert session.stats.hit_rate == pytest.approx(0.5)

    def test_flow_names_do_not_defeat_the_cache(self, bare_host):
        session = SolverSession(bare_host)
        session.rates([Flow(name="x", resources=("ctrl-dma:0",))])
        session.rates([Flow(name="y", resources=("ctrl-dma:0",))])
        assert session.stats.solves == 1
        assert session.stats.cache_hits == 1

    def test_path_lookups_memoized(self, bare_host):
        session = SolverSession(bare_host)
        for _ in range(3):
            assert session.dma_path_gbps(0, 7) == pytest.approx(
                bare_host.dma_path_gbps(0, 7)
            )
        assert session.stats.path_misses == 1
        assert session.stats.path_hits == 2


class TestEqualShares:
    """The closed-form single-signature entry point against ``rates``."""

    PROBLEMS = [
        (("ctrl-dma:0",), 5.0, 1),
        (("ctrl-dma:0",), 5.0, 16),
        (("ctrl-dma:0", "ctrl-dma:4", "link-dma:0>1", "link-dma:1>4"), 11.5, 4),
        (("ctrl-dma:7", "ctrl-dma:2", "link-dma:7>2"), 2.3, 3),
        (("ctrl-dma:1", "ctrl-dma:5"), float("inf"), 7),
        (("link-dma:2>7",), 0.1, 9),
    ]

    @staticmethod
    def _flows(resources, demand, count):
        return [
            Flow(name=f"t{i}", resources=resources, demand_gbps=demand)
            for i in range(count)
        ]

    def test_each_share_equals_rates_on_the_same_flow_list(self, bare_host):
        shares = SolverSession(bare_host).equal_shares(self.PROBLEMS)
        for share, problem in zip(shares, self.PROBLEMS):
            rates = SolverSession(bare_host).rates(self._flows(*problem))
            assert {r.hex() for r in rates.values()} == {share.hex()}, problem

    def test_each_problem_is_one_solve_outside_the_cache(self, bare_host):
        session = SolverSession(bare_host)
        problem = self.PROBLEMS[2]
        session.equal_shares([problem, problem, problem])
        assert session.stats.solves == 3
        assert session.stats.cache_hits == 0
        assert session.stats.cache_misses == 0

    def test_a_batch_is_one_allocate_phase(self, bare_host):
        from repro.obs import MetricsRegistry, TraceRecorder
        from repro.obs import recorder as obs

        session = SolverSession(bare_host)
        recorder = TraceRecorder(MetricsRegistry())
        obs.install(recorder)
        try:
            session.equal_shares(self.PROBLEMS)
        finally:
            obs.uninstall()
        assert recorder.phase_totals()["solver.allocate"]["count"] == 1
        assert list(session.stats.phase_wall_s) == ["capacity", "allocate"]

    @pytest.mark.parametrize(
        "problem, message",
        [
            ((("ctrl-dma:0", "nowhere"), 5.0, 2), "unknown resource 'nowhere'"),
            ((("ctrl-dma:0",), 0.0, 2), "demand must be positive"),
            ((("ctrl-dma:0",), -1.0, 2), "demand must be positive"),
            ((("ctrl-dma:0",), 5.0, 0), "need >= 1 flow"),
            ((("ctrl-dma:0", "ctrl-dma:0"), 5.0, 2), "twice"),
            (((), float("inf"), 2), "unbounded allocation"),
        ],
    )
    def test_bad_problems_raise_typed_errors(self, bare_host, problem, message):
        session = SolverSession(bare_host)
        with pytest.raises(SimulationError, match=message):
            session.equal_shares([self.PROBLEMS[0], problem])

    def test_non_positive_capacity_raises_like_rates(self, bare_host):
        caps = {"a": 4.0, "b": 0.0, "c": -1.0}
        flows = self._flows(("c", "a", "b"), 5.0, 2)
        with pytest.raises(SimulationError) as expected:
            SolverSession().rates(flows, caps)
        with pytest.raises(SimulationError) as got:
            SolverSession().equal_shares([(("c", "a", "b"), 5.0, 2)], caps)
        assert str(got.value) == str(expected.value)


class TestStatsOnResults:
    def test_engine_result_carries_solver_stats(self, host):
        engine = MemcpyEngine(host)
        job = FioJob(name="m", engine="memcpy", rw="write", numjobs=4,
                     cpunodebind=0, target_node=7)
        result = engine.run(job, RngRegistry().stream("solver-stats"))
        assert result.solver_stats["solves"] >= 1
        assert result.solver_stats["events"] >= 1
        assert set(result.solver_stats) >= {
            "solves", "cache_hits", "cache_misses", "hit_rate",
            "events", "phase_wall_s",
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
        assert "cache hits/misses" in out

    def test_stats_stream_counts_path_lookups(self, capsys):
        from repro.cli.main import main

        assert main(["stats", "--workload", "stream", "--runs", "5"]) == 0
        out = capsys.readouterr().out
        assert "path lookups" in out
        assert "64 computed" in out
