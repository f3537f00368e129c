"""Advisory backend: warm sessions, models, last-good degraded answers."""

import pytest

from repro.errors import ReproError, ServiceError
from repro.rng import RngRegistry
from repro.service.backend import SOLVER_FAILURES, AdvisoryBackend, SessionPool
from repro.service.soak import build_soak_plan


@pytest.fixture()
def backend(host):
    return AdvisoryBackend(host, registry=RngRegistry(), runs=3)


class TestSessionPool:
    def test_hit_miss_accounting(self, host):
        from repro.topology.builders import intel_4s4n

        pool = SessionPool(maxsize=2)
        s1 = pool.acquire(host)
        assert pool.acquire(host) is s1
        pool.acquire(intel_4s4n())  # different fabric, different session
        assert pool.stats() == {"size": 2, "hits": 1, "misses": 2}

    def test_lru_bound(self, host):
        from repro.topology.builders import intel_4s4n

        pool = SessionPool(maxsize=1)
        pool.acquire(host)
        pool.acquire(intel_4s4n())
        assert len(pool) == 1

    def test_rejects_silly_sizes(self):
        with pytest.raises(ValueError):
            SessionPool(maxsize=0)


class TestLiveAnswers:
    def test_advise_is_not_degraded(self, backend):
        out = backend.advise(target=7, mode="write", tasks=4)
        assert out["degraded"] is False
        assert sum(out["tasks_per_node"].values()) == 4

    def test_model_cache_hits(self, backend):
        m1 = backend.model(7, "write")
        assert backend.model(7, "write") is m1

    def test_model_cache_hit_draws_nothing(self, host):
        registry = RngRegistry(3)
        backend = AdvisoryBackend(host, registry=registry, runs=3)
        backend.model(7, "write")
        first = dict(registry.draw_counts)
        assert first, "a cold build must draw"
        backend.model(7, "write")
        assert registry.draw_counts == first
        assert backend.solves == 1

    def test_unknown_target_is_invalid_params(self, backend):
        with pytest.raises(ServiceError) as exc:
            backend.classify(target=99, mode="write")
        assert exc.value.kind == "invalid_params"
        assert "99" in str(exc.value)

    def test_unknown_stream_node_is_invalid_params(self, backend):
        with pytest.raises(ServiceError) as exc:
            backend.predict_eq1(target=7, mode="read", streams=[0, 42])
        assert exc.value.kind == "invalid_params"

    def test_cold_predict_is_exact_class_mixture(self, backend):
        # A cold request solves (tier 3) and answers with the exact
        # Eq. 1 mixture over the freshly built class model.
        out = backend.predict_eq1(target=7, mode="read", streams=[0, 1])
        model = backend.model(7, "read")
        avg = {c.rank: c.avg for c in model.classes}
        ranks = [model.class_of(n).rank for n in (0, 1)]
        expected = sum(avg[r] for r in ranks) / 2
        assert out["tier"] == 3
        assert out["predicted_gbps"] == pytest.approx(expected)

    def test_warm_predict_matches_mixture_within_fit_bound(self, backend):
        model = backend.model(7, "read")
        out = backend.predict_eq1(target=7, mode="read", streams=[0, 1])
        avg = {c.rank: c.avg for c in model.classes}
        ranks = [model.class_of(n).rank for n in (0, 1)]
        expected = sum(avg[r] for r in ranks) / 2
        # Warm entry -> the analytic tier answers, within its own
        # documented error bound of the exact Eq. 1 mixture.
        assert out["tier"] == 1
        assert 0.0 <= out["fit_rel_err_bound"] < 0.05
        assert out["predicted_gbps"] == pytest.approx(
            expected, rel=max(out["fit_rel_err_bound"], 1e-12)
        )


class TestDegradedAnswers:
    def test_no_snapshot_means_none(self, backend):
        assert backend.degraded_answer(
            "classify", {"target": 7, "mode": "write"}
        ) is None

    def test_snapshot_recorded_by_successful_build(self, backend):
        backend.classify(target=7, mode="write")
        snap = backend.snapshot(7, "write")
        assert snap is not None
        assert snap.target_node == 7

    def test_degraded_classify_is_marked(self, backend):
        backend.classify(target=7, mode="write")
        out = backend.degraded_answer("classify", {"target": 7, "mode": "write"})
        assert out["degraded"] is True
        assert out["source"] == "last-good-characterization"

    def test_degraded_advise_places_all_tasks(self, backend):
        backend.classify(target=7, mode="write")
        out = backend.degraded_answer("advise", {
            "target": 7, "mode": "write", "tasks": 5,
            "avoid_irq_node": True, "tolerance": 0.05,
        })
        assert out["degraded"] is True
        assert sum(out["tasks_per_node"].values()) == 5
        assert "7" not in out["tasks_per_node"]  # avoid_irq_node honoured

    def test_degraded_predict_uses_snapshot_classes(self, backend):
        live = backend.predict_eq1(target=7, mode="read", streams=[0, 1, 2])
        degraded = backend.degraded_answer("predict_eq1", {
            "target": 7, "mode": "read", "streams": [0, 1, 2],
        })
        assert degraded["degraded"] is True
        assert degraded["predicted_gbps"] == pytest.approx(live["predicted_gbps"])

    def test_degraded_plan_requires_cached_weight(self, backend):
        assert backend.degraded_answer("plan", {"write_weight": 0.5}) is None
        backend.plan(write_weight=0.5)
        out = backend.degraded_answer("plan", {"write_weight": 0.5})
        assert out["degraded"] is True


class TestFaultSwap:
    def test_partitioned_machine_raises_solver_failure(self, backend, host):
        backend.classify(target=7, mode="write")  # snapshot first
        plan = build_soak_plan(host, 7, 0.0, 10.0)
        backend.set_machine(plan.apply(host, at_s=1.0))
        with pytest.raises(SOLVER_FAILURES):
            backend.classify(target=7, mode="write")
        # the last-good snapshot survives the fault
        assert backend.snapshot(7, "write") is not None
        backend.restore_machine()
        out = backend.classify(target=7, mode="write")
        assert out["degraded"] is False

    def test_solver_failures_are_repro_errors(self):
        assert all(issubclass(t, ReproError) for t in SOLVER_FAILURES)
