"""Deterministic RNG registry."""

import numpy as np
import pytest

from repro.errors import ReproError
from repro.rng import DEFAULT_SEED, RngRegistry


class TestDeterminism:
    def test_same_seed_same_stream(self):
        a = RngRegistry(42).stream("x").standard_normal(8)
        b = RngRegistry(42).stream("x").standard_normal(8)
        assert (a == b).all()

    def test_different_names_differ(self):
        r = RngRegistry(42)
        a = r.stream("x").standard_normal(8)
        b = r.stream("y").standard_normal(8)
        assert not (a == b).all()

    def test_different_seeds_differ(self):
        a = RngRegistry(1).stream("x").standard_normal(8)
        b = RngRegistry(2).stream("x").standard_normal(8)
        assert not (a == b).all()

    def test_request_order_irrelevant(self):
        r1 = RngRegistry(7)
        first_then_second = (r1.stream("a").random(), r1.stream("b").random())
        r2 = RngRegistry(7)
        second_then_first = (r2.stream("b").random(), r2.stream("a").random())
        assert first_then_second[0] == second_then_first[1]
        assert first_then_second[1] == second_then_first[0]

    def test_stream_restarts_at_origin(self):
        r = RngRegistry(3)
        assert r.stream("s").random() == r.stream("s").random()


class TestChildren:
    def test_child_independent_of_parent(self):
        r = RngRegistry(42)
        child = r.child("sub")
        a = r.stream("x").standard_normal(4)
        b = child.stream("x").standard_normal(4)
        assert not (a == b).all()

    def test_child_deterministic(self):
        a = RngRegistry(42).child("sub").stream("x").random()
        b = RngRegistry(42).child("sub").stream("x").random()
        assert a == b

    def test_seed_property(self):
        assert RngRegistry(99).seed == 99

    @pytest.mark.parametrize("seed", [-1, -(2**40)])
    def test_negative_seed_is_a_typed_error(self, seed):
        with pytest.raises(ReproError, match="non-negative"):
            RngRegistry(seed)

    @pytest.mark.parametrize("seed", [1.5, 1.0, float("nan"), float("inf"), "7", None])
    def test_non_integer_seed_is_a_typed_error(self, seed):
        with pytest.raises(ReproError, match="non-negative integer, got " + repr(seed)):
            RngRegistry(seed)

    @pytest.mark.parametrize("seed", [np.int64(7), np.uint64(7), np.int8(7)])
    def test_numpy_integer_seeds_act_as_ints(self, seed):
        registry = RngRegistry(seed)
        assert registry.seed == 7 and type(registry.seed) is int
        assert registry.stream("x").random() == RngRegistry(7).stream("x").random()

    def test_default_seed_is_stable(self):
        # Recorded in EXPERIMENTS.md; a change invalidates recorded numbers.
        assert DEFAULT_SEED == 20130701


class TestStatistics:
    def test_streams_are_usable_generators(self):
        gen = RngRegistry().stream("stat")
        draws = gen.random(10000)
        assert 0.45 < float(np.mean(draws)) < 0.55
