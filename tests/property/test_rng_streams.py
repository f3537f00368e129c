"""Batch stream derivation equals numpy's SeedSequence, state for state.

:meth:`RngRegistry.streams` re-implements ``SeedSequence(entropy=seed,
spawn_key=(key,)).generate_state(4, uint64)`` vectorized over keys.
These properties pin it to numpy itself — so they are also the alarm
if a numpy release ever changes the SeedSequence hash — and pin its
generators and draw ledger to :meth:`RngRegistry.stream`'s.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.rng import DEFAULT_SEED, RngRegistry, _pcg64_states, _seed_pool

FIXED_SEEDS = [0, 2**32 - 1, 2**32, 2**64, DEFAULT_SEED]
EDGE_KEYS = [0, 2**32 - 1]

seeds = st.integers(min_value=0, max_value=2**100)
keys = st.lists(st.integers(min_value=0, max_value=2**32 - 1), max_size=8)
names = st.lists(st.text(max_size=12), max_size=6)


def _reference_rows(seed: int, key_list) -> np.ndarray:
    return np.array([
        np.random.SeedSequence(entropy=seed, spawn_key=(k,)).generate_state(4, np.uint64)
        for k in key_list
    ])


def _rows(seed: int, key_list) -> np.ndarray:
    return _pcg64_states(*_seed_pool(seed), np.array(key_list, dtype=np.uint32))


@pytest.mark.parametrize("seed", FIXED_SEEDS)
def test_fixed_seeds_match_seed_sequence(seed):
    key_list = EDGE_KEYS + [1, 0x9E3779B9, 12345]
    assert (_rows(seed, key_list) == _reference_rows(seed, key_list)).all()


@given(seed=seeds, extra=keys)
@settings(max_examples=60, deadline=None)
def test_rows_match_seed_sequence(seed, extra):
    key_list = EDGE_KEYS + extra
    rows = _rows(seed, key_list)
    assert rows.dtype == np.uint64 and rows.shape == (len(key_list), 4)
    assert (rows == _reference_rows(seed, key_list)).all()


def _assert_same_streams(seed: int, name_list) -> None:
    batch_registry, single_registry = RngRegistry(seed), RngRegistry(seed)
    batch = batch_registry.streams(iter(name_list))
    single = [single_registry.stream(name) for name in name_list]
    assert [g.stream_name for g in batch] == list(name_list)
    for derived, reference in zip(batch, single):
        assert derived.bit_generator.state == reference.bit_generator.state
        assert (derived.normal(0.5, 2.0, size=7) == reference.normal(0.5, 2.0, size=7)).all()
        assert derived.integers(0, 2**62) == reference.integers(0, 2**62)
        assert derived.random() == reference.random()
    assert batch_registry.draw_counts == single_registry.draw_counts


@pytest.mark.parametrize("seed", FIXED_SEEDS)
def test_fixed_seed_streams_draw_like_stream(seed):
    _assert_same_streams(
        seed, ["", "ñødé/κ/🙂", "iomodel/write/k7-i0-m4", "iomodel/write/k7-i0-m4"]
    )


@given(seed=seeds, name_list=names)
@example(seed=0, name_list=["", "é"])
@settings(max_examples=40, deadline=None)
def test_streams_draw_like_stream(seed, name_list):
    _assert_same_streams(seed, name_list)


def test_no_names_no_streams():
    registry = RngRegistry(5)
    assert registry.streams([]) == []
    assert registry.draw_counts == {}


def test_derived_state_serves_pcg64_only():
    seed_seq = RngRegistry(5).streams(["x"])[0].bit_generator.seed_seq
    assert seed_seq.generate_state(4, np.uint64).shape == (4,)
    with pytest.raises(ValueError):
        seed_seq.generate_state(8)
