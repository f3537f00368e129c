"""Named streams and batch noise rows equal numpy's SeedSequence streams.

:meth:`RngRegistry.stream` and :meth:`RngRegistry.normal_rows` re-implement
``SeedSequence(entropy=seed, spawn_key=(key,)).generate_state(4, uint64)``,
one key in Python ints and vectorized over keys, and draw from a
generator on that state.  These properties pin both derivations to numpy
itself — so they are also the alarm if a numpy release ever changes the
SeedSequence hash — and pin the rows, the draw ledger and the
``rng.draws/*`` counters to :meth:`RngRegistry.stream`'s.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.obs import recorder as _obs
from repro.obs.metrics import MetricsRegistry
from repro.rng import (
    DEFAULT_SEED,
    RngRegistry,
    _derived_state_type,
    _name_key,
    _pcg64_states,
    _seed_pool,
)

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


def _seed_sequence_generator(seed: int, name: str) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(
        np.random.SeedSequence(entropy=seed, spawn_key=(_name_key(name),))
    ))


def _assert_stream_matches(seed: int, name: str) -> None:
    stream = RngRegistry(seed).stream(name)
    reference = _seed_sequence_generator(seed, name)
    assert stream.bit_generator.state == reference.bit_generator.state
    assert not isinstance(stream.bit_generator.seed_seq, np.random.SeedSequence)
    assert [v.hex() for v in stream.random(5).tolist()] == [
        v.hex() for v in reference.random(5).tolist()
    ]


EDGE_NAMES = ["", "ñødé/κ/🙂", "x" * 300, "fio/tcp/fig5-send@n7x16/run0"]


@pytest.mark.parametrize("seed", FIXED_SEEDS + [2**100])
@pytest.mark.parametrize("name", EDGE_NAMES, ids=["empty", "unicode", "300", "fio"])
def test_fixed_seed_stream_matches_seed_sequence(seed, name):
    _assert_stream_matches(seed, name)


@given(seed=seeds, name=st.one_of(st.text(max_size=12), st.text(min_size=300, max_size=400)))
@settings(max_examples=60, deadline=None)
def test_stream_matches_seed_sequence(seed, name):
    _assert_stream_matches(seed, name)


def _recorded(draw):
    """``draw()``'s result and the ``rng.draws/*`` counters it recorded."""
    registry = MetricsRegistry()
    _obs.install(_obs.TraceRecorder(registry))
    try:
        out = draw()
    finally:
        _obs.uninstall()
    return out, registry.counters("rng.draws/")


def _assert_same_streams(seed: int, name_list, loc=0.5, scale=2.0, size=7) -> None:
    batch_registry, single_registry = RngRegistry(seed), RngRegistry(seed)
    rows, batch_counts = _recorded(
        lambda: batch_registry.normal_rows(iter(name_list), loc, scale, size)
    )
    single, single_counts = _recorded(lambda: [
        single_registry.stream(name).normal(loc, scale, size) for name in name_list
    ])
    assert rows.shape == (len(name_list), size)
    assert [[v.hex() for v in row.tolist()] for row in rows] == [
        [v.hex() for v in row.tolist()] for row in single
    ]
    assert batch_registry.draw_counts == single_registry.draw_counts
    assert batch_counts == single_counts


@pytest.mark.parametrize("seed", FIXED_SEEDS)
def test_fixed_seed_streams_draw_like_stream(seed):
    _assert_same_streams(
        seed, ["", "ñødé/κ/🙂", "iomodel/write/k7-i0-m4", "iomodel/write/k7-i0-m4"]
    )


@given(
    seed=seeds,
    name_list=names,
    loc=st.floats(min_value=-1e3, max_value=1e3),
    scale=st.floats(min_value=0.0, max_value=1e3),
    size=st.integers(min_value=0, max_value=12),
)
@example(seed=0, name_list=["", "é", ""], loc=-7.2e-05, scale=0.012, size=100)
@settings(max_examples=40, deadline=None)
def test_streams_draw_like_stream(seed, name_list, loc, scale, size):
    _assert_same_streams(seed, name_list, loc, scale, size)


def test_no_names_no_streams():
    registry = RngRegistry(5)
    rows, counts = _recorded(lambda: registry.normal_rows([], 0.0, 1.0, 3))
    assert rows.shape == (0, 3)
    assert registry.draw_counts == {} and counts == {}


def test_derived_state_serves_pcg64_only():
    seed_seq = _derived_state_type()(_rows(5, [_name_key("x")])[0])
    assert seed_seq.generate_state(4, np.uint64).shape == (4,)
    generator = np.random.Generator(np.random.PCG64(seed_seq))
    assert generator.random() == RngRegistry(5).stream("x").random()
    with pytest.raises(ValueError):
        seed_seq.generate_state(8)
