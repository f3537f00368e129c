"""Deterministic, named random-number streams.

The simulator is stochastic (run-to-run measurement jitter, OS noise,
multi-stream contention variability) but every experiment must be exactly
reproducible.  :class:`RngRegistry` derives one independent
:class:`numpy.random.Generator` per *named* purpose from a single root seed,
as ``numpy``'s :class:`~numpy.random.SeedSequence` spawning would, so

* adding a new consumer never perturbs existing streams, and
* the same (seed, name) pair always yields the same sequence.

Names are free-form strings, conventionally ``"<subsystem>/<detail>"``,
e.g. ``"bench/stream/cpu7-mem4/run13"``.

A stream's generator is ``PCG64`` seeded by ``SeedSequence(entropy=seed,
spawn_key=(crc32(name),))``; the seed must be a non-negative integer.
No ``SeedSequence`` is built: the name is the sequence's last entropy
word, so the seed's part of numpy's fixed hash runs once per seed, in
Python ints (:func:`_seed_pool`, cached), and one hash body
(:func:`_state_words`) mixes the name's key in and hashes out the
``PCG64`` state.  :meth:`RngRegistry.stream` runs it on one key in
Python ints; :meth:`RngRegistry.normal_rows` runs it once over a uint32
array of keys and draws one ``normal`` row from each of many streams,
bit for bit what their :meth:`~RngRegistry.stream` generators draw.
Algorithm 1's sweep draws its per-probe noise (8,192 rows per 64-node
host) this way; ``tests/property/test_rng_streams.py`` holds both
derivations to numpy's ``SeedSequence`` and the rows to
:meth:`~RngRegistry.stream`'s.

Streams are handed out wrapped in a :class:`CountingGenerator`, which
forwards every draw verbatim (sequences are bit-identical to the bare
generator) while accounting how many values each named stream produced.
Per-registry totals are readable via :attr:`RngRegistry.draw_counts`;
when a telemetry recorder is installed the counts also land in the
process metrics registry as ``rng.draws/<stream-name>`` — which is how
run manifests capture the seed registry state.
"""

from __future__ import annotations

import functools
import numbers
import zlib

import numpy as np

from repro.errors import ReproError
from repro.obs import recorder as _obs

__all__ = ["RngRegistry", "CountingGenerator", "DEFAULT_SEED"]

#: Root seed used by every experiment unless overridden.  Chosen once and
#: recorded so EXPERIMENTS.md numbers are reproducible bit-for-bit.
DEFAULT_SEED = 20130701  # ICPP 2013 was held in July.


def _name_key(name: str) -> int:
    """Stable 32-bit key for a stream name (crc32 is stable across runs)."""
    return zlib.crc32(name.encode("utf-8"))


# numpy's SeedSequence hash: pool size, hashmix/mix multipliers and the
# hash constants' start values (numpy/random/bit_generator.pyx).
_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715


def _hashmix(value: int, h: int) -> tuple[int, int]:
    """SeedSequence's ``hashmix``: the hashed word and the next constant."""
    value ^= h
    h = (h * _MULT_A) & _MASK32
    value = (value * h) & _MASK32
    return value ^ (value >> 16), h


def _mix(x: int, y: int) -> int:
    """SeedSequence's ``mix`` of a pool word with a hashed word."""
    r = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
    return r ^ (r >> 16)


@functools.lru_cache(maxsize=64)
def _seed_pool(seed: int) -> tuple[tuple[int, ...], int]:
    """The pool and hash constant of ``SeedSequence(seed, spawn_key=(k,))``
    after every entropy word but the key ``k``.

    The entropy is the seed's little-endian uint32 words, zero-padded to
    the pool size because a spawn key is present, then the key.  Cached
    per seed: every :meth:`RngRegistry.child` registry of an experiment
    has a seed of its own, and its streams all share this prefix.
    """
    words = []
    while True:
        words.append(seed & _MASK32)
        seed >>= 32
        if not seed:
            break
    words += [0] * (_POOL_SIZE - len(words))
    pool = []
    h = _INIT_A
    for word in words[:_POOL_SIZE]:
        value, h = _hashmix(word, h)
        pool.append(value)
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                value, h = _hashmix(pool[src], h)
                pool[dst] = _mix(pool[dst], value)
    for word in words[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            value, h = _hashmix(word, h)
            pool[dst] = _mix(pool[dst], value)
    return tuple(pool), h


def _hash_steps(h: int, mult: int, count: int) -> tuple[tuple[int, int], ...]:
    """``count`` successive hash steps from constant ``h``: (xor, multiplier) each."""
    steps = []
    for _ in range(count):
        nxt = (h * mult) & _MASK32
        steps.append((h, nxt))
        h = nxt
    return tuple(steps)


#: The hash steps of ``generate_state``'s output words, fixed by numpy.
_OUT_STEPS = _hash_steps(_INIT_B, _MULT_B, 2 * _POOL_SIZE)


def _state_words(pool: tuple[int, ...], h: int, keys) -> list:
    """The eight uint32 words ``generate_state`` hashes out after ``keys``.

    Mixes each key, the last entropy word, into every word of the seed's
    ``pool`` (hash constant ``h``), then hashes the pool out to 8 words.
    ``keys`` is one Python int or a uint32 array of them: every product
    is taken mod 2**32 by the mask (a uint32 array wraps by itself), and
    every Python-int operand is below 2**32, so both give the same words.
    """
    mixed = []
    for word in pool:
        nxt = (h * _MULT_A) & _MASK32
        hashed = ((keys ^ h) * nxt) & _MASK32
        hashed ^= hashed >> 16
        out = (((_MIX_MULT_L * word) & _MASK32) - _MIX_MULT_R * hashed) & _MASK32
        mixed.append(out ^ (out >> 16))
        h = nxt
    words = []
    for word, (xor, mult) in zip(mixed + mixed, _OUT_STEPS):
        word = ((word ^ xor) * mult) & _MASK32
        words.append(word ^ (word >> 16))
    return words


def _pcg64_states(pool: tuple[int, ...], h: int, keys: np.ndarray) -> np.ndarray:
    """``SeedSequence(...).generate_state(4, uint64)`` for every key: (N, 4).

    :func:`_state_words` over the uint32 ``keys``, paired (low, high)
    into uint64s.
    """
    state = np.empty((len(keys), 2 * _POOL_SIZE), dtype=np.uint32)
    for i, word in enumerate(_state_words(pool, h, keys)):
        state[:, i] = word
    return state.astype("<u4", copy=False).view("<u8").astype(np.uint64, copy=False)


def _pcg64_state(pool: tuple[int, ...], h: int, key: int) -> np.ndarray:
    """One key's :func:`_pcg64_states` row, hashed in Python ints."""
    w = _state_words(pool, h, key)
    return np.array(
        [w[0] | w[1] << 32, w[2] | w[3] << 32, w[4] | w[5] << 32, w[6] | w[7] << 32],
        dtype=np.uint64,
    )


@functools.cache
def _derived_state_type() -> type:
    """The seed-sequence type that hands ``PCG64`` one precomputed state row.

    Built on first use: its base class lives in ``numpy.random``, which
    ``import numpy`` loads lazily and ``import repro`` should not load.
    """
    from numpy.random.bit_generator import ISeedSequence

    class DerivedState(ISeedSequence):
        def __init__(self, state: np.ndarray) -> None:
            self._state = state

        def generate_state(self, n_words, dtype=np.uint32):
            """The row itself: exactly the ``(4, numpy.uint64)`` ``PCG64`` asks for."""
            if n_words != len(self._state) or dtype is not np.uint64:
                raise ValueError("a derived state holds PCG64's 4 uint64 words only")
            return self._state

    return DerivedState


def _draws(size) -> int:
    """Number of scalar values a ``size`` argument asks for."""
    if size is None:
        return 1
    if isinstance(size, (int, np.integer)):
        return int(size)
    out = 1
    for dim in size:
        out *= int(dim)
    return out


class CountingGenerator:
    """A :class:`numpy.random.Generator` proxy that accounts its draws.

    Forwards every method to the wrapped generator unchanged — the
    random sequence is identical to using the generator directly — and
    counts the values produced by the draw methods the library uses
    (``normal``, ``standard_normal``, ``uniform``, ``random``,
    ``integers``, ``exponential``, ``choice``).  Any other attribute is
    forwarded un-counted.
    """

    __slots__ = ("_gen", "_name", "_counts")

    def __init__(self, gen: np.random.Generator, name: str, counts: dict) -> None:
        self._gen = gen
        self._name = name
        self._counts = counts

    @property
    def stream_name(self) -> str:
        """The registry name this generator was derived for."""
        return self._name

    def _record(self, size) -> None:
        n = _draws(size)
        counts = self._counts
        counts[self._name] = counts.get(self._name, 0) + n
        if _obs._RECORDER is not None:
            _obs.count("rng.draws/" + self._name, n)

    # --- counted draw methods --------------------------------------------
    def normal(self, loc=0.0, scale=1.0, size=None):
        """Counted :meth:`numpy.random.Generator.normal`."""
        self._record(size)
        return self._gen.normal(loc, scale, size)

    def standard_normal(self, size=None, *args, **kwargs):
        """Counted :meth:`numpy.random.Generator.standard_normal`."""
        self._record(size)
        return self._gen.standard_normal(size, *args, **kwargs)

    def uniform(self, low=0.0, high=1.0, size=None):
        """Counted :meth:`numpy.random.Generator.uniform`."""
        self._record(size)
        return self._gen.uniform(low, high, size)

    def random(self, size=None, *args, **kwargs):
        """Counted :meth:`numpy.random.Generator.random`."""
        self._record(size)
        return self._gen.random(size, *args, **kwargs)

    def integers(self, low, high=None, size=None, *args, **kwargs):
        """Counted :meth:`numpy.random.Generator.integers`."""
        self._record(size)
        return self._gen.integers(low, high, size, *args, **kwargs)

    def exponential(self, scale=1.0, size=None):
        """Counted :meth:`numpy.random.Generator.exponential`."""
        self._record(size)
        return self._gen.exponential(scale, size)

    def choice(self, a, size=None, *args, **kwargs):
        """Counted :meth:`numpy.random.Generator.choice`."""
        self._record(size)
        return self._gen.choice(a, size, *args, **kwargs)

    def __getattr__(self, attr):
        return getattr(self._gen, attr)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"CountingGenerator({self._name!r})"


class RngRegistry:
    """Factory of independent named random generators.

    Parameters
    ----------
    seed:
        Root seed, a non-negative integer (a negative one raises
        :class:`~repro.errors.ReproError`).  Two registries built with
        the same seed hand out identical streams for identical names,
        irrespective of request order.

    Examples
    --------
    >>> r = RngRegistry(7)
    >>> a = r.stream("noise/run0").standard_normal(3)
    >>> b = RngRegistry(7).stream("noise/run0").standard_normal(3)
    >>> bool((a == b).all())
    True
    >>> r.draw_counts
    {'noise/run0': 3}
    """

    def __init__(self, seed: int = DEFAULT_SEED) -> None:
        if not isinstance(seed, numbers.Integral) or seed < 0:
            raise ReproError(f"seed must be a non-negative integer, got {seed!r}")
        self._seed = int(seed)
        self._draws: dict[str, int] = {}

    @property
    def seed(self) -> int:
        """The root seed this registry derives every stream from."""
        return self._seed

    @property
    def draw_counts(self) -> dict[str, int]:
        """Values drawn so far, per stream name (a copy, sorted by name)."""
        return {name: self._draws[name] for name in sorted(self._draws)}

    def stream(self, name: str) -> CountingGenerator:
        """Return a fresh generator for ``name``.

        Each call returns a *new* generator positioned at the start of the
        same underlying sequence, so callers that need to continue a
        sequence must hold on to the generator they were given.  Its
        ``PCG64`` state is :func:`_pcg64_state` of the name's key, the
        words numpy's ``SeedSequence`` would hash out, without building
        one.
        """
        state = _pcg64_state(*_seed_pool(self._seed), _name_key(name))
        return CountingGenerator(
            np.random.Generator(np.random.PCG64(_derived_state_type()(state))),
            name,
            self._draws,
        )

    def normal_rows(self, names, loc: float, scale: float, size: int) -> np.ndarray:
        """``self.stream(name).normal(loc, scale, size)`` for each name, as rows.

        Row ``i`` is bit for bit what ``names[i]``'s own stream draws,
        and the draw ledger (and, under an installed recorder, the
        ``rng.draws/<name>`` counters) records ``size`` draws per name
        in order, a repeated name once per occurrence, exactly as those
        per-stream calls would.  Every row's ``PCG64`` state comes from
        one vectorized SeedSequence derivation, and each row is drawn
        from a bare :class:`numpy.random.Generator`: no
        :class:`CountingGenerator` is built.
        """
        names = list(names)
        keys = np.fromiter(map(_name_key, names), dtype=np.uint32, count=len(names))
        states = _pcg64_states(*_seed_pool(self._seed), keys)
        derived = _derived_state_type()
        generator, pcg64, draws = np.random.Generator, np.random.PCG64, self._draws
        recording = _obs._RECORDER is not None
        rows = np.empty((len(names), size))
        for row, name, state in zip(rows, names, states):
            draws[name] = draws.get(name, 0) + size
            if recording:
                _obs.count("rng.draws/" + name, size)
            row[:] = generator(pcg64(derived(state))).normal(loc, scale, size)
        return rows

    def absorb(self, counts: "dict[str, int]") -> None:
        """Fold another registry's draw ledger into this one's counts.

        The merge half of sharded execution: a worker process draws from
        its own same-seed registry (streams are name-keyed and restart
        per :meth:`stream` call, so identical names yield bit-identical
        sequences), ships its :attr:`draw_counts` back, and the parent
        absorbs them here so the combined ledger matches a serial run.
        Counts only — no generator state crosses the process boundary.
        """
        draws = self._draws
        for name, n in counts.items():
            draws[name] = draws.get(name, 0) + int(n)

    def child(self, name: str) -> "RngRegistry":
        """A registry whose streams are independent of this one's.

        Useful to give a sub-experiment its own namespace:
        ``registry.child("fig5").stream("tcp/run0")``.
        """
        return RngRegistry(self._seed ^ _name_key(name) ^ 0x9E3779B9)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"RngRegistry(seed={self._seed})"
