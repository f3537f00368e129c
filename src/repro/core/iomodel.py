"""Algorithm 1: NUMA I/O performance modelling with memory semantics.

The paper's methodology, line for line:

1. ``n <- numa_num_configured_nodes()``
2. ``m <- numa_num_configured_cores() / n`` parallel copy threads
3. for every node ``i``: allocate ``memsrc``/``memsnk`` per mode
   (write: src on ``i``, sink on the target ``k``; read: the reverse),
4. bind the copy threads to node ``k`` (simulating the device's DMA
   engine), copy 100 times, record the **average** bandwidth,
5. emit the device write/read performance model for node ``k``.

No I/O device is touched: the model is built purely from memory-to-
memory bulk copies, and validated elsewhere against real (simulated)
TCP/RDMA/SSD runs.
"""

from __future__ import annotations

import math
import numbers
from contextlib import contextmanager
from typing import Iterator

import numpy as np

from repro.bench.engines import bulk_copy_gbps, bulk_copy_gbps_many
from repro.bench.results import Measurement
from repro.core.classify import classify_nodes
from repro.core.model import IOPerformanceModel
from repro.errors import ModelError
from repro.memory.allocator import PageAllocator
from repro.obs import recorder as _obs
from repro.osmodel import libnuma
from repro.osmodel.noise import NoiseModel
from repro.rng import RngRegistry
from repro.solver.session import get_session
from repro.topology.machine import Machine
from repro.units import MiB

__all__ = ["IOModelBuilder", "sweep_targets"]


def sweep_targets(machine: Machine, targets) -> tuple[int, ...]:
    """An Algorithm 1 sweep's target list, checked, as a tuple.

    ``targets`` may be any iterable, and each must be a node of
    ``machine``.  A sweep's models are keyed by target, so a target
    listed twice cannot be merged: it raises
    :class:`~repro.errors.ModelError` naming the node.
    :meth:`IOModelBuilder.build_many`,
    :meth:`HostCharacterizer.characterize_many
    <repro.core.characterize.HostCharacterizer.characterize_many>` and
    both :class:`~repro.fabric.FabricPool` sweeps check here, before
    any probe runs, any stream is drawn or any task is dispatched.
    """
    targets = tuple(targets)
    seen: set[int] = set()
    for target_node in targets:
        if target_node not in machine.node_ids:
            raise ModelError(f"unknown target node {target_node}")
        if target_node in seen:
            raise ModelError(f"target node {target_node} is listed twice")
        seen.add(target_node)
    return targets


class IOModelBuilder:
    """Build device write/read performance models per Algorithm 1.

    Parameters
    ----------
    machine:
        Host under characterisation.
    registry:
        Seeded RNG registry for measurement noise.
    runs:
        Copies per thread; the algorithm records their average (100 in
        the paper).
    buffer_bytes:
        Per-thread copy buffer; must dwarf the LLC like STREAM's arrays.
    rel_gap:
        Class-splitting threshold passed to
        :func:`~repro.core.classify.classify_nodes`.
    sigma:
        Per-run measurement noise.
    """

    def __init__(
        self,
        machine: Machine,
        registry: RngRegistry | None = None,
        runs: int = 100,
        buffer_bytes: int = 64 * MiB,
        rel_gap: float = 0.08,
        sigma: float = 0.012,
    ) -> None:
        if not isinstance(runs, numbers.Integral) or runs < 1:
            raise ModelError(f"runs must be an integer >= 1, got {runs!r}")
        if not 0 <= sigma < math.inf:
            raise ModelError(f"noise sigma must be finite and >= 0, got {sigma}")
        if not buffer_bytes < math.inf:
            raise ModelError(f"copy buffers must be finite, got {buffer_bytes}")
        if buffer_bytes < 4 * machine.params.llc_bytes:
            raise ModelError(
                f"copy buffers must be >= 4x LLC ({4 * machine.params.llc_bytes} "
                f"bytes) to defeat caching, got {buffer_bytes}"
            )
        self.machine = machine
        self.registry = registry or RngRegistry()
        self.runs = runs
        self.buffer_bytes = buffer_bytes
        self.rel_gap = rel_gap
        self.sigma = sigma
        # One solver session per characterization run: every probe of the
        # Algorithm 1 loop shares its cached capacity map.
        self.session = get_session(machine)
        #: Noise-free copy bandwidth per ``(src, dst)`` probed so far;
        #: the machine never changes, so neither do these.
        self._copy_gbps: dict[tuple[int, int], float] = {}

    def threads_per_node(self) -> int:
        """Algorithm 1 line 2: cores divided by nodes."""
        n = libnuma.numa_num_configured_nodes(self.machine)
        return libnuma.numa_num_configured_cpus(self.machine) // n

    @contextmanager
    def _probe_buffers(
        self, allocator: PageAllocator, size: int, src_node: int, dst_node: int,
        target_node: int,
    ) -> Iterator[None]:
        """Algorithm 1's per-probe cycle (lines 5-10) around one copy.

        Allocates ``memsrc`` and ``memsnk`` of ``size`` bytes on their
        nodes, binds the copy threads to the target node ``k`` and frees
        both buffers on exit, so a node without the pages fails like
        ``numa_alloc_onnode`` would.
        """
        src = libnuma.numa_alloc_onnode(allocator, size, src_node)
        snk = libnuma.numa_alloc_onnode(allocator, size, dst_node)
        try:
            libnuma.numa_run_on_node(self.machine, target_node)
            yield
        finally:
            libnuma.numa_free(allocator, snk)
            libnuma.numa_free(allocator, src)

    def measure_pair(self, other_node: int, target_node: int, mode: str) -> Measurement:
        """One (node ``i``, target ``k``) probe: m threads, ``runs`` copies.

        Buffers are genuinely allocated on their nodes (lines 5-10) so a
        node without memory fails like ``numa_alloc_onnode`` would.
        """
        if mode not in ("write", "read"):
            raise ModelError(f"mode must be 'write' or 'read', got {mode!r}")
        machine = self.machine
        m = self.threads_per_node()
        src_node, dst_node = (
            (other_node, target_node) if mode == "write" else (target_node, other_node)
        )
        with self._probe_buffers(
            PageAllocator(machine), m * self.buffer_bytes, src_node, dst_node,
            target_node,
        ):
            base = bulk_copy_gbps(
                machine, src_node, dst_node, threads=m, session=self.session
            )
            noise = NoiseModel(
                self.registry.stream(
                    f"iomodel/{mode}/k{target_node}-i{other_node}-m{m}"
                )
            )
            samples = base * noise.factors(self.sigma, self.runs)
            return Measurement.from_samples(samples, protocol="mean")

    def build(self, target_node: int, mode: str) -> IOPerformanceModel:
        """The full Algorithm 1 loop over every node ``i``, vectorized."""
        return self.build_many((target_node,), mode)[target_node]

    def build_many(self, targets, mode: str) -> dict[int, IOPerformanceModel]:
        """Algorithm 1 for several target nodes in one batched sweep.

        Semantically the per-node :meth:`measure_pair` loop per target,
        executed as a sweep.  Where Algorithm 1's lines 5-10 allocate,
        bind and free per (node, target) probe, the sweep checks
        feasibility: every probe frees what it took, so a probe fails
        exactly when its nodes lack the pages for its two buffers, and
        one :meth:`~repro.memory.allocator.PageAllocator.fits` query per
        node decides every probe.  Only when a probe would fail does the
        sweep replay the per-probe cycle in order, so it raises the same
        error at the same probe after the same ``numa_alloc_onnode``
        calls.  The copy bandwidth of each distinct (source, sink) pair
        is solved once per builder, all of a sweep's new pairs in one
        :func:`~repro.bench.engines.bulk_copy_gbps_many` batch.  Every
        probe's noise row comes from one
        :meth:`~repro.rng.RngRegistry.normal_rows` call, exponentiated
        in place, and each model is averaged with one ``mean``.  Values
        are bit-identical to node-by-node measurement.  ``targets`` is
        any iterable of distinct nodes (:func:`sweep_targets`).
        """
        targets = sweep_targets(self.machine, targets)
        if mode not in ("write", "read"):
            raise ModelError(f"mode must be 'write' or 'read', got {mode!r}")
        with _obs.span(
            "iomodel.build_many", mode=mode, targets=len(targets)
        ):
            return self._build_many(targets, mode)

    def _build_many(
        self, targets: "tuple[int, ...]", mode: str
    ) -> dict[int, IOPerformanceModel]:
        machine = self.machine
        m = self.threads_per_node()
        size = m * self.buffer_bytes
        n = machine.n_nodes
        nodes = machine.node_ids
        if mode == "write":
            copy_pairs = [(i, k) for k in targets for i in nodes]
        else:
            copy_pairs = [(k, i) for k in targets for i in nodes]
        # Every probe frees what it took, so each sees the free memory of
        # a fresh allocator: it needs one buffer on its source and one on
        # its sink, two on a local probe's node.
        allocator = PageAllocator(machine)
        room = {node: allocator.fits(size, node) for node in nodes}
        if any(room[src] < 1 or room[dst] < 1 + (src == dst)
               for src, dst in copy_pairs):
            # Replay the cycle in order: the first probe that fails raises.
            for probe, (src, dst) in enumerate(copy_pairs):
                with self._probe_buffers(
                    allocator, size, src, dst, targets[probe // n]
                ):
                    pass
        # The read sweep's pairs are the write sweep's transposed, so a
        # builder characterizing both modes solves each pair once.
        known = self._copy_gbps
        missing = [pair for pair in dict.fromkeys(copy_pairs) if pair not in known]
        if missing:
            known.update(zip(missing, bulk_copy_gbps_many(
                machine, missing, m, session=self.session
            )))
        # One row per probe, named as measure_pair names its stream; each
        # row is exp(N(-sigma^2/2, sigma)), NoiseModel.factors' draws.
        if self.sigma == 0:
            noise = np.ones((len(copy_pairs), self.runs))
        else:
            noise = self.registry.normal_rows(
                [f"iomodel/{mode}/k{k}-i{i}-m{m}" for k in targets for i in nodes],
                -0.5 * self.sigma * self.sigma, self.sigma, self.runs,
            )
            np.exp(noise, out=noise)
        models: dict[int, IOPerformanceModel] = {}
        for t_idx, target_node in enumerate(targets):
            rows = slice(t_idx * n, (t_idx + 1) * n)
            base_row = np.array([known[pair] for pair in copy_pairs[rows]])
            samples = base_row[:, None] * noise[rows]
            values = dict(zip(machine.node_ids, samples.mean(axis=1).tolist()))
            classes = classify_nodes(values, machine, target_node, rel_gap=self.rel_gap)
            _obs.count("iomodel.models_built")
            models[target_node] = IOPerformanceModel(
                machine_name=machine.name,
                target_node=target_node,
                mode=mode,
                values=values,
                classes=classes,
                threads=m,
                runs=self.runs,
            )
        return models

    def build_both(self, target_node: int) -> tuple[IOPerformanceModel, IOPerformanceModel]:
        """Write and read models for one target (the Fig. 10 pair)."""
        return self.build(target_node, "write"), self.build(target_node, "read")
