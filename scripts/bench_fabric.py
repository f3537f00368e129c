#!/usr/bin/env python
"""Record BENCH_fabric.json: the worker-fabric evidence.

One paired measurement, written in pytest-benchmark JSON shape so
``scripts/bench_gate.py`` gates it like every other suite:
``fabric_sweep_serial_64n`` / ``fabric_sweep_jobs4_64n``, the 64-node
both-mode characterization sweep, serial vs sharded over a 4-worker
:class:`~repro.fabric.FabricPool`.  On a multi-core host the sharded
mean should sit near serial/4; on a single-core host (CI sandboxes) it
records the fabric's overhead instead — the honest number either way,
with ``cpu_count`` in ``machine_info`` saying which regime produced it.

Usage::

    PYTHONPATH=src python scripts/bench_fabric.py [OUT.json]
"""

from __future__ import annotations

import os
import platform
import statistics
import sys
import time

from repro.core.characterize import HostCharacterizer
from repro.fabric import FabricPool
from repro.fabric.arena import _WORKER_MACHINE_LIMIT
from repro.rng import RngRegistry
from repro.solver.session import reset_sessions
from repro.topology.builders import scaled_host

SWEEP_RUNS = 5
SWEEP_ROUNDS = 3


def _stats(samples: "list[float]") -> dict:
    return {
        "mean": statistics.fmean(samples),
        "min": min(samples),
        "max": max(samples),
        "stddev": statistics.stdev(samples) if len(samples) > 1 else 0.0,
        "rounds": len(samples),
    }


def _bench(fn, rounds: int) -> dict:
    samples = []
    for _ in range(rounds):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    return _stats(samples)


def bench_sweep(results: list) -> "tuple[float, float]":
    machine = scaled_host(32)  # 64 nodes
    nodes = list(machine.node_ids)

    def serial():
        reset_sessions()
        HostCharacterizer(
            machine, registry=RngRegistry(), runs=SWEEP_RUNS
        ).characterize_many(tuple(nodes))

    serial_stats = _bench(serial, SWEEP_ROUNDS)
    results.append({"name": "fabric_sweep_serial_64n", "stats": serial_stats})

    with FabricPool(jobs=4) as pool:
        def sharded():
            pool.characterize_many(
                machine, nodes, registry=RngRegistry(), runs=SWEEP_RUNS
            )

        sharded()  # warm the workers and their machine caches once
        sharded_stats = _bench(sharded, SWEEP_ROUNDS)
    results.append({"name": "fabric_sweep_jobs4_64n", "stats": sharded_stats})
    return serial_stats["mean"], sharded_stats["mean"]


def main(argv: "list[str]") -> int:
    out_path = argv[1] if len(argv) > 1 else "BENCH_fabric.json"
    cpu_count = os.cpu_count() or 1
    results: list = []

    serial_mean, sharded_mean = bench_sweep(results)
    print(f"sweep 64n: serial {serial_mean * 1e3:.1f} ms, "
          f"jobs=4 {sharded_mean * 1e3:.1f} ms "
          f"(x{serial_mean / sharded_mean:.2f}, {cpu_count} cpus)")

    payload = {
        "machine_info": {
            "cpu_count": cpu_count,
            "python": platform.python_version(),
            "system": platform.system(),
        },
        "extra_info": {
            "sweep_speedup_jobs4": round(serial_mean / sharded_mean, 3),
            "worker_machine_cache": _WORKER_MACHINE_LIMIT,
            "caveats": (
                "sweep_speedup_jobs4 needs spare cores to exceed 1.0; on a "
                f"{cpu_count}-cpu host it records fabric overhead, not "
                "parallel speedup."
            ),
        },
        "benchmarks": results,
    }
    from repro.journal.atomic import atomic_write_json

    atomic_write_json(out_path, payload, indent=2, sort_keys=True)
    print(f"wrote {out_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
