#!/usr/bin/env python
"""Record BENCH_fabric.json: the worker-fabric evidence.

Two paired measurements, written in pytest-benchmark JSON shape so
``scripts/bench_gate.py`` gates them like every other suite:

* ``fabric_sweep_serial_64n`` / ``fabric_sweep_jobs4_64n`` — the
  64-node both-mode characterization sweep, serial vs sharded over a
  4-worker :class:`~repro.fabric.FabricPool`.  On a multi-core host the
  sharded mean should sit near serial/4; on a single-core host (CI
  sandboxes) it records the fabric's overhead instead — the honest
  number either way, with ``cpu_count`` in ``machine_info`` saying
  which regime produced it.
* ``fabric_dispatch_pickle_per_task`` / ``fabric_dispatch_attach`` —
  per-task dispatch cost on a 256-node machine: shipping the serialized
  machine with every task (the pre-fabric protocol: every task pays
  serialization, transport, and reconstruction) vs attach-by-fingerprint
  (tasks carry a segment name; workers map the arena once and hit their
  cache after).  This is the zero-copy win and it does not need spare
  cores to show up.

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
from repro.fabric.pool import _WORKER_MACHINE_LIMIT
from repro.rng import RngRegistry
from repro.solver.capacity import machine_fingerprint
from repro.solver.session import reset_sessions
from repro.topology.builders import scaled_host
from repro.topology.serialize import machine_to_dict

SWEEP_RUNS = 5
SWEEP_ROUNDS = 3
DISPATCH_TASKS = 32
DISPATCH_ROUNDS = 5


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

        sharded()  # warm the workers and the arena once
        sharded_stats = _bench(sharded, SWEEP_ROUNDS)
    results.append({"name": "fabric_sweep_jobs4_64n", "stats": sharded_stats})
    return serial_stats["mean"], sharded_stats["mean"]


def bench_dispatch(results: list) -> "tuple[float, float]":
    machine = scaled_host(128)  # 256 nodes: serialization that hurts
    fingerprint = machine_fingerprint(machine)
    description = machine_to_dict(machine)

    with FabricPool(jobs=1) as pool:
        executor_tasks = pool  # dispatch through the pool's task plumbing

        def pickle_per_task():
            # Unique fingerprints defeat the worker cache on purpose:
            # every task pays serialization + transport + reconstruction,
            # exactly like a pool with no arenas would.
            tasks = [
                executor_tasks._task(
                    "ping",
                    {
                        "fingerprint": f"{fingerprint}-{os.getpid()}-{i}",
                        "segment": None,
                        "machine": description,
                    },
                    pool.seed,
                    {},
                )
                for i in range(DISPATCH_TASKS)
            ]
            executor_tasks._run_tasks(tasks)

        def attach_by_fingerprint():
            ref = executor_tasks._machine_ref(machine)
            tasks = [
                executor_tasks._task("ping", ref, pool.seed, {})
                for _ in range(DISPATCH_TASKS)
            ]
            executor_tasks._run_tasks(tasks)

        # Warm both paths (fork cost, first attach, first rebuild).
        attach_by_fingerprint()
        pickle_per_task()
        pickle_stats = _bench(pickle_per_task, DISPATCH_ROUNDS)
        attach_stats = _bench(attach_by_fingerprint, DISPATCH_ROUNDS)

    results.append(
        {"name": "fabric_dispatch_pickle_per_task", "stats": pickle_stats}
    )
    results.append({"name": "fabric_dispatch_attach", "stats": attach_stats})
    return pickle_stats["mean"], attach_stats["mean"]


def main(argv: "list[str]") -> int:
    out_path = argv[1] if len(argv) > 1 else "BENCH_fabric.json"
    cpu_count = os.cpu_count() or 1
    results: list = []

    serial_mean, sharded_mean = bench_sweep(results)
    print(f"sweep 64n: serial {serial_mean * 1e3:.1f} ms, "
          f"jobs=4 {sharded_mean * 1e3:.1f} ms "
          f"(x{serial_mean / sharded_mean:.2f}, {cpu_count} cpus)")

    pickle_mean, attach_mean = bench_dispatch(results)
    print(f"dispatch 256n x{DISPATCH_TASKS}: pickle-per-task "
          f"{pickle_mean * 1e3:.1f} ms, attach {attach_mean * 1e3:.1f} ms "
          f"(x{pickle_mean / attach_mean:.2f})")

    payload = {
        "machine_info": {
            "cpu_count": cpu_count,
            "python": platform.python_version(),
            "system": platform.system(),
        },
        "extra_info": {
            "sweep_speedup_jobs4": round(serial_mean / sharded_mean, 3),
            "dispatch_speedup_attach": round(pickle_mean / attach_mean, 3),
            "worker_machine_cache": _WORKER_MACHINE_LIMIT,
            "caveats": (
                "sweep_speedup_jobs4 needs spare cores to exceed 1.0; on a "
                f"{cpu_count}-cpu host it records fabric overhead, not "
                "parallel speedup. dispatch_speedup_attach is "
                "core-count-independent: it compares per-task machine "
                "serialization against attach-by-fingerprint."
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
