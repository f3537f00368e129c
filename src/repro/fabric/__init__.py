"""The worker fabric: sharded, bit-identical process parallelism.

The fabric is how the reproduction spreads CPU-bound sweeps across
processes without giving up its core guarantee: **bit-identical
results** regardless of worker count.

Layers (bottom up):

* :mod:`repro.fabric.shard` — pure shard planning and order-preserving
  merges; contiguous slices folded in shard order reproduce serial
  insertion order.
* :mod:`repro.fabric.arena` — the machine hand-off: each sweep task
  carries its machine's fingerprint and serialized description, and a
  worker rebuilds a machine once per fingerprint.
* :mod:`repro.fabric.telemetry` — per-worker span/counter capture and
  deterministic grafting back into the parent's trace recorder.
* :mod:`repro.fabric.pool` — :class:`FabricPool`, the persistent worker
  pool that shards sweeps and runs experiment batches.
"""

from repro.fabric.pool import FabricPool
from repro.fabric.shard import merge_in_order, plan_shards
from repro.fabric.telemetry import begin_capture, end_capture, graft

__all__ = [
    "FabricPool",
    "begin_capture",
    "end_capture",
    "graft",
    "merge_in_order",
    "plan_shards",
]
