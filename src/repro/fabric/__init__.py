"""Zero-copy shared-memory worker fabric.

The fabric is how the reproduction spreads CPU-bound solver work across
processes without giving up its two core guarantees: **bit-identical
results** regardless of worker count, and **no per-task machine
serialization** on the hot path.

Layers (bottom up):

* :mod:`repro.fabric.shard` — pure shard planning and order-preserving
  merges; contiguous slices folded in shard order reproduce serial
  insertion order.
* :mod:`repro.fabric.arena` — machine arenas: a machine's capacity
  vector, hop matrix, and DMA adjacency packed once into a POSIX
  shared-memory segment keyed by its solver fingerprint; workers attach
  and map instead of unpickling.  Refcounted, crash-proof cleanup.
* :mod:`repro.fabric.telemetry` — per-worker span/counter capture and
  deterministic grafting back into the parent's trace recorder.
* :mod:`repro.fabric.pool` — :class:`FabricPool`, the persistent worker
  pool that shards sweeps and runs experiment batches.
"""

from repro.fabric.arena import (
    MachineArena,
    attach,
    get_arena,
    live_segments,
    publish,
    release_all,
    segment_name,
)
from repro.fabric.pool import FabricPool
from repro.fabric.shard import merge_draws, merge_in_order, plan_shards
from repro.fabric.telemetry import begin_capture, end_capture, graft

__all__ = [
    "FabricPool",
    "MachineArena",
    "attach",
    "begin_capture",
    "end_capture",
    "get_arena",
    "graft",
    "live_segments",
    "merge_draws",
    "merge_in_order",
    "plan_shards",
    "publish",
    "release_all",
    "segment_name",
]
