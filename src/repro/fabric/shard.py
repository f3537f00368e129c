"""Shard planning and order-preserving merges for the worker fabric.

Pure functions, no processes: :func:`plan_shards` cuts a work list into
contiguous slices (one per worker task) and :func:`merge_in_order` folds
per-shard result dicts back together **in shard order**.  Contiguity
plus in-order folding keeps the serial insertion order (shard ``k``
holds a contiguous run of items, and shards are folded ``0, 1, 2,
...``), which makes sharded execution indistinguishable from serial
execution for every order-sensitive artifact we gate on.

Shard *counts* are a throughput knob, never a semantics knob: any
``n_shards`` (including more shards than items) yields the same merged
answer.
"""

from __future__ import annotations

from repro.errors import FabricError

__all__ = ["plan_shards", "merge_in_order"]


def plan_shards(n_items: int, n_shards: int) -> "list[tuple[int, int]]":
    """Contiguous ``[start, stop)`` slices covering ``range(n_items)``.

    At most ``n_shards`` non-empty slices, balanced to within one item,
    earlier shards taking the extra items.  More shards than items
    degrades gracefully to one slice per item; zero items yields an
    empty plan.
    """
    if n_items < 0:
        raise FabricError(f"cannot shard a negative item count ({n_items})")
    if n_shards < 1:
        raise FabricError(f"need >= 1 shard, got {n_shards}")
    shards = min(n_shards, n_items)
    plan: list[tuple[int, int]] = []
    start = 0
    for k in range(shards):
        size = n_items // shards + (1 if k < n_items % shards else 0)
        plan.append((start, start + size))
        start += size
    return plan


def merge_in_order(shard_results: "list[dict]") -> dict:
    """Fold per-shard result dicts in shard order into one dict.

    With contiguous shards this reproduces the serial insertion order,
    so iteration (and therefore rendering) of the merged dict is
    byte-identical to the unsharded run.  Key collisions across shards
    indicate a broken plan and raise.
    """
    merged: dict = {}
    for result in shard_results:
        for key, value in result.items():
            if key in merged:
                raise FabricError(f"shard results collide on key {key!r}")
            merged[key] = value
    return merged
