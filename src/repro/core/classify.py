"""Grouping node bandwidths into performance classes.

§V-A: "The local and neighboring nodes are always assigned to the first
class, and the main task of our methodology is to classify the remote
nodes."  Remote nodes are clustered on their measured bandwidth with a
relative-gap rule (values within ``rel_gap`` of each other share a
class); a k-means cross-check is provided for validation tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from repro.errors import ModelError
from repro.topology.machine import Machine, Relation

__all__ = ["PerfClass", "classify_nodes", "classify_kmeans"]


@dataclass(frozen=True)
class PerfClass:
    """One performance class: a rank, its nodes, and their values."""

    rank: int  # 1-based; class 1 is the fastest (local + neighbours)
    node_ids: tuple[int, ...]
    values: dict[int, float]

    def __post_init__(self) -> None:
        if self.rank < 1:
            raise ModelError(f"class rank must be >= 1, got {self.rank}")
        if not self.node_ids:
            raise ModelError(f"class {self.rank} has no nodes")
        missing = [n for n in self.node_ids if n not in self.values]
        if missing:
            raise ModelError(f"class {self.rank}: nodes {missing} lack values")

    @property
    def avg(self) -> float:
        """Mean bandwidth across the class's nodes."""
        return float(np.mean([self.values[n] for n in self.node_ids]))

    @property
    def lo(self) -> float:
        """Lowest bandwidth in the class (Table IV/V 'Range' floor)."""
        return min(self.values[n] for n in self.node_ids)

    @property
    def hi(self) -> float:
        """Highest bandwidth in the class (Table IV/V 'Range' ceiling)."""
        return max(self.values[n] for n in self.node_ids)

    def __contains__(self, node: int) -> bool:
        return node in self.node_ids


def classify_nodes(
    values: Mapping[int, float],
    machine: Machine,
    target_node: int,
    rel_gap: float = 0.08,
) -> tuple[PerfClass, ...]:
    """Split per-node bandwidths into ordered performance classes.

    Parameters
    ----------
    values:
        node id -> measured bandwidth (all of the machine's nodes).
    machine, target_node:
        Used for the local/neighbour rule.
    rel_gap:
        Adjacent (sorted) remote values whose relative gap exceeds this
        start a new class.

    Returns
    -------
    Classes in decreasing performance order, ranks 1..k.
    """
    if target_node not in machine.node_ids:
        raise ModelError(f"unknown target node {target_node}")
    missing = [n for n in machine.node_ids if n not in values]
    if missing:
        raise ModelError(f"values missing for nodes {missing}")
    if any(v <= 0 for v in values.values()):
        raise ModelError("bandwidth values must be positive")

    first = [
        n
        for n in machine.node_ids
        if machine.relation(target_node, n) in (Relation.LOCAL, Relation.NEIGHBOR)
    ]
    remote = sorted(
        (n for n in machine.node_ids if n not in first),
        key=lambda n: -values[n],
    )

    classes: list[PerfClass] = [
        PerfClass(rank=1, node_ids=tuple(sorted(first)),
                  values={n: float(values[n]) for n in first})
    ]
    group: list[int] = []
    for node in remote:
        if group and (values[group[-1]] - values[node]) / values[group[-1]] > rel_gap:
            classes.append(
                PerfClass(
                    rank=len(classes) + 1,
                    node_ids=tuple(sorted(group)),
                    values={n: float(values[n]) for n in group},
                )
            )
            group = []
        group.append(node)
    if group:
        classes.append(
            PerfClass(
                rank=len(classes) + 1,
                node_ids=tuple(sorted(group)),
                values={n: float(values[n]) for n in group},
            )
        )
    return tuple(classes)


def _kmeans_1d(values: np.ndarray, k: int) -> np.ndarray:
    """Group labels (0 = lowest) of an exact k-means split of 1-D ``values``.

    Dynamic programme over the distinct sorted values: groups are
    contiguous runs of them, so equal values always share a group and
    there are ``min(k, distinct values)`` groups.  Ties in the
    within-group sum of squares go to the earliest cut.
    """
    levels, inverse, counts = np.unique(values, return_inverse=True, return_counts=True)
    m = len(levels)
    k = min(k, m)
    centred = levels - levels.mean()  # keeps the prefix sums well conditioned
    w = np.r_[0, np.cumsum(counts)]
    s1 = np.r_[0.0, np.cumsum(counts * centred)]
    s2 = np.r_[0.0, np.cumsum(counts * centred**2)]
    # cost[i, j]: sum of squares of one group spanning levels i..j-1.
    with np.errstate(divide="ignore", invalid="ignore"):
        cost = (s2[None, :] - s2[:, None]) - (s1[None, :] - s1[:, None]) ** 2 / (
            w[None, :] - w[:, None]
        )
    cost[np.tril_indices(m + 1)] = np.inf
    best = cost[0]  # best[j]: least cost of levels 0..j-1 in the groups so far
    cuts = []
    for _ in range(1, k):
        total = best[:, None] + cost
        cuts.append(total.argmin(axis=0))
        best = total.min(axis=0)
    starts = [m]
    for cut in reversed(cuts):
        starts.append(int(cut[starts[-1]]))
    bounds = np.array(starts[:0:-1])  # first level of groups 1..k-1
    return np.searchsorted(bounds, inverse, side="right")


def classify_kmeans(
    values: Mapping[int, float],
    machine: Machine,
    target_node: int,
    k: int,
) -> tuple[PerfClass, ...]:
    """k-means cross-check on the remote nodes (validation aid).

    Keeps the local/neighbour rule, clusters the remaining nodes into
    ``k - 1`` groups (at most one per distinct value) with exact 1-D
    k-means, and orders classes by mean.
    """
    if k < 1:
        raise ModelError(f"k must be >= 1, got {k}")
    first = [
        n
        for n in machine.node_ids
        if machine.relation(target_node, n) in (Relation.LOCAL, Relation.NEIGHBOR)
    ]
    remote = [n for n in machine.node_ids if n not in first]
    classes = [
        PerfClass(rank=1, node_ids=tuple(sorted(first)),
                  values={n: float(values[n]) for n in first})
    ]
    if not remote:
        return tuple(classes)
    labels = _kmeans_1d(np.array([float(values[n]) for n in remote]), max(k - 1, 1))
    for label in range(labels.max(), -1, -1):
        group = [n for n, lab in zip(remote, labels) if lab == label]
        classes.append(
            PerfClass(
                rank=len(classes) + 1,
                node_ids=tuple(sorted(group)),
                values={n: float(values[n]) for n in group},
            )
        )
    return tuple(classes)
