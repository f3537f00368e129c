"""The I/O performance model objects (the paper's Tables IV and V).

Models serialise to JSON-compatible dicts (:meth:`IOPerformanceModel.
to_dict` / :meth:`from_dict`): a host is characterised once and the
saved model is what schedulers load at runtime — the paper's intended
deployment (§V-B, "assist resource schedulers").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping

import numpy as np

from repro.core.classify import PerfClass
from repro.errors import ModelError

__all__ = ["IOPerformanceModel", "OperationRow", "ModelTable"]

_MODEL_FORMAT_VERSION = 1


def _cell(text: str, width: int) -> str:
    """``text`` right-aligned in a ``width``-character column, after at
    least one space, so a wider cell never runs into its neighbour."""
    return " " + text.rjust(width - 1)


@dataclass(frozen=True)
class IOPerformanceModel:
    """A per-target-node NUMA I/O performance model.

    Produced by Algorithm 1 (:class:`~repro.core.iomodel.IOModelBuilder`):
    per-node memcpy bandwidths plus their class structure, for one
    ``mode`` (``"write"``: data into the device's node; ``"read"``: data
    out of it).
    """

    machine_name: str
    target_node: int
    mode: str
    values: dict[int, float]
    classes: tuple[PerfClass, ...]
    threads: int
    runs: int

    def __post_init__(self) -> None:
        if self.mode not in ("write", "read"):
            raise ModelError(f"mode must be 'write' or 'read', got {self.mode!r}")
        classified = [n for c in self.classes for n in c.node_ids]
        if sorted(classified) != sorted(self.values):
            raise ModelError(
                "classes do not partition the measured node set: "
                f"{sorted(classified)} vs {sorted(self.values)}"
            )

    @property
    def n_classes(self) -> int:
        """Number of performance classes."""
        return len(self.classes)

    def class_of(self, node: int) -> PerfClass:
        """The class containing ``node``."""
        for cls in self.classes:
            if node in cls:
                return cls
        raise ModelError(f"node {node} is not in this model")

    def class_by_rank(self, rank: int) -> PerfClass:
        """The class with 1-based ``rank``."""
        for cls in self.classes:
            if cls.rank == rank:
                return cls
        raise ModelError(f"no class with rank {rank}")

    def representative_nodes(self) -> tuple[int, ...]:
        """One probe node per class — the §V-B cost-reduction test set."""
        return tuple(cls.node_ids[0] for cls in self.classes)

    def probe_cost_reduction(self) -> float:
        """Fraction of probe configurations the class model saves.

        The paper's example: 8 read setups collapse to 4 classes — a
        50 % reduction.
        """
        return 1.0 - self.n_classes / len(self.values)

    def to_dict(self) -> dict[str, Any]:
        """JSON-compatible description of this model."""
        return {
            "format_version": _MODEL_FORMAT_VERSION,
            "machine_name": self.machine_name,
            "target_node": self.target_node,
            "mode": self.mode,
            "threads": self.threads,
            "runs": self.runs,
            "values": {str(n): v for n, v in sorted(self.values.items())},
            "classes": [
                {"rank": c.rank, "node_ids": list(c.node_ids)}
                for c in self.classes
            ],
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "IOPerformanceModel":
        """Rebuild a model saved with :meth:`to_dict`."""
        version = data.get("format_version")
        if version != _MODEL_FORMAT_VERSION:
            raise ModelError(
                f"unsupported model format version {version!r} "
                f"(this library writes {_MODEL_FORMAT_VERSION})"
            )
        try:
            values = {int(n): float(v) for n, v in data["values"].items()}
            classes = tuple(
                PerfClass(
                    rank=entry["rank"],
                    node_ids=tuple(entry["node_ids"]),
                    values={n: values[n] for n in entry["node_ids"]},
                )
                for entry in data["classes"]
            )
            return cls(
                machine_name=data["machine_name"],
                target_node=data["target_node"],
                mode=data["mode"],
                values=values,
                classes=classes,
                threads=data["threads"],
                runs=data["runs"],
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ModelError(f"malformed model description: {exc}") from exc

    def render(self) -> str:
        """Text table in the Tables IV/V layout (Proposed memcpy row)."""
        lines = [
            f"I/O performance model — {self.machine_name}, node {self.target_node}, "
            f"device {self.mode} (memcpy, {self.threads} threads, "
            f"avg of {self.runs} runs)"
        ]
        header = "            " + "".join(
            _cell(f"Class {c.rank}", 16) for c in self.classes
        )
        lines.append(header)
        lines.append(
            "Node ID     "
            + "".join(
                _cell(",".join(map(str, c.node_ids)), 16) for c in self.classes
            )
        )
        lines.append(
            "Range (Gbps)"
            + "".join(_cell(f"{c.lo:.1f} - {c.hi:.1f}", 16) for c in self.classes)
        )
        lines.append(
            "Avg (Gbps)  " + "".join(_cell(f"{c.avg:.1f}", 16) for c in self.classes)
        )
        return "\n".join(lines)


@dataclass(frozen=True)
class OperationRow:
    """Per-class range/average of one measured operation (a table row)."""

    operation: str
    per_class_lo: tuple[float, ...]
    per_class_hi: tuple[float, ...]
    per_class_avg: tuple[float, ...]

    def __post_init__(self) -> None:
        if not (
            len(self.per_class_lo) == len(self.per_class_hi) == len(self.per_class_avg)
        ):
            raise ModelError(f"row {self.operation!r}: ragged class columns")


@dataclass(frozen=True)
class ModelTable:
    """A full Table IV/V: the memcpy model plus measured I/O rows.

    Built with :meth:`from_measurements`: per-node measured bandwidths of
    each real operation are folded into the *model's* classes, which is
    exactly how the paper presents its validation.
    """

    model: IOPerformanceModel
    rows: tuple[OperationRow, ...] = field(default_factory=tuple)

    @classmethod
    def from_measurements(
        cls,
        model: IOPerformanceModel,
        measurements: Mapping[str, Mapping[int, float]],
    ) -> "ModelTable":
        """Fold per-node operation measurements into the model's classes."""
        rows = [
            OperationRow(
                operation="Proposed memcpy",
                per_class_lo=tuple(c.lo for c in model.classes),
                per_class_hi=tuple(c.hi for c in model.classes),
                per_class_avg=tuple(c.avg for c in model.classes),
            )
        ]
        for operation, per_node in measurements.items():
            missing = [n for n in model.values if n not in per_node]
            if missing:
                raise ModelError(
                    f"operation {operation!r} lacks nodes {missing} "
                    "required by the model"
                )
            lo, hi, avg = [], [], []
            for c in model.classes:
                vals = [per_node[n] for n in c.node_ids]
                lo.append(min(vals))
                hi.append(max(vals))
                avg.append(float(np.mean(vals)))
            rows.append(
                OperationRow(
                    operation=operation,
                    per_class_lo=tuple(lo),
                    per_class_hi=tuple(hi),
                    per_class_avg=tuple(avg),
                )
            )
        return cls(model=model, rows=tuple(rows))

    def row(self, operation: str) -> OperationRow:
        """The row for ``operation``."""
        for r in self.rows:
            if r.operation == operation:
                return r
        raise ModelError(f"table has no row {operation!r}")

    def render(self) -> str:
        """Tables IV/V layout: operations x classes, range + avg."""
        model = self.model
        title = (
            f"NUMA I/O bandwidth performance model for device "
            f"{model.mode} (unit: Gbps) — node {model.target_node}"
        )
        width = 14
        lines = [title]
        lines.append(
            "Operation".ljust(18)
            + "".ljust(7)
            + "".join(_cell(f"Class {c.rank}", width) for c in model.classes)
        )
        lines.append(
            "".ljust(18)
            + "Node".ljust(7)
            + "".join(
                _cell(",".join(map(str, c.node_ids)), width) for c in model.classes
            )
        )
        for r in self.rows:
            lines.append(
                r.operation.ljust(18)
                + "Range".ljust(7)
                + "".join(
                    _cell(f"{lo:.1f}-{hi:.1f}", width)
                    for lo, hi in zip(r.per_class_lo, r.per_class_hi)
                )
            )
            lines.append(
                "".ljust(18)
                + "Avg".ljust(7)
                + "".join(_cell(f"{a:.1f}", width) for a in r.per_class_avg)
            )
        return "\n".join(lines)
