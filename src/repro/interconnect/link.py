"""Directed HyperTransport link model.

Each physical cable is represented as **two** :class:`DirectedLink`
objects, because every asymmetry the paper observes (\"the number of
request and response buffers, and link width configuration for cache
coherent traffic\" — §IV-A) is per direction:

* ``dma_credit`` scales the raw width x rate capacity for bulk/DMA
  traffic in this direction (buffer-credit starvation shows up here);
* ``pio_cap_gbps`` caps streaming PIO throughput in this direction;
* ``pio_latency_s`` is the one-way latency contribution for coherent
  requests/responses crossing this direction.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

from repro.errors import TopologyError
from repro.units import NS, ht_raw_gbps

__all__ = ["LinkKind", "DirectedLink", "link_pair"]


class LinkKind(enum.Enum):
    """What a link physically is; used for reporting and sanity checks."""

    #: On-package die-to-die connection (AMD "SRI"/internal HT).
    SRI = "sri"
    #: Inter-package HyperTransport cable.
    HT = "ht"
    #: Node-to-I/O-hub connection (non-coherent HT).
    IO = "io"


@dataclass(frozen=True)
class DirectedLink:
    """One direction of a fabric link.

    Parameters
    ----------
    src, dst:
        NUMA node ids (or ``-1`` for an I/O hub endpoint).
    width_bits:
        HT link width in this direction (8 or 16 on the modelled parts).
    gts:
        Transfer rate in GT/s (HT 3.0: up to 3.2).
    kind:
        Physical role of the link.
    dma_credit:
        Fraction of raw capacity available to bulk/DMA traffic in this
        direction, in ``(0, 1]``.  Models request/response buffer-credit
        allocation.
    pio_cap_gbps:
        Streaming PIO throughput cap in this direction.  ``None`` derives
        a default of 60 % of raw capacity (coherent traffic never reaches
        wire speed because of probe/response overhead).
    pio_latency_s:
        One-way latency added by crossing this direction.
    """

    src: int
    dst: int
    width_bits: int
    gts: float
    kind: LinkKind = LinkKind.HT
    dma_credit: float = 1.0
    pio_cap_gbps: float | None = None
    pio_latency_s: float = field(default=12.5 * NS)

    def __post_init__(self) -> None:
        if self.src == self.dst:
            raise TopologyError(f"link endpoints must differ, got {self.src}->{self.dst}")
        if self.width_bits not in (2, 4, 8, 16, 32):
            raise TopologyError(f"implausible HT width {self.width_bits!r} bits")
        if not 0.0 < self.dma_credit <= 1.0:
            raise TopologyError(f"dma_credit must be in (0, 1], got {self.dma_credit!r}")
        if not 0 < self.gts < math.inf:
            raise TopologyError(f"gts must be positive and finite, got {self.gts!r}")
        if not 0 <= self.pio_latency_s < math.inf:
            raise TopologyError(
                f"pio_latency_s must be non-negative and finite, "
                f"got {self.pio_latency_s!r}"
            )
        if self.pio_cap_gbps is not None and not 0 < self.pio_cap_gbps < math.inf:
            raise TopologyError(
                f"pio_cap_gbps must be positive and finite, got {self.pio_cap_gbps!r}"
            )

    # --- capacities ------------------------------------------------------
    @property
    def raw_gbps(self) -> float:
        """Wire capacity of this direction (width x rate)."""
        return ht_raw_gbps(self.width_bits, self.gts)

    @property
    def dma_gbps(self) -> float:
        """Bulk/DMA capacity of this direction after credit derating."""
        return self.raw_gbps * self.dma_credit

    @property
    def pio_gbps(self) -> float:
        """Streaming PIO throughput cap of this direction."""
        if self.pio_cap_gbps is not None:
            return self.pio_cap_gbps
        return 0.6 * self.raw_gbps

    @property
    def ends(self) -> tuple[int, int]:
        """The ``(src, dst)`` pair identifying this direction."""
        return (self.src, self.dst)

    def __str__(self) -> str:  # pragma: no cover - repr aid
        return (
            f"{self.src}->{self.dst} x{self.width_bits}@{self.gts}GT/s "
            f"({self.kind.value}, dma {self.dma_gbps:.1f} Gbps)"
        )


def link_pair(
    a: int,
    b: int,
    width_bits: int,
    gts: float,
    kind: LinkKind = LinkKind.HT,
    *,
    dma_credit: float = 1.0,
    dma_credit_rev: float | None = None,
    pio_cap_gbps: float | None = None,
    pio_cap_rev_gbps: float | None = None,
    pio_latency_s: float = 12.5 * NS,
) -> tuple[DirectedLink, DirectedLink]:
    """Build the two directions of one physical link.

    The ``*_rev`` parameters configure the ``b -> a`` direction; they
    default to the forward values.  This is the convenience constructor
    used by every machine builder — symmetric links are one call, and the
    deliberately asymmetric links of the reference host set the ``_rev``
    fields explicitly.
    """
    forward = DirectedLink(
        src=a,
        dst=b,
        width_bits=width_bits,
        gts=gts,
        kind=kind,
        dma_credit=dma_credit,
        pio_cap_gbps=pio_cap_gbps,
        pio_latency_s=pio_latency_s,
    )
    reverse = DirectedLink(
        src=b,
        dst=a,
        width_bits=width_bits,
        gts=gts,
        kind=kind,
        dma_credit=dma_credit if dma_credit_rev is None else dma_credit_rev,
        pio_cap_gbps=pio_cap_gbps if pio_cap_rev_gbps is None else pio_cap_rev_gbps,
        pio_latency_s=pio_latency_s,
    )
    return forward, reverse
