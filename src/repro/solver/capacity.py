"""Capacity-map construction and machine fingerprinting.

The single place that knows how a :class:`~repro.topology.machine.Machine`
turns into flow-solver resources: every DRAM controller (DMA + PIO
directions, from :mod:`repro.memory.controller`) plus every directed
DMA-plane link.  The engines used to each hand-roll this merge; now they
ask the session, which builds it once per topology.

Fingerprints come from the canonical serialized form
(:func:`repro.topology.serialize.machine_to_dict`), so any edit made
through :mod:`repro.topology.modify` — drop a link, change a credit,
swap a controller — yields a new fingerprint and therefore a fresh
session: stale capacity or routing answers cannot survive a topology
change.  Explicit routing overrides installed via
``machine.routing.set_route`` are folded into the fingerprint as well,
one installed after the fingerprint was first taken included.
"""

from __future__ import annotations

import hashlib
import json

from repro.memory.controller import controller_capacities
from repro.topology.machine import Machine
from repro.topology.serialize import machine_to_dict

__all__ = [
    "link_resource",
    "link_capacities",
    "build_capacities",
    "machine_fingerprint",
    "stamp_fingerprint",
]

_FINGERPRINT_ATTR = "_solver_fingerprint"


def link_resource(src: int, dst: int) -> str:
    """Stable flow-resource name for a directed fabric link (DMA plane)."""
    return f"link-dma:{src}>{dst}"


def link_capacities(machine: Machine) -> dict[str, float]:
    """DMA capacities of every directed link, keyed by resource name."""
    return {
        link_resource(src, dst): link.dma_gbps
        for (src, dst), link in machine.links.items()
    }


def build_capacities(machine: Machine) -> dict[str, float]:
    """The full fabric capacity map: controllers plus directed links."""
    return {**controller_capacities(machine), **link_capacities(machine)}


def machine_fingerprint(machine: Machine) -> str:
    """Stable topology fingerprint of ``machine``.

    Computed from the canonical serialized description plus any routing
    overrides, and cached on the machine object with its routing table's
    :attr:`~repro.routing.table.RoutingTable.revision`: the structure is
    immutable after construction (the what-if helpers in
    :mod:`repro.topology.modify` always return *new* machines, which get
    new fingerprints), but ``machine.routing.set_route`` replaces the
    revision, so the next call folds the new override in.
    """
    revision = machine.routing.revision
    cached = getattr(machine, _FINGERPRINT_ATTR, None)
    if cached is not None and cached[0] is revision:
        return cached[1]
    description = machine_to_dict(machine)
    overrides = getattr(machine.routing, "_overrides", None)
    if overrides:
        description["routing_overrides"] = sorted(
            (str(plane), src, dst, list(hops))
            for (plane, src, dst), hops in overrides.items()
        )
    blob = json.dumps(description, sort_keys=True, default=str)
    fingerprint = hashlib.sha1(blob.encode("utf-8")).hexdigest()
    stamp_fingerprint(machine, fingerprint)
    return fingerprint


def stamp_fingerprint(machine: Machine, fingerprint: str) -> None:
    """Cache ``fingerprint`` as ``machine``'s until its routing changes.

    A fabric worker stamps the fingerprint its task carried on the
    machine it rebuilt, so it never re-serializes that machine.
    """
    try:
        setattr(machine, _FINGERPRINT_ATTR, (machine.routing.revision, fingerprint))
    except AttributeError:  # pragma: no cover - exotic machine subclasses
        pass
