"""The machine hand-off: how a pool worker gets the machine its task names.

Every sweep task carries :func:`machine_ref` — the machine's solver
fingerprint plus its canonical serialized description — and the worker
rebuilds the machine with :func:`resolve_machine`, once per fingerprint:
the last few rebuilt machines stay in a per-worker LRU, so a persistent
pool sweeping one host rebuilds it once per worker, and everything a
worker derives from the machine (capacities, hop matrix, routes) is
computed there on first use.

Routing overrides are rejected: they are not part of the canonical
serialized form, so a worker could not reproduce the parent's routes.

The module keeps its name because perfbench's tracer lists
``repro.fabric.arena`` among the modules of its ``fabric`` layer.
"""

from __future__ import annotations

from collections import OrderedDict

from repro.errors import FabricError
from repro.solver.capacity import machine_fingerprint, stamp_fingerprint
from repro.topology.machine import Machine
from repro.topology.serialize import machine_from_dict, machine_to_dict

__all__ = ["machine_ref", "resolve_machine"]

#: Worker-side LRU bound on rebuilt machines.
_WORKER_MACHINE_LIMIT = 16

#: Worker-side machine cache (fingerprint -> machine), one per process.
_WORKER_MACHINES: "OrderedDict[str, Machine]" = OrderedDict()


def machine_ref(machine: Machine) -> dict:
    """The task-side handle for ``machine``: its fingerprint and its
    serialized description.

    Raises :class:`~repro.errors.FabricError` for a machine with routing
    overrides, which the serialized form cannot carry.
    """
    if getattr(machine.routing, "_overrides", None):
        raise FabricError(
            f"machine {machine.name!r} has routing overrides; the "
            f"fabric cannot reproduce them in workers — run serially"
        )
    return {
        "fingerprint": machine_fingerprint(machine),
        "machine": machine_to_dict(machine),
    }


def resolve_machine(ref: dict) -> Machine:
    """The worker's machine for one :func:`machine_ref`.

    Rebuilt from the description the first time a fingerprint arrives,
    stamped with that fingerprint (so the worker never re-serializes it
    to key its solver session), and served from the LRU after that.
    """
    fingerprint = ref["fingerprint"]
    machine = _WORKER_MACHINES.get(fingerprint)
    if machine is not None:
        _WORKER_MACHINES.move_to_end(fingerprint)
        return machine
    machine = machine_from_dict(ref["machine"])
    stamp_fingerprint(machine, fingerprint)
    _WORKER_MACHINES[fingerprint] = machine
    while len(_WORKER_MACHINES) > _WORKER_MACHINE_LIMIT:
        _WORKER_MACHINES.popitem(last=False)
    return machine
