"""Shared solver layer: cached capacities, cold max-min solves, stats.

Every bandwidth figure the library produces bottoms out in the same hot
path — build a capacity map, route flows, solve a max-min allocation,
integrate.  :class:`~repro.solver.session.SolverSession` owns that path
once for everyone:

* a **capacity cache** keyed by a machine-topology fingerprint (a new
  machine from :mod:`repro.topology.modify` gets a new fingerprint, so
  what-if copies never see stale capacities);
* one **max-min solve** (:func:`~repro.solver.incremental.maxmin_rates`)
  that validates a flow list and solves it cold with a scalar
  water-filling loop over signature groups (bit-identical to an array
  formulation on weight-1 problems, within 1e-9 of
  :func:`~repro.flows.maxmin.maxmin_allocate` on any), plus a sweep for
  weight-1 flows sharing one resource
  (:func:`~repro.solver.incremental.water_fill`, the same floats
  without flows);
* a **stats surface** (:class:`~repro.solver.stats.SolverStats`)
  counting solves, simulation events, capacity builds, path lookups
  and per-phase wall time, exposed on engine results and via
  ``repro-numa stats``.

Attribute access is lazy (PEP 562) so low-level modules — notably
:mod:`repro.flows.network` — can import :mod:`repro.solver.incremental`
without dragging in the session layer (which itself builds on the flow
network).
"""

from __future__ import annotations

__all__ = [
    "SolverSession",
    "SolverStats",
    "maxmin_rates",
    "water_fill",
    "get_session",
    "reset_sessions",
    "build_capacities",
    "machine_fingerprint",
    "link_resource",
    "link_capacities",
]

_LAZY = {
    "SolverSession": ("repro.solver.session", "SolverSession"),
    "get_session": ("repro.solver.session", "get_session"),
    "reset_sessions": ("repro.solver.session", "reset_sessions"),
    "SolverStats": ("repro.solver.stats", "SolverStats"),
    "maxmin_rates": ("repro.solver.incremental", "maxmin_rates"),
    "water_fill": ("repro.solver.incremental", "water_fill"),
    "build_capacities": ("repro.solver.capacity", "build_capacities"),
    "machine_fingerprint": ("repro.solver.capacity", "machine_fingerprint"),
    "link_resource": ("repro.solver.capacity", "link_resource"),
    "link_capacities": ("repro.solver.capacity", "link_capacities"),
}


def __getattr__(name: str):
    try:
        module_name, attr = _LAZY[name]
    except KeyError:
        raise AttributeError(f"module 'repro.solver' has no attribute {name!r}")
    import importlib

    value = getattr(importlib.import_module(module_name), attr)
    globals()[name] = value  # cache for subsequent lookups
    return value


def __dir__():
    return sorted(__all__)
