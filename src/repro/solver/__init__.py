"""Shared solver layer: cached capacities, memoized max-min, stats.

Every bandwidth figure the library produces bottoms out in the same hot
path — build a capacity map, route flows, solve a max-min allocation,
integrate.  :class:`~repro.solver.session.SolverSession` owns that path
once for everyone:

* a **capacity cache** keyed by a machine-topology fingerprint (a new
  machine from :mod:`repro.topology.modify` gets a new fingerprint, so
  what-if copies never see stale capacities);
* an **incremental max-min solver**
  (:class:`~repro.solver.incremental.AllocationCache`) that memoizes
  allocations by the active-flow *multiset* and solves cold cases with a
  scalar water-filling loop over signature groups (bit-identical to an
  array formulation on weight-1 problems, within 1e-9 of
  :func:`~repro.flows.maxmin.maxmin_allocate` on any), plus a closed
  form for problems that are one group of identical flows
  (:meth:`~repro.solver.session.SolverSession.equal_shares`) and a
  sweep for weight-1 flows sharing one resource
  (:func:`~repro.solver.incremental.water_fill`, the same floats as the
  cold solve without a cache lookup);
* a **stats surface** (:class:`~repro.solver.stats.SolverStats`)
  counting solves, cache hits/misses, simulation events and per-phase
  wall time, exposed on engine results and via ``repro-numa stats``.

Attribute access is lazy (PEP 562) so low-level modules — notably
:mod:`repro.flows.network` — can import :mod:`repro.solver.incremental`
without dragging in the session layer (which itself builds on the flow
network).
"""

from __future__ import annotations

__all__ = [
    "SolverSession",
    "SolverStats",
    "AllocationCache",
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
    "AllocationCache": ("repro.solver.incremental", "AllocationCache"),
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
