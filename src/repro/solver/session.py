"""The :class:`SolverSession`: one shared bandwidth-resolution context.

A session binds together, for one machine topology:

* the **capacity map** (controllers + DMA links), built once and served
  from cache until the topology changes (a modified machine has a new
  fingerprint, hence a new session — see :func:`get_session`);
* the **allocation cache** shared by every flow network the session
  hands out, so repeated max-min problems (simulation event loops,
  characterization sweeps, benchmark rounds) are solved once;
* memoized **path bandwidth** lookups (``dma_path_gbps`` /
  ``pio_stream_gbps``), the per-placement inner loop of every service
  model, kept under the routing revision they were computed at: after
  a ``machine.routing.set_route`` they are recomputed, never served
  stale;
* the **stats** recording what all of the above actually did.

Sessions can also be machine-less (``SolverSession()``): cluster-level
runners that assemble ad-hoc capacity maps still get the shared
allocation cache and instrumentation, just no machine-derived
capacities.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from typing import Iterable, Mapping

from repro.errors import SimulationError
from repro.flows.network import FlowNetwork, FlowOutcome
from repro.solver.capacity import build_capacities, machine_fingerprint
from repro.solver.incremental import AllocationCache
from repro.solver.stats import SolverStats

__all__ = ["SolverSession", "get_session", "reset_sessions"]

#: LRU bound on the process-wide session registry.
_MAX_SESSIONS = 32

_SESSIONS: OrderedDict[str, "SolverSession"] = OrderedDict()


class SolverSession:
    """Cached, instrumented bandwidth resolution for one topology.

    Parameters
    ----------
    machine:
        The host this session serves, or ``None`` for an ad-hoc session
        (shared cache + stats over caller-supplied capacity maps).
    cache_size:
        LRU bound on memoized allocation problems.
    """

    def __init__(self, machine=None, cache_size: int = 4096) -> None:
        self.machine = machine
        self.stats = SolverStats()
        self._alloc = AllocationCache(maxsize=cache_size, stats=self.stats)
        self._capacities: dict[str, float] | None = None
        self._dma_paths: dict[tuple[int, int], float] = {}
        self._pio_streams: dict[tuple[int, int, int | None], float] = {}
        #: The routing revision the path memos were filled under.
        self._revision = machine.routing.revision if machine is not None else None

    @property
    def fingerprint(self) -> str | None:
        """Topology fingerprint, or ``None`` for machine-less sessions."""
        return machine_fingerprint(self.machine) if self.machine is not None else None

    # --- capacities -------------------------------------------------------
    def _fabric_capacities(self) -> dict[str, float]:
        """The cached capacity map itself (not a copy — do not mutate)."""
        if self.machine is None:
            raise SimulationError(
                "this solver session has no machine; pass explicit capacities"
            )
        if self._capacities is None:
            with self.stats.phase("capacity"):
                self._capacities = build_capacities(self.machine)
            self.stats.capacity_builds += 1
        else:
            self.stats.capacity_hits += 1
        return self._capacities

    def capacities(self) -> dict[str, float]:
        """A copy of the machine's fabric capacity map (safe to extend)."""
        return dict(self._fabric_capacities())

    # --- allocation -------------------------------------------------------
    def rates(
        self, flows: Iterable, capacities: Mapping[str, float] | None = None
    ) -> dict[str, float]:
        """Instantaneous max-min rates through the session's cache.

        ``capacities`` defaults to the machine's fabric map.
        """
        caps = capacities if capacities is not None else self._fabric_capacities()
        with self.stats.phase("allocate"):
            return self._alloc.rates(flows, caps)

    def equal_shares(
        self,
        problems: Iterable[tuple[Iterable[str], float, int]],
        capacities: Mapping[str, float] | None = None,
    ) -> list[float]:
        """Per-flow rates of single-signature problems, in closed form.

        Each problem is ``(resources, demand_gbps, count)``: ``count``
        weight-1 flows that all cross ``resources`` and each want at
        most ``demand_gbps`` (the m copy threads of one Algorithm 1
        probe).  Such a problem is one signature group, so water-filling
        settles it in one round at ``min(demand, min_r cap_r / count)``
        — the float :meth:`rates` returns for every flow of the
        equivalent flow list, computed here without flows or the
        allocation cache.  The whole batch is one ``allocate`` phase and
        each problem counts one cold solve.  Results are in problem
        order.
        """
        caps = capacities if capacities is not None else self._fabric_capacities()
        shares = []
        with self.stats.phase("allocate"):
            for resources, demand_gbps, count in problems:
                shares.append(_equal_share(tuple(resources), demand_gbps, count, caps))
                self.stats.solves += 1
        return shares

    def network(self, capacities: Mapping[str, float] | None = None) -> FlowNetwork:
        """A :class:`FlowNetwork` sharing this session's cache and stats."""
        caps = capacities if capacities is not None else self._fabric_capacities()
        return FlowNetwork(caps, allocator=self._alloc, stats=self.stats)

    def simulate(
        self, flows: Iterable, capacities: Mapping[str, float] | None = None
    ) -> dict[str, FlowOutcome]:
        """Time-domain simulation through the session's cache."""
        network = self.network(capacities)
        with self.stats.phase("simulate"):
            return network.simulate(flows)

    # --- memoized path models ---------------------------------------------
    def _check_routing(self) -> None:
        """Drop every cached answer if the machine's routing moved since."""
        if self.machine is None:
            raise SimulationError("this solver session has no machine")
        revision = self.machine.routing.revision
        if revision is not self._revision:
            self.invalidate()
            self._revision = revision

    def dma_path_gbps(self, src: int, dst: int) -> float:
        """Memoized :meth:`Machine.dma_path_gbps`."""
        self._check_routing()
        key = (src, dst)
        value = self._dma_paths.get(key)
        if value is None:
            value = self.machine.dma_path_gbps(src, dst)
            self._dma_paths[key] = value
            self.stats.path_misses += 1
        else:
            self.stats.path_hits += 1
        return value

    def pio_stream_gbps(
        self, cpu_node: int, mem_node: int, threads: int | None = None
    ) -> float:
        """Memoized :meth:`Machine.pio_stream_gbps`."""
        self._check_routing()
        key = (cpu_node, mem_node, threads)
        value = self._pio_streams.get(key)
        if value is None:
            value = self.machine.pio_stream_gbps(cpu_node, mem_node, threads)
            self._pio_streams[key] = value
            self.stats.path_misses += 1
        else:
            self.stats.path_hits += 1
        return value

    # --- lifecycle --------------------------------------------------------
    def invalidate(self) -> None:
        """Drop every cached answer (capacities, allocations, paths).

        Also called on LRU eviction from the session registry and by
        :func:`reset_sessions`, so a caller still holding a dropped
        session gets cold answers from it, never warm ones.
        """
        self._capacities = None
        self._alloc.clear()
        self._dma_paths.clear()
        self._pio_streams.clear()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        name = self.machine.name if self.machine is not None else "<ad-hoc>"
        return (
            f"SolverSession({name!r}, solves={self.stats.solves}, "
            f"hit_rate={self.stats.hit_rate:.1%})"
        )


def _equal_share(
    resources: tuple[str, ...],
    demand_gbps: float,
    count: int,
    capacities: Mapping[str, float],
) -> float:
    """The rate water-filling gives each of ``count`` identical flows.

    The one-group case of the allocation cache's cold solve: every
    flow loads each of its resources equally, so the first round raises
    them all by ``min_r cap_r / count`` or to their demand, whichever is
    lower, and freezes the group.  Validates what
    :class:`~repro.flows.flow.Flow` and
    :meth:`~repro.solver.incremental.AllocationCache.rates` validate, in
    the same order.
    """
    if count < 1:
        raise SimulationError(f"need >= 1 flow per problem, got {count}")
    if demand_gbps <= 0:
        raise SimulationError("flow demand must be positive")
    if len(set(resources)) != len(resources):
        raise SimulationError(f"resources {resources} list a resource twice")
    for r in resources:
        if r not in capacities:
            raise SimulationError(f"unknown resource {r!r}")
    for r in sorted(resources):
        if capacities[r] <= 0:
            raise SimulationError(f"resource {r!r} has non-positive capacity")
    if not resources and math.isinf(demand_gbps):
        raise SimulationError(
            "unbounded allocation: elastic flow(s) traverse no resources"
        )
    share = float(demand_gbps)
    for r in resources:
        share = min(share, float(capacities[r]) / count)
    return share


def get_session(machine) -> SolverSession:
    """The process-wide session for ``machine``'s topology.

    Keyed by :func:`~repro.solver.capacity.machine_fingerprint`:
    structurally identical machines share one session; a machine edited
    through :mod:`repro.topology.modify` has a different fingerprint and
    gets a fresh session, so no caller ever sees stale capacities or
    routes after a what-if edit.  A routing override installed with
    ``set_route`` changes a machine's fingerprint too, so a registered
    session whose machine no longer has its key's fingerprint is
    replaced on that key's next lookup.
    """
    fingerprint = machine_fingerprint(machine)
    session = _SESSIONS.get(fingerprint)
    if session is not None and machine_fingerprint(session.machine) != fingerprint:
        del _SESSIONS[fingerprint]
        session = None
    if session is None:
        session = SolverSession(machine)
        _SESSIONS[fingerprint] = session
        while len(_SESSIONS) > _MAX_SESSIONS:
            _fp, evicted = _SESSIONS.popitem(last=False)
            evicted.invalidate()
    else:
        _SESSIONS.move_to_end(fingerprint)
    return session


def reset_sessions() -> None:
    """Drop every registered session (tests / CLI isolation).

    Each one is invalidated on the way out, so a session a caller still
    holds goes cold with the rest.
    """
    while _SESSIONS:
        _fp, session = _SESSIONS.popitem(last=False)
        session.invalidate()
