"""The :class:`SolverSession`: one shared bandwidth-resolution context.

A session binds together, for one machine topology:

* the **capacity map** (controllers + DMA links), built once and served
  from cache until the topology changes (a modified machine has a new
  fingerprint, hence a new session — see :func:`get_session`);
* the **max-min allocation** behind every flow network the session
  hands out: each problem is one cold
  :func:`~repro.solver.incremental.maxmin_rates` solve, counted in the
  session's stats;
* memoized **path bandwidth** lookups (``dma_path_gbps`` /
  ``pio_stream_gbps``), the per-placement inner loop of every service
  model, kept under the routing revision they were computed at: after
  a ``machine.routing.set_route`` they are recomputed, never served
  stale;
* the **stats** recording what all of the above actually did.

Sessions can also be machine-less (``SolverSession()``): cluster-level
runners that assemble ad-hoc capacity maps still get the solver and
its instrumentation, just no machine-derived capacities.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Iterable, Mapping

from repro.errors import SimulationError
from repro.flows.network import FlowNetwork, FlowOutcome
from repro.solver.capacity import build_capacities, machine_fingerprint
from repro.solver.incremental import maxmin_rates
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
        (the solver + stats over caller-supplied capacity maps).
    """

    def __init__(self, machine=None) -> None:
        self.machine = machine
        self.stats = SolverStats()
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
        """Instantaneous max-min rates: one cold solve, one ``allocate`` phase.

        ``capacities`` defaults to the machine's fabric map.
        """
        caps = capacities if capacities is not None else self._fabric_capacities()
        with self.stats.phase("allocate"):
            return maxmin_rates(flows, caps, self.stats)

    def network(self, capacities: Mapping[str, float] | None = None) -> FlowNetwork:
        """A :class:`FlowNetwork` counting into this session's stats."""
        caps = capacities if capacities is not None else self._fabric_capacities()
        return FlowNetwork(caps, stats=self.stats)

    def simulate(
        self, flows: Iterable, capacities: Mapping[str, float] | None = None
    ) -> dict[str, FlowOutcome]:
        """Time-domain simulation on :meth:`network`, one ``simulate`` phase."""
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
        """Drop every cached answer (capacities, paths).

        Also called on LRU eviction from the session registry and by
        :func:`reset_sessions`, so a caller still holding a dropped
        session gets cold answers from it, never warm ones.
        """
        self._capacities = None
        self._dma_paths.clear()
        self._pio_streams.clear()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        name = self.machine.name if self.machine is not None else "<ad-hoc>"
        return f"SolverSession({name!r}, solves={self.stats.solves})"


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
