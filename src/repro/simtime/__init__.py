"""A small discrete-event simulation core.

The OS noise model's per-node daemons
(:class:`~repro.osmodel.noise.OsNoiseDaemons`) run on this clock; they are
the package's only user.  The flow-level network model (:mod:`repro.flows`)
and the device engines keep their own piecewise-constant time between
rate-change events (a flow starting or finishing) and do not use it.

Public API
----------
:class:`~repro.simtime.engine.Simulator`
    The clock plus event queue; ``schedule`` callbacks, ``run`` until idle
    or a deadline.
:class:`~repro.simtime.event_queue.EventQueue`
    A deterministic priority queue of timestamped events (stable FIFO order
    for simultaneous events).
:class:`~repro.simtime.process.SimProcess`
    Generator-based cooperative process helper on top of the simulator.
"""

from repro.simtime.engine import Simulator
from repro.simtime.event_queue import Event, EventQueue
from repro.simtime.process import SimProcess, Timeout

__all__ = ["Simulator", "Event", "EventQueue", "SimProcess", "Timeout"]
