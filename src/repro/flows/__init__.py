"""Flow-level bandwidth sharing.

All contention in the simulator — streams sharing a NIC, copy threads
sharing a memory controller, DMA traffic sharing an HT link — reduces to
*max-min fair* sharing of capacitated resources, the standard flow-level
abstraction for long-lived bulk transfers.

:func:`~repro.flows.maxmin.maxmin_allocate` solves one allocation (the
reference that :func:`~repro.solver.incremental.maxmin_rates`, the
solve every product path uses, is tested against);
:class:`~repro.flows.network.FlowNetwork` advances a set of finite-size
flows through time, recomputing the allocation at every arrival or
completion, and reports per-flow completion times and average bandwidth
— exactly the quantity ``fio`` reports for the paper's 400-GB streams.
It runs on :class:`~repro.flows.network.FlowLoop`, the event loop that
the fault runner shares with its own step hook; every run reports
:class:`~repro.flows.network.FlowOutcome`.  The fio engine's size-based
jobs (:func:`~repro.flows.network.shared_finish`) and the online
simulator run the same arithmetic as list loops of their own.
"""

from repro.flows.flow import Flow
from repro.flows.maxmin import maxmin_allocate
from repro.flows.network import FlowLoop, FlowNetwork, FlowOutcome

__all__ = ["Flow", "maxmin_allocate", "FlowLoop", "FlowNetwork", "FlowOutcome"]
