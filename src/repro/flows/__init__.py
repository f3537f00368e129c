"""Flow-level bandwidth sharing.

All contention in the simulator — streams sharing a NIC, copy threads
sharing a memory controller, DMA traffic sharing an HT link — reduces to
*max-min fair* sharing of capacitated resources, the standard flow-level
abstraction for long-lived bulk transfers.

:func:`~repro.flows.maxmin.maxmin_allocate` solves one allocation;
:class:`~repro.flows.network.FlowNetwork` advances a set of finite-size
flows through time, recomputing the allocation at every arrival or
completion, and reports per-flow completion times and average bandwidth
— exactly the quantity ``fio`` reports for the paper's 400-GB streams.
It runs on :class:`~repro.flows.network.FlowLoop`, the one event loop
that the fault runner and the online simulator share too, each with its
own step hook; every run reports :class:`~repro.flows.network.FlowOutcome`.
"""

from repro.flows.flow import Flow
from repro.flows.maxmin import maxmin_allocate
from repro.flows.network import FlowLoop, FlowNetwork, FlowOutcome

__all__ = ["Flow", "maxmin_allocate", "FlowLoop", "FlowNetwork", "FlowOutcome"]
