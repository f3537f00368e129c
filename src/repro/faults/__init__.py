"""Fault injection: declarative fault plans, degraded-mode solving, chaos.

The package has three layers:

* :mod:`repro.faults.events` — the fault taxonomy (link degradation and
  failure, memory-controller throttling, NIC port flaps, SSD wear, IRQ
  storms) and the timed :class:`FaultEvent` wrapper;
* :mod:`repro.faults.plan` — :class:`FaultPlan` (the schedule) and
  :class:`FaultedMachine` (the static what-if view with its own solver
  fingerprint);
* :mod:`repro.faults.degraded` — degraded-mode flow simulation: step
  hooks on the one :class:`~repro.flows.network.FlowLoop` that re-route,
  park for a seeded-backoff retry, or fail structurally, each flow
  reporting a :class:`~repro.flows.network.FlowOutcome`;
* :mod:`repro.faults.chaos` — the seeded chaos scenarios behind the
  ``repro-numa chaos`` CLI and their resilience report;
* :mod:`repro.faults.execution` — execution-layer faults (crash points,
  torn journal writes, stalled workers) armed through the environment
  and exercised by the ``repro-numa recover`` soak.
"""

from repro.faults.chaos import (
    SCENARIOS,
    ChaosReport,
    OutcomeRow,
    ScenarioResult,
    run_chaos,
    run_scenario,
)
from repro.faults.degraded import (
    DegradedFlowRunner,
    RetryPolicy,
    machine_rerouter,
    reroute_resources,
)
from repro.faults.execution import (
    STALL_ENV,
    CrashPoint,
    ExecutionFault,
    TornWrite,
    WorkerStall,
    reap_process_group,
)
from repro.faults.events import (
    Fault,
    FaultEvent,
    IrqStorm,
    LinkDegrade,
    LinkFail,
    MemoryThrottle,
    NicPortFlap,
    SsdWearThrottle,
)
from repro.faults.plan import FaultedMachine, FaultPlan

__all__ = [
    "Fault",
    "FaultEvent",
    "LinkDegrade",
    "LinkFail",
    "MemoryThrottle",
    "IrqStorm",
    "NicPortFlap",
    "SsdWearThrottle",
    "ExecutionFault",
    "CrashPoint",
    "TornWrite",
    "WorkerStall",
    "STALL_ENV",
    "reap_process_group",
    "FaultPlan",
    "FaultedMachine",
    "RetryPolicy",
    "DegradedFlowRunner",
    "reroute_resources",
    "machine_rerouter",
    "OutcomeRow",
    "ScenarioResult",
    "ChaosReport",
    "SCENARIOS",
    "run_scenario",
    "run_chaos",
]
