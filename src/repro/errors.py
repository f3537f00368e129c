"""Exception hierarchy for the :mod:`repro` package.

Every error raised on purpose by this library derives from
:class:`ReproError`, so callers can catch one type at an API boundary.
Sub-types mirror the major subsystems; they carry enough context in their
message to diagnose a mis-configured machine description or benchmark job
without a debugger.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class TopologyError(ReproError):
    """A machine description is inconsistent (unknown node, bad link, ...)."""


class RoutingError(ReproError):
    """No route exists for a requested (source, destination, plane) triple."""


class AllocationError(ReproError):
    """A memory allocation could not be satisfied under the active policy."""


class AffinityError(ReproError):
    """A CPU or memory binding request referenced an invalid resource."""


class SimulationError(ReproError):
    """The discrete-event engine or flow network reached an invalid state."""


class BenchmarkError(ReproError):
    """A benchmark job specification is invalid or a run failed."""


class ModelError(ReproError):
    """An I/O performance model is malformed or used inconsistently."""


class DeviceError(ReproError):
    """A PCIe device description or operation is invalid."""


class FaultError(ReproError):
    """A fault-injection plan is invalid or a fault cannot be applied."""


class ObsError(ReproError):
    """A telemetry recording, manifest, or trace is invalid or misused."""


class RouteLostError(FaultError):
    """A transfer's route vanished under faults and no alternative survives."""


class FabricError(ReproError):
    """A worker-fabric operation failed or is misused."""


class JournalError(ReproError):
    """A run journal is corrupt, incompatible, or misused.

    Raised when a journal record fails its CRC (the message names the
    record index), when a journal's run metadata does not match the
    resuming invocation, or when a file is not a run journal at all.
    A *torn tail* — the last record cut short by a crash mid-append —
    is not an error: resume truncates it and re-runs that unit.
    """


class ServiceError(ReproError):
    """A placement-advisory request failed with a typed, wire-safe error.

    Carries a machine-readable ``kind`` (one of the service protocol's
    error taxonomy, e.g. ``"invalid_params"``, ``"deadline_exceeded"``,
    ``"overloaded"``) plus optional structured ``data``; the service
    serialises these onto the wire instead of tracebacks.
    """

    def __init__(self, kind: str, message: str, data: dict | None = None) -> None:
        super().__init__(message)
        self.kind = kind
        self.data = dict(data) if data else {}
