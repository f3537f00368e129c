"""Execution-layer faults: crashes of the run itself, not of the host.

The taxonomy in :mod:`repro.faults.events` models what goes wrong *on*
the simulated NUMA host (links, controllers, devices).  This module
models what goes wrong *around* the run: the driver process dies
mid-append, a journal record is cut in half on disk, a pool worker
stalls.  These faults have no capacity footprint — they are injected
through the environment of the process under test, and the
crash-recovery soak (``repro-numa recover``,
``scripts/recovery_smoke.sh``) uses them to prove the journal's resume
contract holds at seeded, reproducible kill points.

Each fault's :meth:`~ExecutionFault.env` returns the ``(name, value)``
environment pair that arms it:

* :class:`CrashPoint` — SIGKILL immediately **after** the Nth journal
  data record is fully written and fsynced (the unit is durable; resume
  must skip it);
* :class:`TornWrite` — SIGKILL **halfway through** writing the Nth data
  record (the tail is torn; resume must truncate and re-run the unit);
* :class:`WorkerStall` — a fabric pool worker sleeps before its first
  task, modelling a wedged worker that the pool's lost-shard retry and
  the journal's unit granularity must absorb.

A run killed at a crash point cannot shut its fabric pool down, so its
workers and their resource tracker outlive it;
:func:`reap_process_group` cleans them up after the drill.
"""

from __future__ import annotations

import os
import signal
import time
from dataclasses import dataclass

from repro.errors import FaultError
from repro.faults.events import Fault
from repro.journal.store import CRASH_ENV

__all__ = [
    "ExecutionFault",
    "CrashPoint",
    "TornWrite",
    "WorkerStall",
    "STALL_ENV",
    "reap_process_group",
]

#: Environment variable armed by :class:`WorkerStall`; read by
#: ``repro.fabric.pool`` workers (kept as a literal there so importing
#: the pool does not pull in the fault taxonomy).
STALL_ENV = "REPRO_FABRIC_STALL"


@dataclass(frozen=True)
class ExecutionFault(Fault):
    """Base class for faults injected into the run's own processes."""

    kind = "execution"

    def capacity_factors(self) -> dict[str, float]:
        raise FaultError(
            f"{self.kind} is an execution-layer fault; it has no capacity "
            "footprint — arm it through the environment via env()"
        )

    def env(self) -> tuple[str, str]:
        """The ``(variable, value)`` pair that arms this fault."""
        raise NotImplementedError


def _check_record(record: int, what: str) -> None:
    if record < 1:
        raise FaultError(f"{what} record index must be >= 1, got {record!r}")


@dataclass(frozen=True)
class CrashPoint(ExecutionFault):
    """SIGKILL the run right after journal data record ``record`` lands.

    The record is complete and fsynced when the process dies, so resume
    must find it intact, skip its unit, and re-run only the rest.
    """

    record: int

    kind = "crash-point"

    def __post_init__(self) -> None:
        _check_record(self.record, "crash point")

    def env(self) -> tuple[str, str]:
        return CRASH_ENV, str(self.record)

    def describe(self) -> str:
        return f"crash@{self.record}"


@dataclass(frozen=True)
class TornWrite(ExecutionFault):
    """SIGKILL the run halfway through writing data record ``record``.

    The journal tail is left torn — a record header or payload cut
    short — which resume must detect, truncate, and re-run, never
    mistaking it for corruption of a complete record.
    """

    record: int

    kind = "torn-write"

    def __post_init__(self) -> None:
        _check_record(self.record, "torn write")

    def env(self) -> tuple[str, str]:
        return CRASH_ENV, f"{self.record}:torn"

    def describe(self) -> str:
        return f"torn@{self.record}"


@dataclass(frozen=True)
class WorkerStall(ExecutionFault):
    """A fabric pool worker sleeps ``seconds`` before its first task.

    Models a wedged worker (page-cache stall, NUMA balancing hiccup):
    results still arrive, late, and journaled runs must remain
    byte-identical because completion order never affects merge order.
    """

    seconds: float

    kind = "worker-stall"

    def __post_init__(self) -> None:
        if not 0.0 < self.seconds <= 60.0:
            raise FaultError(
                f"worker stall must be in (0, 60] seconds, got {self.seconds!r}"
            )

    def env(self) -> tuple[str, str]:
        return STALL_ENV, f"{self.seconds:g}"

    def describe(self) -> str:
        return f"stall:{self.seconds:g}s"


def _group_members(pgid: int) -> list[int]:
    """Live (non-zombie) processes whose process group is ``pgid``."""
    try:
        entries = os.listdir("/proc")
    except OSError:  # pragma: no cover - no procfs to confirm the SIGKILL
        return []
    members = []
    for entry in entries:
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii") as stat:
                fields = stat.read().rsplit(")", 1)[1].split()
        except OSError:  # exited while we looked
            continue
        if fields[0] != "Z" and int(fields[2]) == pgid:
            members.append(int(entry))
    return members


def reap_process_group(pgid: int, timeout_s: float = 10.0) -> list[int]:
    """SIGKILL process group ``pgid`` and wait until no member is alive.

    Start a crash run with ``start_new_session=True`` so its process
    group (whose id is the run's pid) holds the pool workers and
    resource tracker it leaves behind, then call this once the run has
    exited.  Returns the pids still alive after ``timeout_s`` seconds:
    empty when the group is gone.  Zombies count as gone.
    """
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return []
    deadline = time.monotonic() + timeout_s
    while (members := _group_members(pgid)) and time.monotonic() < deadline:
        time.sleep(0.05)
    return members
