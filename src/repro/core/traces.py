"""Workload traces: record and replay stream arrival processes.

An :class:`~repro.core.migration.OnlineWorkload` draws a synthetic
arrival process; production users have *real* ones (job logs, transfer
queues).  Traces put both through the same door: JSON-lines files of
``(name, arrival_s, size_bytes, direction)`` that any source can write
and :class:`~repro.core.migration.OnlineSimulator` can replay — so
policies are compared on identical, versionable workloads.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterable

from repro.core.migration import StreamJob
from repro.errors import ModelError

__all__ = ["save_trace", "load_trace"]

_FORMAT_VERSION = 1


def save_trace(jobs: Iterable[StreamJob], path: str | Path) -> int:
    """Write jobs as a JSON-lines trace; returns the number written."""
    jobs = list(jobs)
    if not jobs:
        raise ModelError("refusing to write an empty trace")
    lines = [
        json.dumps({"format_version": _FORMAT_VERSION, "streams": len(jobs)})
    ]
    lines.extend(
        json.dumps(
            {
                "name": job.name,
                "arrival_s": job.arrival_s,
                "size_bytes": job.size_bytes,
                "direction": job.direction,
            },
            sort_keys=True,
        )
        for job in jobs
    )
    # Atomic so a crashed exporter never leaves a half-written trace
    # that a later run would happily replay truncated.
    from repro.journal.atomic import atomic_write_text

    atomic_write_text(Path(path), "\n".join(lines) + "\n")
    return len(jobs)


def load_trace(path: str | Path) -> list[StreamJob]:
    """Read a trace written by :func:`save_trace` (or by any log
    exporter emitting the same fields).

    The header must be a JSON object of the supported format; when it
    declares a ``streams`` count, the trace must hold that many stream
    lines, so a truncated export is refused rather than replayed.
    """
    source = Path(path)
    if not source.exists():
        raise ModelError(f"no trace at {source}")
    jobs: list[StreamJob] = []
    with source.open("r", encoding="utf-8") as handle:
        header_line = handle.readline()
        try:
            header = json.loads(header_line)
        except json.JSONDecodeError as exc:
            raise ModelError(f"malformed trace header: {exc}") from exc
        if not isinstance(header, dict):
            raise ModelError(
                f"malformed trace header: expected a JSON object, got "
                f"{type(header).__name__}"
            )
        if header.get("format_version") != _FORMAT_VERSION:
            raise ModelError(
                f"unsupported trace format {header.get('format_version')!r}"
            )
        for lineno, line in enumerate(handle, start=2):
            line = line.strip()
            if not line:
                continue
            try:
                data = json.loads(line)
                jobs.append(
                    StreamJob(
                        name=str(data["name"]),
                        arrival_s=float(data["arrival_s"]),
                        size_bytes=float(data["size_bytes"]),
                        direction=str(data.get("direction", "write")),
                    )
                )
            except (KeyError, TypeError, ValueError, ModelError) as exc:
                raise ModelError(
                    f"malformed trace line {lineno} in {source}: {exc}"
                ) from exc
    if not jobs:
        raise ModelError(f"trace {source} contains no streams")
    if "streams" in header and header["streams"] != len(jobs):
        raise ModelError(
            f"trace {source} header declares {header['streams']!r} streams "
            f"but holds {len(jobs)}"
        )
    names = [j.name for j in jobs]
    if len(set(names)) != len(names):
        raise ModelError(f"trace {source} has duplicate stream names")
    return jobs
