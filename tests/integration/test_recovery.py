"""SIGKILL-mid-sweep recovery: resumed runs are byte-identical.

These tests arm the journal's seeded crash points
(:data:`repro.journal.CRASH_ENV`) in a subprocess running the real CLI,
kill it mid-sweep, resume with ``--resume``, and assert the resumed
stdout matches an uninterrupted golden run byte for byte — plus no
leaked ``/dev/shm`` arena segments.  The full randomized soak lives in
``repro-numa recover`` / ``scripts/recovery_smoke.sh``; this is the
fast deterministic slice of it that runs under pytest.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time

import pytest

from repro.journal import CRASH_ENV, JOURNAL_FILENAME, scan_journal

pytestmark = [pytest.mark.recovery, pytest.mark.fabric]

ARGS = [
    "--machine", "reference", "--seed", "123",
    "iomodel", "--targets", "0,1,2", "--mode", "write",
    "--runs", "2", "--jobs", "2",
]


def _group_members(pgid):
    """Live (non-zombie) processes whose process group is ``pgid``."""
    members = []
    for entry in os.listdir("/proc"):
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


def _reap_group(pgid, timeout_s=10.0):
    """SIGKILL what is left of a crashed run's process group.

    A SIGKILLed parent leaves its pool workers and resource tracker
    behind; they share the group the crash run was started in.
    """
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return []
    deadline = time.monotonic() + timeout_s
    while (members := _group_members(pgid)) and time.monotonic() < deadline:
        time.sleep(0.05)
    return members


def _run(extra, env=None, expect_kill=False):
    base = {k: v for k, v in os.environ.items() if k != CRASH_ENV}
    base.update(env or {})
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.cli.main"] + ARGS + extra,
        # A SIGKILLed parent leaves pool workers holding the stdout
        # pipe, so capturing a crash run's output could block on EOF.
        stdout=subprocess.DEVNULL if expect_kill else subprocess.PIPE,
        stderr=subprocess.DEVNULL if expect_kill else subprocess.PIPE,
        env=base,
        # A crash run gets its own session, so its orphans can be reaped
        # as one process group (whose id is the child's pid).
        start_new_session=expect_kill,
    )
    try:
        stdout, stderr = proc.communicate(timeout=120)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        survivors = _reap_group(proc.pid) if expect_kill else []
    assert survivors == []
    return subprocess.CompletedProcess(proc.args, proc.returncode, stdout, stderr)


def _live_segments():
    from repro.fabric.arena import live_segments, reap_orphans

    reap_orphans(max_age_s=0.0)
    return live_segments()


@pytest.mark.parametrize("crash_spec", ["2", "2:torn"])
def test_sigkill_mid_sweep_resumes_byte_identical(tmp_path, crash_spec):
    golden = _run([])
    assert golden.returncode == 0, golden.stderr.decode()

    run_dir = tmp_path / "run"
    crashed = _run(["--resume", str(run_dir)],
                   env={CRASH_ENV: crash_spec}, expect_kill=True)
    assert crashed.returncode != 0  # SIGKILL fired mid-sweep

    records, _, torn = scan_journal(run_dir / JOURNAL_FILENAME)
    torn_mode = crash_spec.endswith(":torn")
    assert torn == torn_mode
    # Plain crash lands right after record 2 (meta + 2 units); torn mode
    # cuts record 2 in half, leaving meta + 1 complete unit.
    assert len(records) == (2 if torn_mode else 3)

    resumed = _run(["--resume", str(run_dir)])
    assert resumed.returncode == 0, resumed.stderr.decode()
    assert resumed.stdout == golden.stdout
    notes = resumed.stderr.decode()
    assert "unit(s) already completed" in notes
    if torn_mode:
        assert "truncated a torn tail" in notes

    assert _live_segments() == []  # nothing leaked by the crash


def test_resume_of_complete_run_recomputes_nothing(tmp_path):
    run_dir = tmp_path / "run"
    first = _run(["--resume", str(run_dir)])
    assert first.returncode == 0, first.stderr.decode()

    again = _run(["--resume", str(run_dir)])
    assert again.returncode == 0
    assert again.stdout == first.stdout
    assert "3/3 unit(s) already completed" in again.stderr.decode()

    # The journal gained no records the second time around.
    records, _, torn = scan_journal(run_dir / JOURNAL_FILENAME)
    assert not torn and len(records) == 4
    assert _live_segments() == []
