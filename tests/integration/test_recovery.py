"""SIGKILL-mid-sweep recovery: resumed runs are byte-identical.

These tests arm the journal's seeded crash points
(:data:`repro.journal.CRASH_ENV`) in a subprocess running the real CLI,
kill it mid-sweep, resume with ``--resume``, and assert the resumed
stdout matches an uninterrupted golden run byte for byte.  The full
randomized soak lives in
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

from repro.faults.execution import reap_process_group
from repro.journal import CRASH_ENV, JOURNAL_FILENAME, scan_journal

pytestmark = [pytest.mark.recovery, pytest.mark.fabric]

ARGS = [
    "--machine", "reference", "--seed", "123",
    "iomodel", "--targets", "0,1,2", "--mode", "write",
    "--runs", "2", "--jobs", "2",
]


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
        survivors = reap_process_group(proc.pid) if expect_kill else []
    assert survivors == []
    return subprocess.CompletedProcess(proc.args, proc.returncode, stdout, stderr)


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


def _tagged_processes(name, value):
    """Live (non-zombie) processes whose environment holds ``name=value``.

    Children inherit the environment, so a variable set on one process
    marks every process it starts, whatever session or group they move to.
    """
    needle = f"{name}={value}".encode()
    pids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/environ", "rb") as environ:
                variables = environ.read().split(b"\0")
            with open(f"/proc/{entry}/stat", encoding="ascii") as stat:
                state = stat.read().rsplit(")", 1)[1].split()[0]
        except OSError:  # exited while we looked, or not ours to read
            continue
        if state != "Z" and needle in variables:
            pids.append(int(entry))
    return pids


def test_recover_soak_leaves_no_process_behind():
    """Every process the soak starts is gone once it reports.

    Each crash trial SIGKILLs a ``--jobs 2`` run, whose pool workers and
    resource tracker would otherwise outlive the soak, reparented to init.
    """
    tag_name = "REPRO_TEST_SOAK_TAG"
    tag = f"{os.getpid()}-{time.monotonic_ns()}"
    env = {k: v for k, v in os.environ.items() if k != CRASH_ENV}
    env[tag_name] = tag
    try:
        soak = subprocess.run(
            [sys.executable, "-m", "repro.cli.main", "--seed", "123",
             "recover", "--workload", "iomodel", "--trials", "1",
             "--runs", "2", "--jobs", "2"],
            capture_output=True, env=env, timeout=120,
        )
        assert soak.returncode == 0, soak.stdout.decode()
        assert "recovery soak passed" in soak.stdout.decode()
        # Normal exits are asynchronous (a resource tracker leaves when
        # its pipe closes), so give them a moment; orphans never leave.
        deadline = time.monotonic() + 5.0
        while (alive := _tagged_processes(tag_name, tag)) and (
            time.monotonic() < deadline
        ):
            time.sleep(0.05)
        assert alive == []
    finally:
        for pid in _tagged_processes(tag_name, tag):
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass


_POOL_THEN_SIGKILL = """
import multiprocessing, os, signal
from repro.fabric import FabricPool
from repro.topology.builders import reference_host

pool = FabricPool(jobs=2)
pool.characterize_many(reference_host(), (0, 7), runs=2)
print(" ".join(str(p.pid) for p in multiprocessing.active_children()), flush=True)
os.kill(os.getpid(), signal.SIGKILL)
"""


def test_pool_workers_exit_with_a_sigkilled_parent(tmp_path):
    """A parent that dies without closing its pool takes the workers along."""
    tag_name = "REPRO_TEST_POOL_TAG"
    tag = f"{os.getpid()}-{time.monotonic_ns()}"
    env = {k: v for k, v in os.environ.items() if k != CRASH_ENV}
    env[tag_name] = tag
    pids_file = tmp_path / "worker_pids.txt"
    try:
        # Output goes to a file: a pipe would stay open while workers live.
        with open(pids_file, "w") as out:
            parent = subprocess.run(
                [sys.executable, "-c", _POOL_THEN_SIGKILL],
                stdout=out, stderr=subprocess.DEVNULL, env=env, timeout=120,
            )
        assert parent.returncode == -signal.SIGKILL
        workers = [int(pid) for pid in pids_file.read_text().split()]
        assert len(workers) == 2
        deadline = time.monotonic() + 5.0
        while (alive := [
            pid for pid in _tagged_processes(tag_name, tag) if pid in workers
        ]) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert alive == []
    finally:
        for pid in _tagged_processes(tag_name, tag):
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
