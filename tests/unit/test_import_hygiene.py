"""Cold-path import hygiene: scipy stays out of every import path, and
the CLI module runs as `python -m` without a runpy warning."""

from __future__ import annotations

import os
import pathlib
import subprocess
import sys

import pytest

import repro

_SRC = str(pathlib.Path(repro.__file__).resolve().parents[1])


@pytest.mark.parametrize("module", ["repro.cli.main", "repro.devices", "repro.analysis"])
def test_fresh_import_loads_no_scipy(module):
    code = (
        f"import sys, {module}; "
        "print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    )
    path = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        timeout=120, env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_cli_module_runs_without_runpy_warning():
    # `python -m repro.cli.main` warns (and fails under -W error) when
    # importing the `repro.cli` package already loaded `repro.cli.main`.
    path = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning",
         "-m", "repro.cli.main", "--help"],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    assert "RuntimeWarning" not in proc.stderr


def test_fresh_cli_import_loads_no_numpy_random():
    # numpy loads numpy.random on first use; importing it up front costs
    # every CLI start ~15 ms and ~6 MB, so repro.rng defers it too.
    code = "import sys, repro.cli.main; print('numpy.random' in sys.modules)"
    path = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        timeout=120, env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
