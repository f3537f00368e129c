"""Benchmark harness configuration.

Each benchmark regenerates one paper artifact via the experiment
registry, asserts its shape checks, and prints the paper-vs-measured
rows (captured into bench_output.txt / EXPERIMENTS.md).  Experiments
are deterministic but not cheap, so every benchmark runs ``pedantic``
with one round.
"""

from __future__ import annotations

import pathlib
import sys

import pytest

from repro.experiments import run_experiment

# The repository root, so the suites share one per-test budget shim.
_ROOT = str(pathlib.Path(__file__).resolve().parent.parent)
if _ROOT not in sys.path:
    sys.path.insert(0, _ROOT)

# The per-test budget (``timeout`` in pyproject.toml) without pytest-timeout.
from tests.timeout_fallback import pytest_addoption, pytest_runtest_call  # noqa: E402,F401


@pytest.fixture()
def run_paper_experiment(benchmark):
    """Benchmark one experiment id and enforce its checks."""

    def _run(exp_id: str):
        result = benchmark.pedantic(
            lambda: run_experiment(exp_id), rounds=1, iterations=1, warmup_rounds=0
        )
        print()
        print(result.render())
        failed = result.failed_checks()
        assert not failed, "\n".join(c.render() for c in failed)
        return result

    return _run
