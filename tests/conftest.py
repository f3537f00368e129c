"""Shared fixtures.

The reference host is immutable after construction and the RNG registry
is stateless, so both are session-scoped; anything that mutates state
(allocators, schedulers, runners with shared allocators) is built fresh
per test.
"""

from __future__ import annotations

import signal
import threading

import pytest

from repro.bench.fio import FioRunner
from repro.rng import RngRegistry
from repro.topology.builders import magny_cours_4p, parametric_machine, reference_host

try:  # pragma: no cover - depends on the environment
    import pytest_timeout  # noqa: F401

    _HAVE_PYTEST_TIMEOUT = True
except ModuleNotFoundError:  # pragma: no cover - depends on the environment
    _HAVE_PYTEST_TIMEOUT = False


def pytest_addoption(parser):
    # pytest-timeout owns the ``timeout`` ini option when installed; this
    # registers it otherwise so pyproject.toml's ``timeout = 120`` is
    # honoured (by the SIGALRM fallback below) instead of warned about.
    if not _HAVE_PYTEST_TIMEOUT:
        parser.addini(
            "timeout",
            "per-test wall-clock budget in seconds (fallback shim)",
            default="0",
        )


if not _HAVE_PYTEST_TIMEOUT and hasattr(signal, "SIGALRM"):

    @pytest.hookimpl(hookwrapper=True)
    def pytest_runtest_call(item):
        try:
            budget = float(item.config.getini("timeout") or 0)
        except (TypeError, ValueError):
            budget = 0.0
        if budget <= 0 or threading.current_thread() is not threading.main_thread():
            yield
            return

        def _alarm(signum, frame):
            raise TimeoutError(
                f"{item.nodeid} exceeded the {budget:g}s wall-clock budget"
            )

        old = signal.signal(signal.SIGALRM, _alarm)
        signal.setitimer(signal.ITIMER_REAL, budget)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, old)


def _sigkill_available() -> bool:
    """Probe for real SIGKILL delivery (the ``recovery`` marker)."""
    return hasattr(signal, "SIGKILL")


def pytest_collection_modifyitems(config, items):
    if any(item.get_closest_marker("recovery") for item in items):
        if not _sigkill_available():
            skip = pytest.mark.skip(
                reason="SIGKILL unavailable on this platform"
            )
            for item in items:
                if item.get_closest_marker("recovery"):
                    item.add_marker(skip)


@pytest.fixture(scope="session")
def host():
    """The calibrated reference host with devices attached."""
    return reference_host()


@pytest.fixture(scope="session")
def bare_host():
    """The reference host without devices (pure fabric tests)."""
    return reference_host(with_devices=False)


@pytest.fixture(scope="session")
def variant_a():
    """A clean Fig. 1 variant-a machine (no calibrated asymmetries)."""
    return magny_cours_4p("a")


@pytest.fixture(scope="session")
def small_machine():
    """A small 2-package machine for cheap structural tests."""
    return parametric_machine(2, nodes_per_package=2, cores_per_node=2)


@pytest.fixture()
def registry():
    """A fresh registry with the default seed."""
    return RngRegistry()


@pytest.fixture()
def runner(host):
    """A fio runner against the reference host."""
    return FioRunner(host)
