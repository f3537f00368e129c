"""Shared fixtures.

The reference host is immutable after construction and the RNG registry
is stateless, so both are session-scoped; anything that mutates state
(allocators, schedulers, runners with shared allocators) is built fresh
per test.
"""

from __future__ import annotations

import signal

import pytest

from repro.bench.fio import FioRunner
from repro.rng import RngRegistry
from repro.topology.builders import magny_cours_4p, parametric_machine, reference_host

# The per-test budget (``timeout`` in pyproject.toml) without pytest-timeout.
from tests.timeout_fallback import pytest_addoption, pytest_runtest_call  # noqa: F401


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
