"""Shared fixtures.

The session machines (``host``, ``bare_host``, ``variant_a``,
``small_machine``) are shared by every test of a run, so they must stay
as built: each is pinned when its fixture builds it (serialized
description, routing revision, device map), and after every test a
check fails the test that changed one.  A test that needs to edit a
machine (``set_route``, ``machine.devices``) builds its own.  The RNG
registry is stateless; anything that mutates state (allocators,
schedulers, runners with shared allocators) is built fresh per test.
"""

from __future__ import annotations

import json
import signal

import pytest

from repro.bench.fio import FioRunner
from repro.rng import RngRegistry
from repro.topology.builders import magny_cours_4p, parametric_machine, reference_host
from repro.topology.serialize import machine_to_dict

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


def _pin(machine):
    """What a test must leave as it found: description, routes, devices."""
    description = json.dumps(machine_to_dict(machine), sort_keys=True, default=str)
    return description, machine.routing.revision, dict(machine.devices)


def _changes(machine, pin) -> list[str]:
    description, revision, devices = _pin(machine)
    changed = []
    if description != pin[0]:
        changed.append("its description")
    if revision is not pin[1]:
        changed.append("its routing (set_route)")
    if devices.keys() != pin[2].keys() or any(
        devices[name] is not pin[2][name] for name in devices
    ):
        changed.append("its device map")
    return changed


@pytest.fixture(scope="session")
def _session_machines():
    """Fixture name -> (machine, pin) for each session machine built."""
    return {}


@pytest.fixture(autouse=True)
def _session_machines_untouched(request, _session_machines):
    """Fail the test that changed a session machine, naming both."""
    yield
    broken = []
    for name, (machine, pin) in _session_machines.items():
        changed = _changes(machine, pin)
        if changed:
            # Re-pin, so each later test is judged on what it does itself.
            _session_machines[name] = machine, _pin(machine)
            broken.append(f"{name!r} ({', '.join(changed)})")
    if broken:
        pytest.fail(
            f"{request.node.nodeid} changed the session machine "
            f"{'; '.join(broken)}: build a machine of its own instead",
            pytrace=False,
        )


def _pinned(machines, name, machine):
    machines[name] = machine, _pin(machine)
    return machine


@pytest.fixture(scope="session")
def host(_session_machines):
    """The calibrated reference host with devices attached."""
    return _pinned(_session_machines, "host", reference_host())


@pytest.fixture(scope="session")
def bare_host(_session_machines):
    """The reference host without devices (pure fabric tests)."""
    return _pinned(
        _session_machines, "bare_host", reference_host(with_devices=False)
    )


@pytest.fixture(scope="session")
def variant_a(_session_machines):
    """A clean Fig. 1 variant-a machine (no calibrated asymmetries)."""
    return _pinned(_session_machines, "variant_a", magny_cours_4p("a"))


@pytest.fixture(scope="session")
def small_machine(_session_machines):
    """A small 2-package machine for cheap structural tests."""
    return _pinned(
        _session_machines, "small_machine",
        parametric_machine(2, nodes_per_package=2, cores_per_node=2),
    )


@pytest.fixture()
def registry():
    """A fresh registry with the default seed."""
    return RngRegistry()


@pytest.fixture()
def runner(host):
    """A fio runner against the reference host."""
    return FioRunner(host)
