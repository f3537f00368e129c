"""The per-test wall-clock budget when pytest-timeout is not installed.

``pyproject.toml`` sets ``timeout = 120``.  pytest-timeout owns that ini
option when installed; otherwise ``pytest_addoption`` registers it, so
it is honoured instead of warned about, and ``pytest_runtest_call``
enforces it with SIGALRM on the main thread.  Both the test suite's and
the benchmarks' ``conftest.py`` import these two hooks by name, and
``scripts/perfbench_smoke.sh`` loads this module as a plugin
(``-p tests.timeout_fallback``).
"""

from __future__ import annotations

import signal
import threading

import pytest

try:  # pragma: no cover - depends on the environment
    import pytest_timeout  # noqa: F401

    HAVE_PYTEST_TIMEOUT = True
except ModuleNotFoundError:  # pragma: no cover - depends on the environment
    HAVE_PYTEST_TIMEOUT = False

__all__ = ["pytest_addoption", "pytest_runtest_call"]


def pytest_addoption(parser):
    if not HAVE_PYTEST_TIMEOUT:
        parser.addini(
            "timeout",
            "per-test wall-clock budget in seconds (fallback shim)",
            default="0",
        )


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_call(item):
    if HAVE_PYTEST_TIMEOUT or not hasattr(signal, "SIGALRM"):
        yield
        return
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
