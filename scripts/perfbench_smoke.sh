#!/usr/bin/env sh
# Benchmark-harness smoke: run perfbench's own tests.  Its tracer
# imports every module that LAYERS lists, so renaming or deleting one
# of them breaks every `perfbench/run.py --trace 1` run; this suite
# catches that before the benchmark does.
set -eu

cd "$(dirname "$0")/.."

echo "== perfbench: harness tests"
# perfbench/ has no conftest, so load the suite's per-test budget shim
# (pyproject.toml's `timeout`) as a plugin: a hung test then fails
# instead of hanging the smoke.
PYTHONPATH=src python -m pytest -q -p tests.timeout_fallback perfbench/test_perfbench.py
