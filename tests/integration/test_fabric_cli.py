"""CLI byte-identity across the worker fabric.

The contract ``scripts/fabric_smoke.sh`` gates in CI, exercised here
in-process: ``--jobs N`` changes wall-clock, never bytes.
"""

from __future__ import annotations

import contextlib
import io
import json

import pytest

from repro.cli.main import main

pytestmark = pytest.mark.fabric


def _run(argv: "list[str]") -> "tuple[int, str]":
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        rc = main(argv)
    return rc, stdout.getvalue()


def test_iomodel_sweep_stdout_identical_across_jobs():
    base = ["iomodel", "--targets", "0,2,5,7", "--mode", "write",
            "--runs", "8"]
    rc_serial, serial = _run(base)
    rc_sharded, sharded = _run(base + ["--jobs", "3"])
    assert rc_serial == rc_sharded == 0
    assert serial == sharded
    assert serial.count("per-node memcpy write bandwidth") == 4


def test_iomodel_both_mode_identical_across_jobs():
    base = ["iomodel", "--targets", "all", "--runs", "5"]
    rc_serial, serial = _run(base)
    rc_sharded, sharded = _run(base + ["--jobs", "4"])
    assert rc_serial == rc_sharded == 0
    assert serial == sharded


def test_iomodel_single_target_unchanged_by_targets_flag():
    rc_a, single = _run(["iomodel", "--target", "7", "--mode", "read",
                         "--runs", "5"])
    rc_b, listed = _run(["iomodel", "--targets", "7", "--mode", "read",
                         "--runs", "5"])
    assert rc_a == rc_b == 0
    assert single == listed


def test_iomodel_rejects_bad_targets_and_jobs(capsys):
    rc, _ = _run(["iomodel", "--targets", "1,x"])
    assert rc != 0
    assert "--targets" in capsys.readouterr().err
    rc, _ = _run(["iomodel", "--targets", "0,1", "--jobs", "0"])
    assert rc != 0
    assert "--jobs" in capsys.readouterr().err


@pytest.mark.parametrize("spec, message", [
    ("0,0", "lists node 0 twice"),
    ("2,5,2", "lists node 2 twice"),
    (",", "names no node"),
    ("", "names no node"),
])
def test_iomodel_rejects_repeated_or_empty_targets_on_every_path(
    tmp_path, capsys, spec, message
):
    """Serial, sharded and journaled runs refuse the list alike."""
    run_dir = tmp_path / "run"
    base = ["iomodel", "--targets", spec, "--mode", "write", "--runs", "2"]
    for extra in ([], ["--jobs", "2"], ["--resume", str(run_dir)]):
        assert _run(base + extra) == (2, "")
        assert capsys.readouterr().err == f"error: --targets {spec!r} {message}\n"
    assert not run_dir.exists()


def test_obs_manifest_ledger_identical_across_jobs(tmp_path):
    """Satellite (a): worker draws land in the parent manifest."""
    serial_dir = tmp_path / "serial"
    sharded_dir = tmp_path / "sharded"
    base = ["iomodel", "--targets", "0,3,6", "--mode", "write", "--runs", "5"]
    rc_serial, serial = _run(base + ["--obs-dir", str(serial_dir)])
    rc_sharded, sharded = _run(
        base + ["--jobs", "3", "--obs-dir", str(sharded_dir)]
    )
    assert rc_serial == rc_sharded == 0
    assert serial == sharded

    manifest_serial = json.loads((serial_dir / "manifest.json").read_text())
    manifest_sharded = json.loads((sharded_dir / "manifest.json").read_text())
    streams = manifest_serial["seed"]["streams"]
    assert streams == manifest_sharded["seed"]["streams"]
    assert streams, "expected a non-empty draw ledger"

    # Worker spans survive the process boundary: the sharded trace holds
    # the same solver span names, nested under fabric.worker containers.
    def span_names(obs_dir):
        with open(obs_dir / "trace.jsonl", encoding="utf-8") as handle:
            return [json.loads(line)["name"] for line in handle]

    serial_names = span_names(serial_dir)
    sharded_names = span_names(sharded_dir)
    assert "iomodel.build_many" in serial_names
    assert sharded_names.count("iomodel.build_many") == 3
    assert sharded_names.count("fabric.build_many") == 3


def test_experiment_all_artifacts_identical_across_jobs(tmp_path):
    serial_dir = tmp_path / "serial"
    sharded_dir = tmp_path / "sharded"
    rc_serial, _ = _run(["experiment", "all", "--quick",
                         "--outdir", str(serial_dir)])
    rc_sharded, out = _run(["experiment", "all", "--quick", "--jobs", "2",
                            "--outdir", str(sharded_dir)])
    assert rc_serial == rc_sharded == 0
    assert "crashed" not in out and "CRASH" not in out
    serial_files = sorted(p.name for p in serial_dir.iterdir())
    assert serial_files == sorted(p.name for p in sharded_dir.iterdir())
    assert serial_files, "expected experiment artifacts"
    for name in serial_files:
        assert (serial_dir / name).read_bytes() == (
            sharded_dir / name
        ).read_bytes()
