"""The benchmark's own tests: its file format, its correctness gates, its tracer.

Run from the repository root with ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import itertools
import json
import pathlib
import re

import pytest

import run
import tracer as tracer_mod
import workloads
from workloads import Advisory, Paper, Sweep

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


# --- the BENCHMARK.json format -----------------------------------------------
def test_benchmark_json_keys_and_limits():
    assert list(SPEC) == ["command", "paths", "run_seconds", "workloads",
                          "end_to_end", "per_layer"]
    assert len(json.dumps(SPEC)) <= 64 * 1024
    assert 1 <= len(SPEC["command"]) <= 32
    assert all(len(arg) <= 200 for arg in SPEC["command"])
    assert 1 <= len(SPEC["paths"]) <= 16
    for path in SPEC["paths"]:
        assert re.fullmatch(r"[A-Za-z0-9_./-]{1,200}", path)
        assert not path.startswith("/") and ".." not in path.split("/")
        assert (ROOT / path).is_dir()
    for arg in SPEC["command"][1:]:
        if "/" in arg:
            assert any(arg.startswith(p + "/") for p in SPEC["paths"])
    assert isinstance(SPEC["run_seconds"], int) and 1 <= SPEC["run_seconds"] <= 60
    runs = 4 + 22 * len(SPEC["workloads"])
    assert runs * SPEC["run_seconds"] <= 3420 / 2  # set-up and checks need the rest


def test_metric_names_follow_the_naming_rule():
    names = [w["name"] for w in SPEC["workloads"]]
    names += [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.fullmatch(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher")


def test_workloads_and_metric_shapes():
    assert 2 <= len(SPEC["workloads"]) <= 8
    for workload in SPEC["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
        assert workload["name"] in workloads.WORKLOADS
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    assert 1 <= len(SPEC["per_layer"]) <= 128
    for metric in SPEC["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}


def test_every_per_layer_metric_has_its_rationale():
    rationale = json.loads((HERE / "rationale.json").read_text(encoding="utf-8"))
    e2e = {m["name"] for m in SPEC["end_to_end"]}
    names = {w["name"] for w in SPEC["workloads"]}
    assert set(rationale["per_layer"]) == {m["name"] for m in SPEC["per_layer"]}
    for entry in rationale["per_layer"].values():
        assert set(entry["moves"]) <= e2e
        assert set(entry["workloads"]) <= names
    assert set(rationale["workloads"]) == names
    assert set(rationale["end_to_end"]) == e2e


# --- inputs come from the seed -----------------------------------------------
def test_paper_seeds_give_different_artifacts():
    from repro.experiments import EXPERIMENTS

    def texts(seed):
        return [workloads.artifact(exp_id, seed)[0] for exp_id in EXPERIMENTS]

    one = texts(1)
    assert one == texts(1)
    assert one != texts(2)


def test_sweep_seeds_give_different_hosts():
    from repro.solver.capacity import machine_fingerprint
    from repro.topology.builders import scaled_host

    def fingerprints(seed):
        seeds = itertools.islice(workloads.host_seeds(seed), 3)
        return [machine_fingerprint(scaled_host(workloads.SWEEP_PACKAGES, seed=s))
                for s in seeds]

    one = fingerprints(1)
    assert one == fingerprints(1)
    assert len(set(one)) == 3
    assert not set(one) & set(fingerprints(2))


def test_advisory_seeds_give_different_traffic():
    one = workloads.advisory_traffic(1)
    assert one == workloads.advisory_traffic(1)
    assert one != workloads.advisory_traffic(2)


def test_sweep_host_count_depends_only_on_seconds():
    assert Sweep.timed_passes(20) == round(20 / workloads.SWEEP_HOST_S)
    assert Sweep.timed_passes(0.1) == 1


# --- correctness gates ---------------------------------------------------------
def test_paper_tampered_expected_artifact_fails():
    from repro.rng import DEFAULT_SEED

    paper = Paper(DEFAULT_SEED, ROOT)
    paper.setup()
    assert paper.expected_source == "EXPERIMENTS.md"
    result = paper.run_pass()
    assert paper.check(result) == 0
    assert result.attempted == len(paper.ids) == 21
    paper.expected["f4"] = paper.expected["f4"].replace("PASS", "PASs", 1)
    assert paper.check(result) == 1


def test_paper_default_seed_sections_are_the_report_verbatim():
    """At the library seed the 21 sections concatenate to EXPERIMENTS.md's body."""
    from repro.rng import DEFAULT_SEED

    text = (ROOT / "EXPERIMENTS.md").read_text(encoding="utf-8")
    paper = Paper(DEFAULT_SEED, ROOT)
    paper.setup()
    body = "".join(paper.expected[e] for e in paper.ids)
    assert body in text and len(paper.expected) == 21


def test_advisory_tampered_response_fails():
    advisory = Advisory(3, ROOT)
    advisory.setup()
    assert all(advisory.reference_ok)
    assert advisory.check(advisory.run_pass()) == 0
    advisory.reference[7] = advisory.reference[7].replace('"id":7', '"id":8')
    assert advisory.check(advisory.run_pass()) == 1


@pytest.mark.parametrize("line, reply, ok", [
    ('{"id":3,"method":"ready"}', '{"id":3,"jsonrpc":"2.0","result":{}}\n', True),
    ('{"id":3,"method":"ready"}', '{"id":3,"jsonrpc":"2.0","result":{}}', False),
    ('{"id":3,"method":"ready"}', '{"id":4,"jsonrpc":"2.0","result":{}}\n', False),
    ('{"id":3,"method":"ready"}', '{"id":3,"result":{}}\n{"id":3,"result":{}}\n', False),
    ('{"id":3,"method":"x"}', '{"error":{"kind":"method_not_found"},"id":3}\n', True),
    ('{"id":3,"method":"x"}', '{"error":{"kind":"internal_error"},"id":3}\n', False),
    ('{"id": 3, oops', '{"error":{"kind":"parse_error"},"id":null}\n', True),
])
def test_response_ok_judges_totality(line, reply, ok):
    assert workloads.response_ok(line, reply) is ok


@pytest.mark.fabric
def test_sweep_cross_check_catches_a_differing_model(monkeypatch):
    monkeypatch.setattr(workloads, "SWEEP_PACKAGES", 4)
    sweep = Sweep(5, ROOT)
    try:
        sweep.setup()
        result = sweep.run_pass()
        assert sweep.check(result) == 0 and result.attempted == 16
        assert sweep.finish()[0] == 0
        host_seed, models = sweep._check_target
        key = next(iter(models))
        models[key] = models[key].replace("1", "2", 1)
        assert sweep.finish()[0] == 1
    finally:
        sweep.close()


def test_speed_factor_and_steal_accounting():
    ref = workloads.CALIBRATION_REF_S
    assert workloads.speed_factor([ref / 2, ref * 2, ref * 4]) == pytest.approx(0.5)
    # user nice system idle iowait irq softirq steal
    before = [100, 0, 50, 1000, 10, 0, 0, 5]
    after = [180, 0, 70, 1100, 10, 0, 0, 25]
    assert workloads.jiffies(before, after) == (20, 120, 220)
    assert run.steal_share(before, after) == pytest.approx(20 / 120)


# --- the tracer -----------------------------------------------------------------
def test_self_times_add_up_to_the_root():
    tracer = tracer_mod.Tracer()

    def leaf():
        return sum(range(2000))

    def mid():
        return [w_leaf() for _ in range(3)]

    w_leaf = tracer._wrap(leaf, "b.leaf", "b")
    w_mid = tracer._wrap(mid, "a.mid", "a")
    tracer.begin("harness.pass")
    w_mid()
    w_leaf()
    wall = tracer.end()
    total_self = sum(v[1] for v in tracer.stats.values())
    assert total_self == pytest.approx(wall, rel=1e-9)
    assert tracer.stats["b.leaf"][0] == 4
    linked = tracer_mod.link_spans(tracer.spans)
    ids = {s[2]: s[0] for s in linked}
    parents = {s[2]: s[1] for s in linked}
    assert parents["harness.pass"] == 0
    assert parents["a.mid"] == ids["harness.pass"]


def test_install_wraps_by_name_imports_and_uninstall_restores():
    from repro.service import protocol, server

    original = protocol.decode_request
    tracer = tracer_mod.Tracer()
    tracer.install()
    try:
        assert server.decode_request is not original
        assert server.decode_request is protocol.decode_request
        assert server.decode_request.__wrapped__ is original
        with tracer.suspended():
            assert server.decode_request is original
        assert server.decode_request is not original
    finally:
        tracer.uninstall()
    assert server.decode_request is original
    assert protocol.decode_request is original


def test_tracing_changes_no_output():
    from repro.experiments import EXPERIMENTS, get_experiment
    from repro.rng import DEFAULT_SEED

    paper = Paper(DEFAULT_SEED, ROOT)
    paper.setup()
    tracer = tracer_mod.Tracer()
    tracer.install({e: get_experiment(e) for e in EXPERIMENTS})
    try:
        tracer.begin("harness.pass")
        result = paper.run_pass(tracer)
        tracer.end()
    finally:
        tracer.uninstall()
    assert paper.check(result) == 0
    assert tracer.stats["experiments.f6"][0] == 1


def test_parse_importtime():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       500 |        500 |   _io",
        "import time:      2000 |       2000 |       numpy",
        "import time:      3000 |       3000 |       scipy.stats",
        "import time:      1000 |       6000 |     repro.rng",
        "import time:       400 |       6400 |   repro",
        "import time:       100 |       6500 | repro.cli.main",
    ])
    parsed = run.parse_importtime(text)
    assert parsed["total"] == pytest.approx(0.0065)
    assert parsed["numpy"] == pytest.approx(0.002)
    assert parsed["scipy"] == pytest.approx(0.003)
    assert parsed["repro"] == pytest.approx(0.0015)
