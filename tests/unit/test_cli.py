"""CLI surface."""

import pytest

from repro.cli.main import build_parser, main


class TestParser:
    def test_all_subcommands_exist(self):
        parser = build_parser()
        for argv in (
            ["hardware"],
            ["stream", "--cpu", "7", "--mem", "4"],
            ["fio", "--engine", "tcp", "--rw", "send"],
            ["iomodel", "--target", "7"],
            ["predict", "--streams", "2,0"],
            ["advise", "--tasks", "8"],
            ["experiment"],
            ["numastat"],
        ):
            args = parser.parse_args(argv)
            assert callable(args.func)

    def test_unknown_machine_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--machine", "cray", "hardware"])


class TestCommands:
    def test_hardware(self, capsys):
        assert main(["hardware", "--links"]) == 0
        out = capsys.readouterr().out
        assert "available: 8 nodes" in out
        assert "x16" in out

    def test_stream_pair(self, capsys):
        assert main(["stream", "--cpu", "7", "--mem", "4", "--runs", "5"]) == 0
        assert "CPU7->MEM4" in capsys.readouterr().out

    def test_stream_requires_mem_with_cpu(self, capsys):
        assert main(["stream", "--cpu", "7", "--runs", "5"]) == 2
        assert "error" in capsys.readouterr().err

    def test_stream_matrix_on_small_machine(self, capsys):
        assert main(["--machine", "intel-4s4n", "stream", "--runs", "2"]) == 0
        assert "MEM3" in capsys.readouterr().out

    def test_fio_single_job(self, capsys):
        assert main(["fio", "--engine", "rdma", "--rw", "write",
                     "--numjobs", "2", "--node", "6"]) == 0
        assert "Gbps aggregate" in capsys.readouterr().out

    def test_fio_memcpy(self, capsys):
        assert main(["fio", "--engine", "memcpy", "--rw", "read",
                     "--numjobs", "4", "--node", "2", "--target", "7"]) == 0
        assert "memcpy" in capsys.readouterr().out

    @pytest.mark.parametrize("command", [
        ["iomodel", "--target", "7"],
        ["stream", "--cpu", "7", "--mem", "4"],
    ])
    def test_negative_seed_is_a_cli_error(self, capsys, command):
        assert main(["--seed", "-1", *command]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "seed" in err

    def test_fio_requires_engine_or_jobfile(self, capsys):
        assert main(["fio"]) == 2

    def test_fio_jobfile(self, tmp_path, capsys):
        jobfile = tmp_path / "jobs.fio"
        jobfile.write_text("[j]\nioengine=rdma\nrw=write\nnumjobs=2\ncpunodebind=6\n")
        assert main(["fio", "--jobfile", str(jobfile)]) == 0
        assert "j (" in capsys.readouterr().out

    def test_iomodel_single_mode(self, capsys):
        assert main(["iomodel", "--mode", "write", "--runs", "5"]) == 0
        assert "device write" in capsys.readouterr().out

    def test_experiment_listing(self, capsys):
        assert main(["experiment"]) == 0
        out = capsys.readouterr().out
        assert "t1" in out and "f10" in out

    def test_experiment_quick_run(self, capsys):
        assert main(["experiment", "t3", "--quick"]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_experiment_unknown_id(self, capsys):
        assert main(["experiment", "zz"]) == 2

    def test_numastat(self, capsys):
        assert main(["numastat"]) == 0
        assert "numa_hit" in capsys.readouterr().out

    def test_chaos_report(self, capsys):
        assert main(["--seed", "7", "chaos", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "CHAOS RESILIENCE REPORT" in out
        assert "seed 7" in out
        assert "rerouted" in out
        assert "failed" in out

    def test_chaos_deterministic(self, capsys):
        assert main(["--seed", "7", "chaos", "--quick"]) == 0
        first = capsys.readouterr().out
        assert main(["--seed", "7", "chaos", "--quick"]) == 0
        assert capsys.readouterr().out == first

    def test_chaos_single_scenario_json(self, capsys):
        import json

        assert main(["--seed", "7", "chaos", "--scenario", "flapping-uplink",
                     "--quick", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["seed"] == 7
        assert [s["name"] for s in data["scenarios"]] == ["flapping-uplink"]

    def test_seed_changes_noise(self, capsys):
        main(["--seed", "1", "stream", "--cpu", "7", "--mem", "4", "--runs", "3"])
        first = capsys.readouterr().out
        main(["--seed", "2", "stream", "--cpu", "7", "--mem", "4", "--runs", "3"])
        second = capsys.readouterr().out
        assert first != second
