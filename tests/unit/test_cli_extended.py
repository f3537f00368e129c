"""CLI surface for the extension subcommands."""

import json

from repro.cli.main import main


class TestNumademo:
    def test_grid_rendered(self, capsys):
        assert main(["numademo", "--node", "7"]) == 0
        out = capsys.readouterr().out
        assert "memset" in out
        assert "interleave" in out


class TestExport:
    def test_json_on_stdout(self, capsys):
        assert main(["export"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["name"] == "hp-dl585-g7"
        assert len(data["nodes"]) == 8

    def test_export_reimportable(self, capsys):
        from repro.topology.serialize import machine_from_dict

        main(["--machine", "intel-4s4n", "export"])
        data = json.loads(capsys.readouterr().out)
        machine = machine_from_dict(data)
        assert machine.n_nodes == 4


class TestConcurrent:
    def test_jobfile_run(self, tmp_path, capsys):
        jobfile = tmp_path / "mixed.fio"
        jobfile.write_text(
            "[nic]\nioengine=rdma\nrw=write\nnumjobs=2\ncpunodebind=2\n"
            "[ssd]\nioengine=libaio\nrw=write\nnumjobs=2\niodepth=16\n"
            "cpunodebind=2\n"
        )
        assert main(["concurrent", str(jobfile)]) == 0
        out = capsys.readouterr().out
        assert "traffic counters" in out
        assert "total:" in out


class TestOnline:
    def test_policy_comparison(self, capsys):
        assert main(["online", "--streams", "12", "--rate", "0.2"]) == 0
        out = capsys.readouterr().out
        for policy in ("local", "random", "class-spread", "class-migrate"):
            assert policy in out

    def test_arrivals_beyond_clock_resolution_exit_2(self, capsys):
        # At 1e-20 streams/s arrivals land near 1e20 s, where one clock
        # step is longer than a whole transfer.
        assert main(["online", "--streams", "3", "--rate", "1e-20"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: stream 'cli/0': arrival must be non-negative "
                              "and below 2**43 s, got ")

    def test_sparse_arrivals_below_the_bound_still_run(self, capsys):
        assert main(["online", "--streams", "3", "--rate", "1e-12"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines() == [
            f"{policy:<14} mean     11.6 s, p95     16.0 s, aggregate  0.00 Gbps, "
            "0 migrations"
            for policy in ("local", "random", "class-spread", "class-migrate")
        ]
