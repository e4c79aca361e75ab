"""The command-line interface for regenerating artifacts."""

import pathlib

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_artifact_choices(self):
        parser = build_parser()
        args = parser.parse_args(["fig4", "--quick"])
        assert args.artifact == "fig4"
        assert args.quick

    def test_rejects_unknown_artifact(self):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args(["fig99"])

    def test_out_dir(self):
        args = build_parser().parse_args(["table1", "--out", "/tmp/x"])
        assert args.out == pathlib.Path("/tmp/x")

    def test_replica_flags(self):
        args = build_parser().parse_args(
            ["replica", "--replicas", "2", "--ack-mode", "semi-sync"]
        )
        assert args.artifact == "replica"
        assert args.replicas == 2
        assert args.ack_mode == "semi-sync"

    def test_rejects_unknown_ack_mode(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["replica", "--ack-mode", "eventually"])


class TestExecution:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in ("fig1", "fig4", "fig5", "fig6", "fig7", "fig8", "table1"):
            assert name in out

    def test_fig1_prints_report(self, capsys):
        assert main(["fig1"]) == 0
        assert "Figure 1" in capsys.readouterr().out

    def test_fig8_prints_report(self, capsys):
        assert main(["fig8"]) == 0
        assert "Figure 8" in capsys.readouterr().out

    def test_table1_quick_with_output_file(self, tmp_path, capsys):
        assert main(["table1", "--quick", "--out", str(tmp_path)]) == 0
        report = (tmp_path / "table1.txt").read_text()
        assert "Table 1" in report
        assert "17392" in report

    def test_fig4_quick(self, capsys):
        assert main(["fig4", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "Figure 4" in out and "Precursor" in out

    def test_list_includes_replication_commands(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "replica" in out
        assert "replicate" in out

    def test_replica_run_is_clean(self, capsys):
        assert main(["replica", "--seed", "7", "--ops", "60"]) == 0
        out = capsys.readouterr().out
        assert "promotions" in out
        assert "sync" in out

    def test_replica_rejects_zero_replicas(self, capsys):
        assert main(["replica", "--replicas", "0"]) == 2
        assert "--replicas >= 1" in capsys.readouterr().err

    def test_replicate_quick_writes_measurements(self, tmp_path, capsys):
        assert main(
            ["replicate", "--quick", "--out", str(tmp_path)]
        ) == 0
        out = capsys.readouterr().out
        assert "measurements saved" in out
        saved = tmp_path / "BENCH_replication_quick.json"
        assert saved.exists()
        import json

        data = json.loads(saved.read_text())
        assert data["ok"] is True
        assert "sync/r2" in data["configs"]


class TestCommandTable:
    def test_every_command_is_a_choice_and_listed(self, capsys):
        from repro.cli import COMMANDS

        parser = build_parser()
        assert main(["list"]) == 0
        listed = [line.split()[0] for line in capsys.readouterr().out.splitlines()]
        names = [command.name for command in COMMANDS]
        assert listed == names
        assert len(set(names)) == len(names)
        for name in names:
            assert parser.parse_args([name]).artifact == name

    def test_every_committed_bench_file_has_one_gate(self):
        from repro.cli import COMMANDS

        root = pathlib.Path(__file__).resolve().parents[1]
        committed = {
            path.stem[len("BENCH_"):] for path in root.glob("BENCH_*.json")
        }
        gates = [c.gate for c in COMMANDS if c.gate is not None]
        assert sorted(gates) == sorted(committed)
        assert committed == {
            "crypto", "batching", "replication", "traffic", "nearcache",
            "autoscale",
        }
        assert all(c.artifact for c in COMMANDS if c.gate)


class _FakeFigure:
    def report(self):
        return "fake figure"


class _FakeGate:
    def __init__(self, exit_code):
        self.exit_code = exit_code

    def report(self):
        return f"fake gate, exit {self.exit_code}"

    def to_dict(self):
        return {"ok": self.exit_code == 0}


def _fake_artifacts(monkeypatch):
    """Replace every artifact's runner with a fake; loadknee's gate fails."""
    import importlib

    from repro.cli import COMMANDS

    artifacts = [c for c in COMMANDS if c.artifact]
    for command in artifacts:
        module, _, function = command.artifact.rpartition(".")
        code = 1 if command.name == "loadknee" else 0
        fake = _FakeGate(code) if command.gate else _FakeFigure()
        monkeypatch.setattr(
            importlib.import_module(module),
            function,
            lambda quick=False, fake=fake: fake,
        )
    return artifacts


class TestAllWithCsv:
    def test_all_csv_writes_every_figure_csv_and_gate_exit(
        self, monkeypatch, tmp_path, capsys
    ):
        """``--csv`` skips results without an exporter instead of crashing."""
        from repro.bench import export

        monkeypatch.setitem(
            export._EXPORTERS, _FakeFigure, lambda result: "x,y\n1,2\n"
        )
        artifacts = _fake_artifacts(monkeypatch)
        # One gate fails: 'all' must exit with the gates' worst code.
        assert main(["all", "--quick", "--out", str(tmp_path), "--csv"]) == 1
        out = capsys.readouterr().out
        for command in artifacts:
            assert (tmp_path / f"{command.name}.txt").exists()
            csv = tmp_path / f"{command.name}.csv"
            assert csv.exists() == (command.gate is None), command.name
            if command.gate:
                assert (tmp_path / f"BENCH_{command.gate}_quick.json").exists()
        assert out.count("fake figure") == sum(
            1 for c in artifacts if c.gate is None
        )

    def test_all_ignores_json(self, monkeypatch, tmp_path, capsys):
        """``all`` prints text reports only, even with ``--json``."""
        artifacts = _fake_artifacts(monkeypatch)
        assert main(["all", "--quick", "--out", str(tmp_path), "--json"]) == 1
        out = capsys.readouterr().out
        assert '"ok"' not in out
        assert out.count("fake gate") == sum(1 for c in artifacts if c.gate)
        assert {p.name for p in tmp_path.glob("*.json")} == {
            f"BENCH_{c.gate}_quick.json" for c in artifacts if c.gate
        }

    def test_gated_bench_with_exporter_still_writes_csv(self, tmp_path, capsys):
        argv = ["replicate", "--quick", "--out", str(tmp_path), "--csv"]
        assert main(argv) == 0
        assert (tmp_path / "replicate.csv").read_text().count("\n") > 1
        assert (tmp_path / "BENCH_replication_quick.json").exists()


class TestCentralOptionChecks:
    @pytest.mark.parametrize(
        "argv",
        [
            ["chaos", "--ops", "-3"],
            ["chaos", "--ops", "0"],
            ["replica", "--ops", "-3"],
            ["metrics", "--ops", "-5"],
        ],
    )
    def test_non_positive_ops_exit_2(self, argv, capsys):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert "error: --ops must be >= 1" in captured.err
        assert "verdict" not in captured.out

    @pytest.mark.parametrize("command", ["health", "flightrec"])
    @pytest.mark.parametrize("option", ["--window", "--tick-every"])
    def test_zero_window_and_tick_exit_2(self, command, option, capsys):
        assert main([command, option, "0"]) == 2
        assert f"error: {option} must be >= 1" in capsys.readouterr().err
