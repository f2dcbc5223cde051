"""Tests for the command-line interface."""

import threading
import time

import pytest

import repro.cli as cli
from repro.cli import EXPERIMENTS, build_parser, main


class TestParser:
    def test_demo_defaults(self):
        args = build_parser().parse_args(["demo"])
        assert args.hours == 4

    def test_query_args(self):
        args = build_parser().parse_args(
            ["query", "SELECT 1", "--hours", "2", "--mode", "baseline"]
        )
        assert args.sql == "SELECT 1"
        assert args.mode == "baseline"

    def test_experiment_choices(self):
        args = build_parser().parse_args(["experiment", "table2"])
        assert args.name == "table2"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["experiment", "fig99"])

    def test_missing_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_there_is_no_lint_command(self, capsys):
        # The static checker is deleted: its one rule is the armed
        # sanitizer's guarded-field check (DESIGN §8).
        with pytest.raises(SystemExit) as exit_info:
            main(["lint", "src"])
        assert exit_info.value.code == 2
        assert "invalid choice: 'lint'" in capsys.readouterr().err

    def test_serve_args(self):
        args = build_parser().parse_args(
            ["serve", "--port", "9000", "--serve-for", "1.5"]
        )
        assert args.port == 9000
        assert args.serve_for == 1.5
        assert args.host == "127.0.0.1"

    def test_query_connect_arg(self):
        args = build_parser().parse_args(
            ["query", "SELECT 1", "--connect", "10.0.0.5:9000"]
        )
        assert args.connect == "10.0.0.5:9000"

    def test_bad_connect_address_rejected(self):
        with pytest.raises(SystemExit):
            main(["query", "SELECT 1", "--connect", "nonsense"])

    def test_experiment_registry_complete(self):
        assert sorted(EXPERIMENTS) == [
            "fig12", "fig13", "fig14to16", "fig17", "fig8",
            "fig9to11", "table1", "table2",
        ]


class TestCommands:
    def test_experiment_table1(self, capsys):
        assert main(["experiment", "table1"]) == 0
        out = capsys.readouterr().out
        assert "Ours (V2FS)" in out

    def test_experiment_table2(self, capsys):
        assert main(["experiment", "table2"]) == 0
        assert "matches the paper's matrix" in capsys.readouterr().out

    def test_query_command(self, capsys):
        code = main([
            "query", "SELECT COUNT(*) AS n FROM btc_blocks",
            "--hours", "1", "--txs-per-block", "2",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "n"
        assert out.splitlines()[1] == "1"

    def test_demo_command(self, capsys):
        code = main(["demo", "--hours", "1", "--txs-per-block", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "tampering ISP rejected" in out

    def test_serve_and_query_connect_loopback(self, capsys, tmp_path):
        """Full CLI round trip: ``repro serve`` in one thread, ``repro
        query --connect`` against it — a verified answer over sockets."""
        port_file = tmp_path / "port"
        serve_result = {}

        def run_serve():
            serve_result["code"] = main([
                "serve", "--hours", "1", "--txs-per-block", "2",
                "--port", "0", "--port-file", str(port_file),
                "--serve-for", "120",
            ])

        thread = threading.Thread(target=run_serve, daemon=True)
        thread.start()
        try:
            deadline = time.monotonic() + 90
            while not port_file.exists():
                assert time.monotonic() < deadline, "serve never bound"
                time.sleep(0.05)
            address = port_file.read_text().strip()
            capsys.readouterr()  # drain the serve banner
            code = main([
                "query", "SELECT COUNT(*) AS n FROM btc_blocks",
                "--connect", address, "--mode", "baseline",
            ])
            assert code == 0
            out = capsys.readouterr().out
            assert out.splitlines()[0] == "n"
            assert out.splitlines()[1] == "1"
        finally:
            cli._serve_shutdown.set()
            thread.join(timeout=30)
        assert not thread.is_alive()
        assert serve_result["code"] == 0
