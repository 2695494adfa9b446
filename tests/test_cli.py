"""Tests for the command-line interface."""

import re

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_accepts_inputs(self):
        args = build_parser().parse_args(["run", "figure4_loop", "--inputs", "5"])
        assert args.workload == "figure4_loop"
        assert args.inputs == [5]

    def test_inputs_default_to_none(self):
        args = build_parser().parse_args(["attest", "crc32"])
        assert args.inputs is None


class TestEngineFlags:
    @pytest.mark.parametrize("command", [
        ["run", "crc32"],
        ["attest", "crc32"],
        ["campaign"],
        ["serve"],
        ["fleet-load"],
        ["workloads"],
    ])
    def test_engine_flag_parses_everywhere(self, command):
        args = build_parser().parse_args(command + ["--engine", "compiled"])
        assert args.engine == "compiled"

    def test_engine_defaults_to_none(self):
        from repro.cli import _cpu_config

        args = build_parser().parse_args(["run", "crc32"])
        assert args.engine is None
        assert _cpu_config(args).engine == "compiled"

    def test_unknown_engine_rejected_by_parser(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["run", "crc32", "--engine", "turbo"])
        assert excinfo.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_explicit_engine_reaches_cpu_config(self):
        from repro.cli import _cpu_config

        args = build_parser().parse_args(["run", "crc32", "--engine", "legacy"])
        assert _cpu_config(args).engine == "legacy"

    def test_engine_help_names_compiled_default(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--help"])
        help_text = " ".join(capsys.readouterr().out.split())
        assert "(compiled, the default)" in help_text

    def test_run_with_compiled_engine(self, capsys):
        assert main(["run", "figure4_loop", "--engine", "compiled"]) == 0
        out = capsys.readouterr().out
        assert "output" in out

    def test_fastpath_check_requires_compiled_default(self, capsys):
        assert main(["fastpath", "--workload", "figure4_loop",
                     "--repeats", "1"]) == 0
        out = capsys.readouterr().out
        assert "default engine: compiled" in out
        assert "fastpath check: OK" in out

    def test_attest_engines_agree(self, capsys):
        measurements = []
        for engine in ("legacy", "fast", "compiled"):
            assert main(["attest", "crc32", "--engine", engine]) == 0
            out = capsys.readouterr().out
            measurements.append(next(
                line for line in out.splitlines() if "measurement A" in line))
        assert measurements[0] == measurements[1] == measurements[2]


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "syringe_pump" in out
        assert "syringe_overdose" in out

    def test_run_workload(self, capsys):
        assert main(["run", "figure4_loop", "--inputs", "4"]) == 0
        out = capsys.readouterr().out
        assert "output      : 28" in out
        assert "cycles" in out

    def test_attest_workload(self, capsys):
        assert main(["attest", "figure4_loop"]) == 0
        out = capsys.readouterr().out
        assert "measurement A" in out
        assert "loop @" in out

    def test_protocol_accepted(self, capsys):
        assert main(["protocol", "auth_check"]) == 0
        out = capsys.readouterr().out
        assert "ACCEPTED" in out

    def test_attack_detected(self, capsys):
        assert main(["attack", "syringe_overdose"]) == 0
        out = capsys.readouterr().out
        assert "detected    : True" in out

    def test_overhead_table(self, capsys):
        assert main(["overhead"]) == 0
        out = capsys.readouterr().out
        assert "cflat_overhead_%" in out
        assert "syringe_pump" in out

    def test_area_table(self, capsys):
        assert main(["area"]) == 0
        out = capsys.readouterr().out
        assert "BRAM36 49" in out

    def test_unknown_workload_returns_error(self, capsys):
        assert main(["run", "nope"]) == 2
        assert "error" in capsys.readouterr().err

    def test_unknown_attack_returns_error(self, capsys):
        assert main(["attack", "nope"]) == 2
        assert "error" in capsys.readouterr().err


class TestServeAndRemote:
    def test_serve_parser_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.host == "127.0.0.1"
        assert args.port == 4711
        assert args.allow_shutdown is False
        assert args.session_limit == 4

    def test_fleet_load_parser_defaults(self):
        args = build_parser().parse_args(["fleet-load"])
        assert (args.connections, args.reports, args.batch) == (8, 200, 1)
        assert args.scheme == "lofat"
        assert args.pace_ms == 0.0
        assert args.shutdown is False

    def test_fleet_load_rejects_empty_scheme_list(self, capsys):
        assert main(["fleet-load", "--scheme", ","]) == 2
        assert "at least one name" in capsys.readouterr().err

    def test_fleet_load_rejects_unknown_scheme(self, capsys):
        assert main(["fleet-load", "--scheme", "no-such-scheme"]) == 2
        assert "unknown scheme" in capsys.readouterr().err

    def test_fleet_load_rejects_zero_batch(self, capsys):
        assert main(["fleet-load", "--batch", "0"]) == 2
        assert "batch must be at least 1" in capsys.readouterr().err

    def test_fleet_load_reports_unreachable_server(self, capsys):
        # Port 1 on localhost is never listening; the CLI must turn the
        # connection failure into exit code 2, not a traceback.
        assert main(["fleet-load", "--port", "1", "--reports", "1"]) == 2
        assert "cannot reach server" in capsys.readouterr().err

    def test_serve_and_fleet_load_end_to_end(self, tmp_path, capsys):
        """The CLI pair, driven in-process: serve in a thread, attest all
        three schemes remotely in batched sessions, shut down over the
        wire -- then restart on the saved database, where every reference
        is a hit."""
        import os
        import socket
        import threading
        import time

        database = str(tmp_path / "measurements.json")

        def serve_and_attest():
            probe = socket.socket()
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
            probe.close()
            serve_rc = []
            thread = threading.Thread(target=lambda: serve_rc.append(main([
                "serve", "--port", str(port), "--allow-shutdown",
                "--database", database,
            ])))
            thread.start()
            for _ in range(100):
                try:
                    socket.create_connection(
                        ("127.0.0.1", port), timeout=0.2).close()
                    break
                except OSError:
                    time.sleep(0.05)

            rc = main(["fleet-load", "--port", str(port), "--connections", "2",
                       "--reports", "6", "--devices", "2",
                       "--scheme", "lofat,cflat,static",
                       "--workload", "figure4_loop", "--batch", "3",
                       "--shutdown"])
            thread.join(timeout=10)
            assert rc == 0
            assert serve_rc == [0]
            out = capsys.readouterr().out
            assert ("reports      : 6 benign (6 accepted, "
                    "0 unexpectedly rejected)") in out
            assert "prover side  : 0 trace replays, 6 live executions" in out
            assert "listening on 127.0.0.1:%d" % port in out
            assert "0 rejected" in out
            return out

        cold = serve_and_attest()
        assert os.path.exists(database)  # saved (atomically) at shutdown
        assert "measurement db: 3 entries" in cold
        warm = serve_and_attest()
        assert re.search(r"measurement db: .* hits / 0 misses", warm)
