"""Tests for the command-line interface."""

import numpy as np
import pytest

from repro.cli import _parse_edges, build_parser, main
from repro.graphs.generators import random_graph
from repro.graphs.io import save_edge_list


class TestParseEdges:
    def test_basic(self):
        assert _parse_edges("0-1,1-3") == [(0, 1), (1, 3)]

    def test_whitespace_and_empty(self):
        assert _parse_edges(" 0-1 , ,2-3 ") == [(0, 1), (2, 3)]

    def test_malformed(self):
        with pytest.raises(ValueError):
            _parse_edges("0-1-2")


class TestSolve:
    def test_random_graph(self, capsys):
        assert main(["solve", "--random", "10", "--p", "0.3", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "n = 10" in out
        assert "components:" in out

    def test_file_input(self, tmp_path, capsys):
        g = random_graph(6, 0.4, seed=2)
        path = tmp_path / "g.edges"
        save_edge_list(g, path)
        assert main(["solve", str(path)]) == 0
        assert "n = 6" in capsys.readouterr().out

    def test_labels_flag(self, capsys):
        main(["solve", "--random", "4", "--p", "1.0", "--seed", "0", "--labels"])
        out = capsys.readouterr().out
        assert "labels: 0 0 0 0" in out

    @pytest.mark.parametrize("method", ["vectorized", "interpreter", "reference", "pram"])
    def test_all_methods(self, method, capsys):
        assert main(["solve", "--random", "5", "--p", "0.5", "--seed", "3",
                     "--method", method]) == 0

    def test_auto_picks_contracting_on_a_complete_graph(self, capsys):
        assert main(["solve", "--random", "512", "--p", "1.0", "--seed", "1",
                     "--method", "auto"]) == 0
        out = capsys.readouterr().out
        assert "method = auto -> contracting" in out
        assert "components: 1" in out

    def test_early_exit_flag(self, capsys):
        assert main(["solve", "--random", "12", "--p", "0.4", "--seed", "1",
                     "--early-exit"]) == 0
        out = capsys.readouterr().out
        assert "converged at iteration" in out

    def test_early_exit_rejected_for_other_methods(self, capsys):
        assert main(["solve", "--random", "5", "--p", "0.5", "--seed", "0",
                     "--method", "interpreter", "--early-exit"]) == 2
        assert "early_exit" in capsys.readouterr().err

    def test_missing_input(self):
        with pytest.raises(SystemExit):
            main(["solve"])

    def test_missing_file_is_error_exit(self, capsys):
        assert main(["solve", "/nonexistent/graph.edges"]) == 2
        assert "error:" in capsys.readouterr().err


class TestTables:
    def test_prints_all_three(self, capsys):
        assert main(["tables", "--n", "4"]) == 0
        out = capsys.readouterr().out
        assert "Table 1 reproduction" in out
        assert "Table 2 reproduction" in out
        assert "Total generations" in out


class TestSynthesize:
    def test_paper_point(self, capsys):
        assert main(["synthesize", "--n", "16"]) == 0
        out = capsys.readouterr().out
        assert "23,051" in out
        assert "paper" in out

    def test_other_size_no_paper_line(self, capsys):
        main(["synthesize", "--n", "8"])
        out = capsys.readouterr().out
        assert "model" in out and "paper" not in out


class TestTrace:
    def test_k2(self, capsys):
        assert main(["trace", "--n", "2", "--edges", "0-1"]) == 0
        out = capsys.readouterr().out
        assert "final labels: [0, 0]" in out
        assert "gen0" in out

    def test_bad_edges_error(self, capsys):
        assert main(["trace", "--n", "2", "--edges", "0-9"]) == 2


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_help_smoke(self):
        parser = build_parser()
        assert "solve" in parser.format_help()

    @pytest.mark.parametrize("argv", [
        ["serve", "--listen", "127.0.0.1:0"], ["serve-bench"],
    ])
    def test_no_calibration_flag(self, argv, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(argv + ["--calibration", "cached"])
        assert "unrecognized arguments: --calibration" in (
            capsys.readouterr().err)


class TestClosure:
    def test_queries(self, capsys):
        assert main(["closure", "--n", "5", "--edges", "0-1,1-2",
                     "--query", "0-2,0-4"]) == 0
        out = capsys.readouterr().out
        assert "reachable(0, 2) = True" in out
        assert "reachable(0, 4) = False" in out

    def test_full_listing(self, capsys):
        assert main(["closure", "--n", "3", "--edges", "0-1"]) == 0
        out = capsys.readouterr().out
        assert "0: [0, 1]" in out
        assert "2: [2]" in out


class TestSweep:
    def test_summary(self, capsys):
        assert main(["sweep", "--sizes", "6", "--engines",
                     "vectorized,unionfind"]) == 0
        out = capsys.readouterr().out
        assert "vectorized" in out and "unionfind" in out
        assert "True" in out

    def test_json_archive(self, tmp_path, capsys):
        target = tmp_path / "records.json"
        assert main(["sweep", "--sizes", "4", "--engines", "vectorized",
                     "--json", str(target)]) == 0
        from repro.analysis.sweep import load_records

        records = load_records(target)
        assert records and all(r.correct for r in records)

    def test_workload_choice(self, capsys):
        assert main(["sweep", "--sizes", "8", "--engines", "vectorized",
                     "--workload", "path"]) == 0

    def test_batched_engine(self, capsys):
        assert main(["sweep", "--sizes", "8", "--engines",
                     "batched,vectorized_early", "--repeats", "2"]) == 0
        out = capsys.readouterr().out
        assert "batched" in out and "vectorized_early" in out

    def test_jobs_flag(self, capsys):
        assert main(["sweep", "--sizes", "4,6", "--engines", "vectorized",
                     "--jobs", "2"]) == 0
        assert "sweep:" in capsys.readouterr().out


class TestSparseSweep:
    def test_summary(self, capsys):
        assert main(["sparse-sweep", "--sizes", "50", "--engines",
                     "edgelist,contracting", "--repeats", "1"]) == 0
        out = capsys.readouterr().out
        assert "edgelist" in out and "contracting" in out
        assert "True" in out

    def test_auto_resolves(self, capsys):
        assert main(["sparse-sweep", "--sizes", "40", "--engines",
                     "auto"]) == 0
        out = capsys.readouterr().out
        assert "auto" in out

    def test_json_archive(self, tmp_path, capsys):
        target = tmp_path / "sparse.json"
        assert main(["sparse-sweep", "--sizes", "30", "--engines",
                     "contracting", "--json", str(target)]) == 0
        from repro.analysis.sweep import load_records

        records = load_records(target)
        assert records and all(r.correct for r in records)

    def test_multiple_edge_factors(self, capsys):
        assert main(["sparse-sweep", "--sizes", "30", "--edge-factors",
                     "1.0,3.0", "--engines", "edgelist"]) == 0
        out = capsys.readouterr().out
        assert "2 runs" in out


class TestServeBench:
    def test_closed_loop(self, capsys):
        assert main(["serve-bench", "--count", "16", "--sizes", "8,16",
                     "--concurrency", "2"]) == 0
        out = capsys.readouterr().out
        assert "served 16/16 ok" in out
        assert "batches:" in out
        assert "latency ms:" in out

    def test_open_loop_with_baseline(self, capsys):
        assert main(["serve-bench", "--count", "12", "--sizes", "8,16",
                     "--rps", "5000", "--baseline"]) == 0
        out = capsys.readouterr().out
        assert "served 12/12 ok" in out
        assert "naive sequential baseline" in out
        assert "speedup" in out

    def test_json_snapshot(self, tmp_path, capsys):
        import json

        target = tmp_path / "serve.json"
        assert main(["serve-bench", "--count", "10", "--sizes", "8",
                     "--concurrency", "2", "--json", str(target)]) == 0
        payload = json.loads(target.read_text())
        assert payload["bench"]["ok"] == 10
        assert payload["bench"]["count"] == 10
        assert payload["counters"]["completed"] == 10
        assert "latency" in payload

    def test_dense_fraction_and_deadline(self, capsys):
        assert main(["serve-bench", "--count", "10", "--sizes", "8,16",
                     "--dense-fraction", "0.5", "--deadline", "30.0",
                     "--concurrency", "2"]) == 0
        out = capsys.readouterr().out
        assert "served 10/10 ok" in out

    def test_failures_gate_exit_code(self, capsys, monkeypatch):
        # an impossible deadline with --allow-failures still exits 0;
        # without it, unresolved requests flip the exit code
        argv = ["serve-bench", "--count", "6", "--sizes", "64",
                "--concurrency", "1", "--deadline", "1e-9",
                "--wait-timeout", "10.0"]
        rc_strict = main(argv)
        rc_loose = main(argv + ["--allow-failures"])
        capsys.readouterr()
        assert rc_loose == 0
        assert rc_strict in (0, 1)  # scheduler may still beat the deadline


class TestParseBytes:
    def test_suffixes(self):
        from repro.cli import _parse_bytes

        assert _parse_bytes("512") == 512
        assert _parse_bytes("1K") == 1 << 10
        assert _parse_bytes("64M") == 64 << 20
        assert _parse_bytes("2G") == 2 << 30
        assert _parse_bytes("1T") == 1 << 40
        assert _parse_bytes("256MB") == 256 << 20
        assert _parse_bytes("1.5G") == int(1.5 * (1 << 30))
        assert _parse_bytes(" 2g ") == 2 << 30

    def test_malformed(self):
        from repro.cli import _parse_bytes

        for bad in ("", "fast", "12Q", "-1", "0"):
            with pytest.raises(ValueError):
                _parse_bytes(bad)


class TestSolveSharded:
    def test_sharded_method_with_flags(self, capsys):
        assert main([
            "solve", "--random-sparse", "400", "600", "--seed", "7",
            "--method", "sharded", "--shards", "3",
            "--memory-budget", "64M",
        ]) == 0
        out = capsys.readouterr().out
        assert "method = sharded" in out
        assert "components:" in out

    def test_sharded_matches_contracting(self, capsys):
        for method in ("sharded", "contracting"):
            assert main([
                "solve", "--random-sparse", "300", "500", "--seed", "8",
                "--method", method, "--labels",
            ]) == 0
        sharded_out, contracting_out = None, None
        text = capsys.readouterr().out
        lines = [l for l in text.splitlines() if l.startswith("labels:")]
        assert len(lines) == 2 and lines[0] == lines[1]

    def test_malformed_budget_is_a_clean_error(self, capsys):
        assert main([
            "solve", "--random", "6", "--p", "0.5", "--seed", "0",
            "--memory-budget", "lots",
        ]) == 2
        assert "malformed byte size" in capsys.readouterr().err


class TestParseListen:
    def test_host_and_port(self):
        from repro.cli import _parse_listen

        assert _parse_listen("127.0.0.1:7421") == ("127.0.0.1", 7421)
        assert _parse_listen("0.0.0.0:80") == ("0.0.0.0", 80)
        assert _parse_listen(":9000") == ("0.0.0.0", 9000)
        assert _parse_listen("localhost:0") == ("localhost", 0)

    def test_malformed(self):
        from repro.cli import _parse_listen

        for bad in ("", "7421", "host:", "host:notaport", "host:-1",
                    "host:65536"):
            with pytest.raises(ValueError):
                _parse_listen(bad)


class TestServeBenchListen:
    def test_wire_open_loop(self, capsys):
        assert main(["serve-bench", "--listen", "--count", "24",
                     "--sizes", "8,16", "--rps", "2000",
                     "--connections", "8"]) == 0
        out = capsys.readouterr().out
        assert "wire: 24/24 ok over 8 connection(s)" in out
        assert "wire latency ms:" in out

    def test_wire_closed_loop(self, capsys):
        assert main(["serve-bench", "--listen", "--count", "16",
                     "--sizes", "8", "--connections", "4"]) == 0
        out = capsys.readouterr().out
        assert "wire: 16/16 ok over 4 connection(s)" in out

    def test_wire_json_snapshot(self, tmp_path, capsys):
        import json

        target = tmp_path / "wire.json"
        assert main(["serve-bench", "--listen", "--count", "12",
                     "--sizes", "8", "--rps", "2000", "--connections",
                     "4", "--json", str(target)]) == 0
        payload = json.loads(target.read_text())
        client = payload["bench"]["wire_client"]
        assert client["ok"] == 12
        assert client["label_mismatches"] == 0
        assert client["connections"] == 4
        assert payload["wire"]["connections_total"] >= 4
        assert payload["wire"]["frames_in"] >= 12

    def test_listen_rejects_dense_fraction(self, capsys):
        assert main(["serve-bench", "--listen", "--count", "8",
                     "--dense-fraction", "0.5"]) == 2
        assert "dense" in capsys.readouterr().err


class TestServeListenCommand:
    def test_sigint_drains_and_exits_zero(self, tmp_path):
        import json
        import os
        import signal
        import socket
        import subprocess
        import sys as _sys
        import time

        env = dict(os.environ)
        env["PYTHONPATH"] = "src"
        proc = subprocess.Popen(
            [_sys.executable, "-m", "repro", "serve",
             "--listen", "127.0.0.1:0", "--workers", "1"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
            env=env, text=True)
        try:
            line = proc.stdout.readline()
            assert "serving on" in line, line
            port = int(line.split()[2].rsplit(":", 1)[1])
            # one JSON-lines request proves the listener is live
            with socket.create_connection(("127.0.0.1", port),
                                          timeout=10) as sock:
                stream = sock.makefile("rwb")
                stream.write(b'{"n": 3, "edges": [[0, 2]]}\n')
                stream.flush()
                doc = json.loads(stream.readline())
                assert doc["labels"] == [0, 1, 0]
            proc.send_signal(signal.SIGINT)
            out, err = proc.communicate(timeout=30)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        assert proc.returncode == 0, (out, err)
        assert "drained and stopped cleanly" in out
