"""The repo's own source tree must stay clean under its own linter.

These tests are the local mirror of the CI analysis gate: the API-level
scan of ``src/`` yields zero findings, the ``python -m repro check`` CLI
agrees (exit 0), and the bad fixtures make it exit nonzero.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

from repro.check import CheckEngine, all_rules

REPO_ROOT = Path(__file__).resolve().parents[2]
SRC = REPO_ROOT / "src"
BAD_FIXTURES = Path(__file__).parent / "fixtures" / "bad"


def _run_check(*argv: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC.as_posix()
    return subprocess.run(
        [sys.executable, "-m", "repro", "check", *argv],
        cwd=REPO_ROOT.as_posix(),
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )


def test_src_is_clean_via_api():
    report = CheckEngine(all_rules()).check_paths([SRC.as_posix()])
    assert report.ok, report.render_text()
    assert report.files_scanned > 50
    assert report.suppressed == 0  # src/ carries no allow[...] comments


def test_cli_exit_zero_on_src():
    proc = _run_check("src")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "0 findings" in proc.stdout


def test_cli_exit_nonzero_on_bad_fixtures():
    proc = _run_check(BAD_FIXTURES.as_posix())
    assert proc.returncode == 1
    assert "SHM201" in proc.stdout and "PROTO501" in proc.stdout


def test_cli_json_output():
    proc = _run_check(BAD_FIXTURES.as_posix(), "--json")
    assert proc.returncode == 1
    payload = json.loads(proc.stdout)
    rules = {f["rule"] for f in payload["findings"]}
    assert {"ASYNC403", "PROTO501", "SHM201", "LOCK301"} <= rules


def test_cli_stats_flag():
    proc = _run_check("src", "--stats")
    assert proc.returncode == 0
    assert "repro-check stats" in proc.stdout
    assert "suppressed" in proc.stdout


def test_cli_unknown_rule_id():
    proc = _run_check("src", "--rules", "NOPE999")
    assert proc.returncode != 0

