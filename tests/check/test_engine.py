"""Engine mechanics: path walking, reports, renderers."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.check import CheckEngine, all_rules

FIXTURES = Path(__file__).parent / "fixtures"


@pytest.fixture(scope="module")
def engine() -> CheckEngine:
    return CheckEngine(all_rules())


def test_check_paths_walks_directories(engine):
    report = engine.check_paths([FIXTURES.as_posix()])
    assert report.files_scanned == len(list(FIXTURES.rglob("*.py")))
    assert not report.ok
    assert report.all_findings and report.parse_errors == []


def test_missing_path_raises(engine):
    with pytest.raises(FileNotFoundError):
        engine.check_paths(["no/such/dir"])


def test_parse_error_becomes_finding(engine, tmp_path):
    bad = tmp_path / "broken.py"
    bad.write_text("def oops(:\n")
    report = engine.check_paths([bad.as_posix()])
    assert not report.ok
    assert [f.rule_id for f in report.parse_errors] == ["PARSE"]


def test_report_renderers(engine):
    report = engine.check_paths([(FIXTURES / "bad").as_posix()])
    text = report.render_text()
    assert "finding" in text
    stats = report.render_stats()
    assert "repro-check stats" in stats and "files scanned" in stats

    payload = report.to_json()
    assert payload["stats"]["files_scanned"] == report.files_scanned
    assert len(payload["findings"]) == len(report.all_findings)
    json.dumps(payload)  # must be serialisable


def test_per_rule_counts_include_clean_rules(engine):
    report = engine.check_paths([(FIXTURES / "good").as_posix()])
    counts = report.per_rule_counts()
    assert set(counts) == {r.rule_id for r in engine.rules}
    assert all(v == 0 for v in counts.values())
    assert report.ok


def test_invalid_severity_rejected():
    class BadRule(all_rules()[0].__class__):
        severity = "fatal"

    with pytest.raises(ValueError, match="severity"):
        CheckEngine([BadRule()])
