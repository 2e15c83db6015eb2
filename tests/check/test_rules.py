"""Every lint rule, exercised in both directions via the fixture corpus.

The fixtures under ``tests/check/fixtures`` are parsed, never imported:
``good/*`` must produce zero findings, ``bad/*`` must trip exactly the
rules it plants.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.check import CheckEngine, all_rules, rule_ids

FIXTURES = Path(__file__).parent / "fixtures"

#: fixture file -> exact set of rule ids it must trip.
CASES = [
    ("good/shm_ok.py", set()),
    ("bad/shm_bad.py", {"SHM201", "SHM202", "LOCK301"}),
    ("good/memmap_ok.py", set()),
    ("bad/memmap_bad.py", {"SHM203"}),
    ("good/memmap_handoff.py", set()),
    ("bad/memmap_handoff.py", {"SHM203"}),
    ("good/chunk_ok.py", set()),
    ("bad/chunk_bad.py", {"SHM204"}),
    ("good/lockset_ok.py", set()),
    ("bad/lockset_bad.py", {"LOCK301", "LOCK302"}),
    ("good/async_ok.py", set()),
    ("bad/async_bad.py", {"ASYNC401", "ASYNC402", "ASYNC403", "ASYNC404"}),
    ("good/protocol.py", set()),
    ("bad/protocol.py", {"PROTO501"}),
]


@pytest.fixture(scope="module")
def engine() -> CheckEngine:
    return CheckEngine(all_rules())


@pytest.mark.parametrize("relpath,expected", CASES, ids=[c[0] for c in CASES])
def test_fixture_findings(engine, relpath, expected):
    path = FIXTURES / relpath
    findings, _ = engine.check_source(path.as_posix(), path.read_text())
    assert {f.rule_id for f in findings} == expected


def test_every_rule_has_a_bad_and_a_good_fixture():
    """The corpus covers the complete rule table in both directions."""
    tripped = set().union(*(expected for _, expected in CASES))
    # ARCH601 needs a layer config + package tree, so its fixtures live
    # in test_layering.py rather than the flat corpus
    assert tripped | {"ARCH601"} == set(rule_ids())
    # every bad fixture has a clean counterpart shape
    assert sum(1 for rel, exp in CASES if not exp) >= 4


def test_findings_carry_location_and_severity(engine):
    path = FIXTURES / "bad/shm_bad.py"
    findings, _ = engine.check_source(path.as_posix(), path.read_text())
    for f in findings:
        assert f.line > 0 and f.col > 0
        assert f.severity in ("error", "warning")
        assert f.path.endswith("shm_bad.py")
        assert f.rule_id in f.render() and str(f.line) in f.render()
    # SHM202 is a warning, SHM201 an error
    by_rule = {f.rule_id: f.severity for f in findings}
    assert by_rule["SHM202"] == "warning"
    assert by_rule["SHM201"] == "error"


def test_shm204_counts_each_offslice_write(engine):
    path = FIXTURES / "bad/chunk_bad.py"
    findings, _ = engine.check_source(path.as_posix(), path.read_text())
    assert sum(1 for f in findings if f.rule_id == "SHM204") == 3
    # the scatter finding names the remedy
    scatter = [f for f in findings if "scatter" in f.message]
    assert len(scatter) == 1 and "private per-worker slab" in scatter[0].message


def test_shm204_ignores_non_worker_lo_hi(engine):
    """lo/hi as plain array params (not chunk bounds) never trip."""
    source = (
        "def _canonical_pairs(n, lo, hi):\n"
        "    packed = lo * n + hi\n"
        "    packed[0] = 0\n"
        "    return packed\n"
    )
    findings, _ = engine.check_source("pkg/edgelist.py", source)
    assert findings == []


def test_rule_subset_selection():
    engine = CheckEngine(all_rules(only=["SHM202"]))
    path = FIXTURES / "bad/shm_bad.py"
    findings, _ = engine.check_source(path.as_posix(), path.read_text())
    assert {f.rule_id for f in findings} == {"SHM202"}


def test_unknown_rule_id_rejected():
    with pytest.raises(ValueError, match="unknown rule ids"):
        all_rules(only=["NOPE999"])


def test_suppression_comment(engine):
    source = (
        "def probe(ref):\n"
        "    handle = SharedArray.attach(ref)  # repro-check: allow[SHM201] ok\n"
        "    total = handle.array.sum()\n"
        "    return int(total)\n"
    )
    findings, suppressed = engine.check_source("pkg/shm.py", source)
    assert findings == []
    assert suppressed == 1


def test_suppression_line_above(engine):
    source = (
        "def probe(ref):\n"
        "    # repro-check: allow[SHM201] the pool owns the segment\n"
        "    handle = SharedArray.attach(ref)\n"
        "    total = handle.array.sum()\n"
        "    return int(total)\n"
    )
    findings, suppressed = engine.check_source("pkg/shm.py", source)
    assert findings == []
    assert suppressed == 1


def test_suppression_star_and_wrong_id(engine):
    base = (
        "def probe(ref):\n"
        "    handle = SharedArray.attach(ref){}\n"
        "    total = handle.array.sum()\n"
        "    return int(total)\n"
    )
    starred = base.format("  # repro-check: allow[*]")
    findings, suppressed = engine.check_source("pkg/shm.py", starred)
    assert findings == [] and suppressed == 1
    wrong = base.format("  # repro-check: allow[LOCK301]")
    findings, suppressed = engine.check_source("pkg/shm.py", wrong)
    assert [f.rule_id for f in findings] == ["SHM201"] and suppressed == 0
