"""Tests for the serve metrics layer."""

import json

import pytest

from repro.serve.metrics import RESERVOIR_SIZE, ServeMetrics


class TestCounters:
    def test_submitted_splits_admitted_and_shed(self):
        m = ServeMetrics()
        m.record_submitted(admitted=True)
        m.record_submitted(admitted=True)
        m.record_submitted(admitted=False)
        snap = m.snapshot()["counters"]
        assert snap["submitted"] == 3
        assert snap["admitted"] == 2
        assert snap["shed"] == 1

    def test_completion_records_latency_and_miss(self):
        m = ServeMetrics()
        m.record_completion(0.001, 0.002, 0.003, deadline_missed=True)
        m.record_completion(0.001, 0.002, 0.003, deadline_missed=False)
        snap = m.snapshot()
        assert snap["counters"]["completed"] == 2
        assert snap["counters"]["deadline_misses"] == 1
        assert snap["latency"]["count"] == 2

    def test_record_completions_batch_form_matches_singles(self):
        batch, single = ServeMetrics(), ServeMetrics()
        samples = [(0.001, 0.002, 0.003, False), (0.004, 0.005, 0.006, True)]
        batch.record_completions(samples)
        for q, s, l, missed in samples:
            single.record_completion(q, s, l, deadline_missed=missed)
        a, b = batch.snapshot(), single.snapshot()
        assert a["counters"]["completed"] == b["counters"]["completed"] == 2
        assert a["counters"]["deadline_misses"] == 1
        assert a["latency"] == b["latency"]
        assert a["queue_time"] == b["queue_time"]

    def test_timeout_counts_as_deadline_miss(self):
        m = ServeMetrics()
        m.record_timeout()
        snap = m.snapshot()["counters"]
        assert snap["timed_out"] == 1
        assert snap["deadline_misses"] == 1

    def test_failure_counters(self):
        m = ServeMetrics()
        m.record_cancelled()
        m.record_error()
        m.record_retry()
        snap = m.snapshot()["counters"]
        assert snap["cancelled"] == 1
        assert snap["errors"] == 1
        assert snap["retries"] == 1


class TestOccupancy:
    def test_mean_and_max(self):
        m = ServeMetrics()
        m.record_batch(4)
        m.record_batch(8)
        occ = m.snapshot()["batch_occupancy"]
        assert occ["mean"] == pytest.approx(6.0)
        assert occ["max"] == 8

    def test_zero_batches(self):
        assert ServeMetrics().snapshot()["batch_occupancy"]["mean"] is None


class TestLatencySummary:
    def test_percentiles_in_milliseconds(self):
        m = ServeMetrics()
        for i in range(1, 101):
            m.record_completion(0.0, 0.0, i / 1000.0)
        latency = m.snapshot()["latency"]
        assert latency["count"] == 100
        assert latency["p50_ms"] == pytest.approx(50.5, abs=1.0)
        assert latency["p99_ms"] <= latency["max_ms"] == pytest.approx(100.0)
        assert latency["p50_ms"] <= latency["p95_ms"] <= latency["p99_ms"]

    def test_empty_reservoir_summary(self):
        # every statistic is null (not 0.0): "no traffic yet" must not
        # masquerade as "everything resolved instantly"
        assert ServeMetrics().snapshot()["latency"] == {
            "count": 0,
            "p50_ms": None,
            "p95_ms": None,
            "p99_ms": None,
            "mean_ms": None,
            "max_ms": None,
        }

    def test_empty_occupancy_mean_is_null(self):
        assert ServeMetrics().snapshot()["batch_occupancy"]["mean"] is None

    def test_reservoir_is_bounded(self):
        m = ServeMetrics(reservoir_size=8)
        for i in range(100):
            m.record_completion(0.0, 0.0, float(i))
        assert m.snapshot()["latency"]["count"] == 8

    def test_default_reservoir_size(self):
        m = ServeMetrics()
        assert m._latency_s.maxlen == RESERVOIR_SIZE


class TestSnapshot:
    def test_gauges_merged(self):
        snap = ServeMetrics().snapshot({"queue_depth": 3})
        assert snap["gauges"] == {"queue_depth": 3}

    def test_no_gauges_key_without_gauges(self):
        assert "gauges" not in ServeMetrics().snapshot()

    def test_to_json_round_trips(self):
        m = ServeMetrics()
        m.record_submitted(admitted=True)
        m.record_completion(0.001, 0.002, 0.003)
        parsed = json.loads(m.to_json(gauges={"in_flight": 0}))
        assert parsed["counters"]["completed"] == 1
        assert parsed["gauges"]["in_flight"] == 0
        assert parsed["throughput_rps"] > 0


class TestWireMetrics:
    def test_connection_gauge_tracks_open_and_total(self):
        m = ServeMetrics()
        m.record_connection_open()
        m.record_connection_open()
        m.record_connection_close()
        wire = m.snapshot()["wire"]
        assert wire["open_connections"] == 1
        assert wire["connections_total"] == 2

    def test_traffic_counters_accumulate(self):
        m = ServeMetrics()
        m.record_wire_in(40)
        m.record_wire_in(1024, frames=3)
        m.record_wire_out(36)
        wire = m.snapshot()["wire"]
        assert wire["bytes_in"] == 1064
        assert wire["frames_in"] == 4
        assert wire["bytes_out"] == 36
        assert wire["frames_out"] == 1

    def test_protocol_errors_counted(self):
        m = ServeMetrics()
        m.record_wire_error()
        m.record_wire_error()
        assert m.snapshot()["wire"]["protocol_errors"] == 2

    def test_accept_to_admit_summary(self):
        m = ServeMetrics()
        for s in (0.001, 0.002, 0.003):
            m.record_admit(s)
        summary = m.snapshot()["wire"]["accept_to_admit"]
        assert summary["count"] == 3
        assert summary["p50_ms"] == pytest.approx(2.0, rel=0.2)

    def test_quiet_wire_section_is_all_zero(self):
        wire = ServeMetrics().snapshot()["wire"]
        assert wire["open_connections"] == 0
        assert wire["connections_total"] == 0
        assert wire["protocol_errors"] == 0
        assert wire["accept_to_admit"]["count"] == 0

    def test_wire_section_round_trips_through_json(self):
        m = ServeMetrics()
        m.record_connection_open()
        m.record_wire_in(40)
        m.record_admit(0.001)
        parsed = json.loads(m.to_json())
        assert parsed["wire"]["connections_total"] == 1
        assert parsed["wire"]["frames_in"] == 1
