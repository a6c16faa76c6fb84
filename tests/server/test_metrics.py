"""Unit tests for the metrics registry and latency recorder."""

import threading

import pytest

from repro.server.metrics import LatencyRecorder, MetricsRegistry
from repro.server.report import render_metrics
from repro.storage.stats import IoStats


class TestLatencyRecorder:
    def test_exact_aggregates(self):
        recorder = LatencyRecorder()
        for value in (0.1, 0.2, 0.3, 0.4):
            recorder.record(value)
        assert recorder.count == 4
        assert recorder.mean == pytest.approx(0.25)
        assert recorder.min == pytest.approx(0.1)
        assert recorder.max == pytest.approx(0.4)

    def test_percentiles_on_known_distribution(self):
        recorder = LatencyRecorder()
        for i in range(1, 101):
            recorder.record(float(i))
        assert recorder.percentile(0) == 1.0
        assert recorder.percentile(100) == 100.0
        assert abs(recorder.percentile(50) - 50.0) <= 1.0
        assert abs(recorder.percentile(95) - 95.0) <= 1.0

    def test_decimation_bounds_memory_keeps_exact_count(self):
        recorder = LatencyRecorder(max_samples=64)
        for i in range(10_000):
            recorder.record(float(i % 97))
        assert recorder.count == 10_000
        assert len(recorder._samples) <= 64
        assert recorder.min == 0.0
        assert recorder.max == 96.0
        # Percentiles stay plausible on the decimated sample.
        assert 30.0 <= recorder.percentile(50) <= 70.0

    def test_empty_recorder(self):
        recorder = LatencyRecorder()
        assert recorder.mean == 0.0
        assert recorder.percentile(50) == 0.0
        assert recorder.as_dict() == {"count": 0}

    def test_invalid_percentile(self):
        recorder = LatencyRecorder()
        recorder.record(1.0)
        with pytest.raises(ValueError):
            recorder.percentile(101)

    def test_invalid_max_samples(self):
        with pytest.raises(ValueError):
            LatencyRecorder(max_samples=1)


class TestMetricsRegistry:
    def test_outcome_counters(self):
        registry = MetricsRegistry()
        for _ in range(3):
            registry.record_submitted()
        registry.record_success("q1", 0.1)
        registry.record_failure("q1")
        registry.record_timeout("q1")
        registry.record_rejected()
        snapshot = registry.snapshot()
        assert snapshot["queries"] == {
            "submitted": 3,
            "completed": 1,
            "failed": 1,
            "rejected": 1,
            "timed_out": 1,
            "cancelled": 0,
            "in_flight": 0,
            "by_kind": {
                "q1": {"completed": 1, "failed": 1, "timed_out": 1},
            },
        }

    def test_io_totals_merge_per_query_deltas(self):
        registry = MetricsRegistry()
        registry.record_success(
            "a", 0.1, IoStats(buffer_hits=10, buckets_skipped=4, buckets_fetched=6)
        )
        registry.record_success(
            "b", 0.2, IoStats(buffer_hits=5, sequential_page_reads=5,
                              buckets_skipped=1, buckets_fetched=9)
        )
        io = registry.snapshot()["io"]
        assert io["buffer_hits"] == 15
        assert io["page_reads"] == 5
        assert io["buffer_hit_rate"] == pytest.approx(15 / 20)
        assert io["buckets_skipped"] == 5
        assert io["bucket_skip_rate"] == pytest.approx(5 / 20)

    def test_latency_by_kind(self):
        registry = MetricsRegistry()
        registry.record_success("fast", 0.01)
        registry.record_success("slow", 1.0)
        latency = registry.snapshot()["latency_s"]
        assert latency["overall"]["count"] == 2
        assert latency["by_kind"]["fast"]["max_s"] == pytest.approx(0.01)
        assert latency["by_kind"]["slow"]["max_s"] == pytest.approx(1.0)

    def test_queue_wait_recorded(self):
        registry = MetricsRegistry()
        registry.record_queue_wait(0.05)
        assert registry.snapshot()["queue_wait_s"]["count"] == 1

    def test_thread_safe_recording(self):
        registry = MetricsRegistry()

        def hammer():
            for _ in range(500):
                registry.record_submitted()
                registry.record_success("k", 0.001, IoStats(buffer_hits=1))

        threads = [threading.Thread(target=hammer) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        snapshot = registry.snapshot()
        assert snapshot["queries"]["submitted"] == 4000
        assert snapshot["queries"]["completed"] == 4000
        assert snapshot["io"]["buffer_hits"] == 4000

    def test_plan_strategy_counters(self):
        registry = MetricsRegistry()
        registry.record_success("q1", 0.1, strategy="sma_gaggr")
        registry.record_success("q1", 0.1, strategy="sma_gaggr")
        registry.record_success("scan", 0.2, strategy="seq_scan")
        registry.record_success("legacy", 0.1)  # no strategy: not counted
        plans = registry.snapshot()["plans"]
        assert plans == {"seq_scan": 1, "sma_gaggr": 2}
        assert sum(plans.values()) <= registry.snapshot()["queries"]["completed"]

    def test_render_metrics_shows_plan_strategies(self):
        registry = MetricsRegistry()
        registry.record_success("q1", 0.1, strategy="sma_gaggr")
        text = render_metrics(registry.snapshot())
        assert "plans" in text
        assert "sma_gaggr 1" in text

    def test_render_metrics_mentions_key_fields(self):
        registry = MetricsRegistry()
        registry.record_submitted()
        registry.record_success("q1", 0.1, IoStats(buffer_hits=3,
                                                   buckets_skipped=2,
                                                   buckets_fetched=2))
        text = render_metrics(registry.snapshot())
        assert "hit rate" in text
        assert "skip rate" in text
        assert "p95" in text
        assert "q1" in text

    def test_render_metrics_shows_every_section_the_catalogue_exports(self):
        from repro.obs.exposition import walk

        registry = MetricsRegistry()
        registry.record_submitted()
        registry.record_success("q1", 0.1, IoStats(), strategy="sma_gaggr")
        registry.record_grading("LINEITEM", 0.6, 0.3, 0.1)
        registry.record_quarantine("LINEITEM", "q1")
        registry.record_ingest("LINEITEM", "insert", 2, 1)
        registry.record_ledger({"fan_out": 2, "tables": {"LINEITEM": {
            "buckets_fetched": 10, "buckets_skipped": 30}}})
        registry.set_scan_info(backend="process", scan_workers=2)
        snapshot = registry.snapshot()
        snapshot["shard"] = {"fanout": {"scatter_queries": 1}, "shards": {
            "0": {"up": True, "requests": 1, "failures": 0}}}
        snapshot["events"] = {"written": 7, "dropped": 0}
        text = render_metrics(snapshot)
        # a quarantine, a grading mix, a skipped-bucket count: all visible
        assert "sma_quarantined_by_table_total: LINEITEM 1" in text
        assert "grading_fraction: LINEITEM qualifying 0.6" in text
        assert "query_ledger_buckets_total: LINEITEM fetched 10, LINEITEM skipped 30" in text
        assert "scan_backend: process 1" in text
        head = ("service", "queries", "latency_hist", "queue_wait_hist", "io")
        missing = {
            metric.name for metric, _ in walk(snapshot)
            if metric.section not in head and metric.name not in text
        }
        assert not missing  # beyond the hand-laid head, nothing is skipped
