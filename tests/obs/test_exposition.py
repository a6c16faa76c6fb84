"""Prometheus exposition + HTTP endpoint tests.

The checker below is a deliberately minimal validator of the Prometheus
text format 0.0.4 — enough to catch malformed names, labels, values,
duplicate/misordered HELP/TYPE lines, a metric family split into more
than one group, and inconsistent histograms.
"""

import json
import re
import urllib.error
import urllib.request

import pytest

from repro.obs import MetricsServer, render_prometheus
from repro.server.metrics import MetricsRegistry
from repro.shard.router import ShardScoreboard
from repro.storage.stats import IoStats

_SAMPLE = re.compile(
    r"^([a-zA-Z_:][a-zA-Z0-9_:]*)(?:\{(.*)\})?\s+(\S+)$"
)
_LABEL = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')
_TYPES = ("counter", "gauge", "histogram", "summary", "untyped")


def _base_name(sample_name: str, types: dict) -> str:
    """Histogram samples attach _bucket/_sum/_count to the declared name."""
    for suffix in ("_bucket", "_sum", "_count"):
        base = sample_name.removesuffix(suffix)
        if base != sample_name and types.get(base) == "histogram":
            return base
    return sample_name


def parse_prometheus(text: str) -> dict:
    """Validate *text* and return {metric_name: [(labels, value)]}."""
    helps: dict[str, str] = {}
    types: dict[str, str] = {}
    samples: dict[str, list] = {}
    current = None  # the family whose group of samples is open
    closed: set[str] = set()
    for lineno, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            continue
        if line.startswith("# HELP "):
            name, _, help_text = line[len("# HELP "):].partition(" ")
            assert help_text, f"line {lineno}: HELP without text"
            assert name not in helps, f"line {lineno}: duplicate HELP {name}"
            helps[name] = help_text
            continue
        if line.startswith("# TYPE "):
            parts = line.split(" ")
            assert len(parts) == 4, f"line {lineno}: malformed TYPE"
            name, mtype = parts[2], parts[3]
            assert mtype in _TYPES, f"line {lineno}: bad type {mtype}"
            assert name not in types, f"line {lineno}: duplicate TYPE {name}"
            assert name not in samples, f"line {lineno}: TYPE after samples"
            types[name] = mtype
            continue
        assert not line.startswith("#"), f"line {lineno}: stray comment"
        match = _SAMPLE.match(line)
        assert match, f"line {lineno}: unparsable sample {line!r}"
        name, label_text, value_text = match.groups()
        labels = {}
        if label_text:
            matched = _LABEL.findall(label_text)
            rebuilt = ",".join(f'{k}="{v}"' for k, v in matched)
            assert rebuilt == label_text, (
                f"line {lineno}: malformed labels {label_text!r}"
            )
            labels = dict(matched)
        value = float(value_text)  # accepts +Inf/-Inf/NaN spellings
        base = _base_name(name, types)
        assert base in types, f"line {lineno}: sample {name} lacks TYPE"
        # 0.0.4: all samples of one metric form a single group
        if base != current:
            assert base not in closed, (
                f"line {lineno}: {base} re-appears after another family started"
            )
            closed.add(current)
            current = base
        samples.setdefault(name, []).append((labels, value))
    # histogram consistency: cumulative buckets ending at +Inf == _count
    for name, mtype in types.items():
        if mtype != "histogram":
            continue
        buckets = samples.get(f"{name}_bucket", [])
        assert buckets, f"histogram {name} has no _bucket samples"
        counts = [value for labels, value in buckets]
        assert counts == sorted(counts), f"{name} buckets not cumulative"
        assert buckets[-1][0]["le"] == "+Inf"
        (_, count_value), = samples[f"{name}_count"]
        assert buckets[-1][1] == count_value
    return samples


def _busy_registry() -> MetricsRegistry:
    registry = MetricsRegistry()
    for _ in range(4):
        registry.record_submitted()
    registry.record_queue_wait(0.002)
    registry.record_success(
        "q1", 0.02,
        IoStats(sequential_page_reads=8, sma_page_reads=2,
                heap_page_reads=6, buffer_hits=5, buckets_fetched=10,
                buckets_skipped=30, tuples_scanned=320),
        strategy="sma_gaggr",
    )
    registry.record_success("range_scan", 0.001, IoStats(), strategy="sma_scan")
    registry.record_failure("q1")
    registry.record_rejected()
    registry.record_grading("LINEITEM", 0.6, 0.3, 0.1)
    registry.record_ledger(
        {
            "queue_wait_s": 0.002,
            "fan_out": 2,
            "wall_by_kind": {"query": 0.02, "shard_execute": 0.015},
            "tables": {
                "LINEITEM": {
                    "sma_page_reads": 2, "heap_page_reads": 6,
                    "page_reads": 8, "buffer_hits": 5,
                    "tuples_scanned": 320, "buckets_fetched": 10,
                    "buckets_skipped": 30,
                }
            },
        }
    )
    return registry


class TestRenderPrometheus:
    def test_output_passes_format_checker(self):
        samples = parse_prometheus(render_prometheus(_busy_registry().snapshot()))
        assert samples  # non-empty exposition

    def test_families_stay_contiguous_with_many_tables_and_shards(self):
        registry = _busy_registry()
        registry.record_grading("ORDERS", 0.2, 0.5, 0.3)
        snapshot = registry.snapshot()
        scoreboard = ShardScoreboard(11)
        for shard_id in range(11):
            scoreboard.record_shard_success(shard_id, 0.01 * (shard_id + 1))
        scoreboard.record_shard_failure(3, unavailable=True)
        snapshot["shard"] = scoreboard.snapshot()
        samples = parse_prometheus(render_prometheus(snapshot))
        assert len(samples["repro_grading_fraction"]) == 6
        assert [labels["shard"] for labels, _ in samples["repro_shard_up"]] == [
            str(shard_id) for shard_id in range(11)  # numeric: "10" after "2"
        ]
        assert len(samples["repro_shard_latency_seconds"]) == 33

    def test_checker_rejects_a_split_family(self):
        text = (
            "# TYPE a gauge\n# TYPE b gauge\n"
            'a{t="x"} 1\nb{t="x"} 1\na{t="y"} 1\n'
        )
        with pytest.raises(AssertionError, match="re-appears"):
            parse_prometheus(text)

    def test_core_series_values(self):
        samples = parse_prometheus(render_prometheus(_busy_registry().snapshot()))
        outcomes = dict(
            (labels["outcome"], value)
            for labels, value in samples["repro_queries_total"]
        )
        assert outcomes["submitted"] == 4
        assert outcomes["completed"] == 2
        assert outcomes["failed"] == 1
        assert outcomes["rejected"] == 1
        by_kind = {
            (labels["kind"], labels["outcome"]): value
            for labels, value in samples["repro_queries_by_kind_total"]
        }
        assert by_kind[("q1", "completed")] == 1
        assert by_kind[("q1", "failed")] == 1
        file_reads = {
            labels["file"]: value
            for labels, value in samples["repro_io_file_page_reads_total"]
        }
        assert file_reads == {"sma": 2, "heap": 6}

    def test_query_ledger_series(self):
        samples = parse_prometheus(render_prometheus(_busy_registry().snapshot()))
        assert samples["repro_query_ledger_queries_total"][0][1] == 1
        assert samples["repro_query_ledger_fan_out_total"][0][1] == 2
        span_s = {
            labels["kind"]: value
            for labels, value in samples["repro_query_ledger_span_seconds_total"]
        }
        assert span_s == {"query": 0.02, "shard_execute": 0.015}
        page_reads = {
            labels["file"]: value
            for labels, value in samples["repro_query_ledger_page_reads_total"]
        }
        assert page_reads == {"sma": 2, "heap": 6}
        # a registry that never saw a ledger renders none of the series
        empty = parse_prometheus(render_prometheus(MetricsRegistry().snapshot()))
        assert "repro_query_ledger_queries_total" not in empty

    def test_grading_gauges_and_warning(self):
        registry = MetricsRegistry(ambivalent_break_even=0.25)
        registry.record_grading("LINEITEM", 0.5, 0.4, 0.1)  # crosses 0.25
        samples = parse_prometheus(render_prometheus(registry.snapshot()))
        fractions = {
            (labels["table"], labels["grade"]): value
            for labels, value in samples["repro_grading_fraction"]
        }
        assert fractions[("LINEITEM", "ambivalent")] == 0.4
        (labels, warnings), = samples["repro_ambivalent_warnings_total"]
        assert labels["table"] == "LINEITEM"
        assert warnings == 1

    def test_latency_histogram_counts_observations(self):
        samples = parse_prometheus(render_prometheus(_busy_registry().snapshot()))
        (_, count), = samples["repro_query_latency_seconds_count"]
        assert count == 2

    def test_label_escaping(self):
        registry = MetricsRegistry()
        registry.record_success('we"ird\\kind\nnewline', 0.01)
        text = render_prometheus(registry.snapshot())
        samples = parse_prometheus(text)
        labels, value = next(
            (labels, value)
            for labels, value in samples["repro_queries_by_kind_total"]
        )
        assert value == 1
        assert "\n" not in labels["kind"]  # escaped, not literal

    def test_custom_namespace(self):
        text = render_prometheus(_busy_registry().snapshot(), namespace="sma")
        samples = parse_prometheus(text)
        assert "sma_queries_total" in samples
        assert not any(name.startswith("repro_") for name in samples)


class TestMetricsServer:
    def _get(self, url):
        with urllib.request.urlopen(url, timeout=5) as response:
            return response.status, response.headers, response.read().decode()

    def test_endpoints(self):
        registry = _busy_registry()
        with MetricsServer(registry.snapshot, port=0) as server:
            assert server.port != 0  # port 0 resolved to a free port

            status, headers, body = self._get(f"{server.url}/metrics")
            assert status == 200
            assert headers["Content-Type"].startswith("text/plain")
            parse_prometheus(body)

            status, _, body = self._get(f"{server.url}/healthz")
            health = json.loads(body)
            assert status == 200 and health["status"] == "ok"
            assert health["uptime_s"] >= 0

            status, _, body = self._get(f"{server.url}/snapshot")
            snapshot = json.loads(body)
            assert status == 200
            assert snapshot["queries"]["completed"] == 2

    def test_unknown_path_is_404(self):
        registry = MetricsRegistry()
        with MetricsServer(registry.snapshot, port=0) as server:
            try:
                urllib.request.urlopen(f"{server.url}/nope", timeout=5)
            except urllib.error.HTTPError as error:
                assert error.code == 404
            else:
                raise AssertionError("expected a 404")
