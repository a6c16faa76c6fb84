"""Text rendering of service metrics and workload results.

This is the ``repro serve --report`` surface: a compact, monospace dump
of the :class:`~repro.server.metrics.MetricsRegistry` snapshot plus the
workload summary.  The head (queries, latency table, ``io``) is laid out
by hand; every other section is whatever the metric catalogue of
:mod:`repro.obs.exposition` finds in the snapshot, so the report shows
exactly the series ``/metrics`` exports, under the same names.
"""

from __future__ import annotations

import datetime
from typing import TYPE_CHECKING

from repro.obs.exposition import walk
from repro.textfmt import format_table, human_seconds

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.server.workload import WorkloadResult


def _latency_row(label: str, data: dict) -> tuple:
    if not data or not data.get("count"):
        return (label, 0, "-", "-", "-", "-", "-")
    return (
        label,
        int(data["count"]),
        human_seconds(data["mean_s"]),
        human_seconds(data["p50_s"]),
        human_seconds(data["p95_s"]),
        human_seconds(data["p99_s"]),
        human_seconds(data["max_s"]),
    )


#: snapshot sections the hand-laid head of the report already covers
_HEAD_SECTIONS = ("service", "queries", "latency_hist", "queue_wait_hist", "io")


def _number(value: float) -> str:
    return str(value) if type(value) is int else f"{value:.4g}"


def render_metrics(snapshot: dict) -> str:
    """Render one metrics snapshot (see ``MetricsRegistry.snapshot``)."""
    lines: list[str] = ["== query service metrics =="]

    service = snapshot.get("service") or {}
    if service:
        started = datetime.datetime.fromtimestamp(
            service["started_at"], tz=datetime.timezone.utc
        )
        lines.append(
            f"service: started {started.isoformat(timespec='seconds')}, "
            f"uptime {service['uptime_s']:.1f}s, "
            f"ambivalent break-even {service['ambivalent_break_even']:g}"
        )

    queries = snapshot["queries"]
    lines.append(
        "queries: "
        + ", ".join(f"{name} {queries[name]}" for name in (
            "submitted", "completed", "failed", "rejected",
            "timed_out", "cancelled", "in_flight",
        ))
    )
    by_kind = queries.get("by_kind") or {}
    for kind, outcomes in by_kind.items():
        lines.append(
            f"  {kind}: "
            + ", ".join(f"{name} {count}" for name, count in outcomes.items())
        )

    latency = snapshot["latency_s"]
    rows = [_latency_row("all", latency["overall"])]
    rows.extend(
        _latency_row(kind, data) for kind, data in latency["by_kind"].items()
    )
    rows.append(_latency_row("queue wait", snapshot["queue_wait_s"]))
    lines.append("")
    lines.append(
        format_table(
            ["latency", "count", "mean", "p50", "p95", "p99", "max"], rows
        )
    )

    io = snapshot["io"]
    lines.append("")
    lines.append("io (summed per-query deltas):")
    lines.append(
        f"  pages: {io['page_reads']} physical "
        f"({io['sequential_page_reads']} seq / {io['skip_page_reads']} skip / "
        f"{io['random_page_reads']} rnd), {io['buffer_hits']} buffer hits "
        f"(hit rate {io['buffer_hit_rate']:.1%}), {io['page_writes']} writes, "
        f"{io['read_retries']} read retries"
    )
    if io["sma_page_reads"] or io["heap_page_reads"]:
        lines.append(
            f"  files: {io['sma_page_reads']} SMA-file / "
            f"{io['heap_page_reads']} heap page reads "
            f"(SMA fraction {io['sma_page_fraction']:.1%})"
        )
    lines.append(
        f"  buckets: {io['buckets_fetched']} fetched, "
        f"{io['buckets_skipped']} skipped "
        f"(skip rate {io['bucket_skip_rate']:.1%})"
    )
    lines.append(
        f"  tuples scanned: {io['tuples_scanned']}, "
        f"SMA entries read: {io['sma_entries_read']}"
    )

    section = None
    for metric, samples in walk(snapshot):
        if metric.section in _HEAD_SECTIONS:
            continue
        if metric.section != section:
            section = metric.section
            lines += ["", f"{section.replace('_', ' ')}:"]
        lines.append(
            f"  {metric.name}: "
            + ", ".join(
                " ".join([*map(str, labels.values()), _number(value)])
                for labels, value in samples
            )
        )
    return "\n".join(lines)


def render_workload(result: "WorkloadResult") -> str:
    """One-paragraph workload summary (throughput + outcome counts)."""
    lines = [
        "== workload run ==",
        f"{result.total} queries in {human_seconds(result.wall_seconds)} wall "
        f"→ {result.throughput_qps:.1f} completed queries/s",
        f"outcomes: {result.completed} completed, {result.rejected} rejected, "
        f"{result.timed_out} timed out, {result.cancelled} cancelled, "
        f"{result.failed} failed",
    ]
    return "\n".join(lines)
