"""The metric catalogue, its Prometheus rendering and the HTTP endpoint.

:data:`CATALOGUE` declares every exported series once, as a path into the
:meth:`~repro.server.metrics.MetricsRegistry.snapshot` dict;
:func:`render_prometheus` walks it into the Prometheus text format
(version 0.0.4) and :mod:`repro.server.report` walks it for ``--report``,
so neither can name, default or describe a series differently.

:class:`MetricsServer` serves that text from a stdlib
``ThreadingHTTPServer`` on a daemon thread:

==============  ========================================================
``/metrics``    Prometheus text exposition
``/healthz``    liveness JSON (status, uptime)
``/snapshot``   the full snapshot dict as JSON
==============  ========================================================

Everything is read-only and cheap: each request takes one snapshot under
the registry lock; no request ever touches the query path.
"""

from __future__ import annotations

import json
import logging
import re
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Callable, NamedTuple

__all__ = ["CATALOGUE", "Metric", "MetricsServer", "render_prometheus", "walk"]

_GRADES = ("qualifying", "ambivalent", "disqualifying")


def _escape_label(value: object) -> str:
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


def _fmt(value: float) -> str:
    """Render a sample value; integers without a trailing ``.0``."""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int) or (isinstance(value, float) and value.is_integer()):
        return str(int(value))
    return repr(float(value))


class Metric(NamedTuple):
    """One exported series, declared once.

    *path* is a dotted path into the snapshot dict.  A ``{label}``
    placeholder binds a label: when *values* lists that label it takes
    those fixed values in order (a ``{value: text}`` mapping substitutes
    *text* into the key where the snapshot's spelling differs from the
    label value); otherwise it is a whole-segment wildcard over the
    dict's keys.  A leaf the snapshot does not hold renders nothing.
    """

    name: str  # without the namespace prefix
    kind: str  # counter | gauge | histogram
    help: str
    path: str
    values: dict = {}

    @property
    def section(self) -> str:
        """The top-level snapshot key this metric reads."""
        return self.path.partition(".")[0]


#: Every series ``/metrics`` and ``--report`` can show.  Adding a
#: snapshot field to the operator surface is one line here; nothing on
#: the recording path consults this table.
CATALOGUE: tuple[Metric, ...] = (
    Metric("uptime_seconds", "gauge",
           "Seconds since the metrics registry was created.", "service.uptime_s"),
    Metric("start_time_seconds", "gauge",
           "Unix time the service started.", "service.started_at"),
    Metric("grading_ambivalent_break_even", "gauge",
           "Configured ambivalent fraction above which an SMA plan stops "
           "beating the plain scan (the paper's Figure 5 break-even).",
           "service.ambivalent_break_even"),
    Metric("queries_total", "counter",
           "Queries by admission/execution outcome.", "queries.{outcome}",
           {"outcome": ("submitted", "completed", "failed", "rejected",
                        "timed_out", "cancelled")}),
    Metric("queries_in_flight", "gauge",
           "Queries admitted but not yet settled.", "queries.in_flight"),
    Metric("queries_by_kind_total", "counter",
           "Per-workload-kind queries by outcome.",
           "queries.by_kind.{kind}.{outcome}"),
    Metric("query_latency_seconds", "histogram",
           "Query latency histogram.", "latency_hist"),
    Metric("queue_wait_seconds", "histogram",
           "Admission queue wait histogram.", "queue_wait_hist"),
    Metric("io_page_reads_total", "counter",
           "Physical page reads by access class.", "io.{class}_page_reads",
           {"class": ("sequential", "skip", "random")}),
    Metric("io_file_page_reads_total", "counter",
           "Physical page reads split by file kind (SMA-file vs relation heap).",
           "io.{file}_page_reads", {"file": ("sma", "heap")}),
    Metric("io_sma_page_fraction", "gauge",
           "Fraction of physical reads spent on SMA-files "
           "(the paper's SMA pages vs relation pages ratio).",
           "io.sma_page_fraction"),
    Metric("io_buffer_hits_total", "counter",
           "Logical page reads served from the buffer pool.", "io.buffer_hits"),
    Metric("io_buffer_hit_rate", "gauge",
           "Buffer hits over logical page accesses.", "io.buffer_hit_rate"),
    Metric("io_page_writes_total", "counter", "Page writes.", "io.page_writes"),
    Metric("io_buckets_total", "counter",
           "Buckets fetched vs skipped by SMA grading.", "io.buckets_{action}",
           {"action": ("fetched", "skipped")}),
    Metric("io_bucket_skip_rate", "gauge",
           "Buckets skipped over buckets examined.", "io.bucket_skip_rate"),
    Metric("io_tuples_scanned_total", "counter",
           "Tuples inspected by scans.", "io.tuples_scanned"),
    Metric("io_sma_entries_read_total", "counter",
           "SMA entries read (grading + roll-up).", "io.sma_entries_read"),
    Metric("io_read_retries_total", "counter",
           "Transient read faults retried inside the single-flight loader.",
           "io.read_retries"),
    Metric("plans_total", "counter",
           "Completed queries by chosen plan strategy.", "plans.{strategy}"),
    Metric("grading_fraction", "gauge",
           "Mean grading fraction over completed SMA-graded queries (the "
           "paper's Figure 5 axis; compare the ambivalent grade with the "
           "configured break-even gauge).",
           "grading.{table}.mean_{grade}", {"grade": _GRADES}),
    Metric("grading_last_fraction", "gauge",
           "Grading fraction of the most recent SMA-graded query.",
           "grading.{table}.last_{grade}", {"grade": _GRADES}),
    Metric("grading_queries_total", "counter",
           "SMA-graded queries per table.", "grading.{table}.queries"),
    Metric("ambivalent_warnings_total", "counter",
           "Times the ambivalent fraction crossed the configured "
           "break-even threshold.", "grading.{table}.warnings"),
    Metric("sma_quarantined_total", "counter",
           "SMA definitions quarantined after failed integrity checks "
           "(queries fell back to heap scans).", "integrity.sma_quarantined"),
    Metric("sma_repaired_total", "counter",
           "Quarantined SMA definitions rebuilt from the heap.",
           "integrity.sma_repaired"),
    Metric("sma_quarantined_by_table_total", "counter",
           "SMA quarantines per table.", "integrity.by_table.{table}"),
    Metric("shard_scatter_queries_total", "counter",
           "Queries scattered across shard workers.",
           "shard.fanout.scatter_queries"),
    Metric("shard_subqueries_sent_total", "counter",
           "Per-shard subqueries dispatched.", "shard.fanout.subqueries_sent"),
    Metric("shard_gather_merges_total", "counter",
           "Partial aggregation states merged at gather time.",
           "shard.fanout.gather_merges"),
    Metric("shard_up", "gauge",
           "Shard liveness (1 when the last contact succeeded).",
           "shard.shards.{shard}.up"),
    Metric("shard_requests_total", "counter",
           "Subqueries sent to this shard.", "shard.shards.{shard}.requests"),
    Metric("shard_failures_total", "counter",
           "Subqueries that failed on this shard.",
           "shard.shards.{shard}.failures"),
    Metric("shard_latency_seconds", "gauge",
           "Per-shard subquery latency summary.",
           "shard.shards.{shard}.latency_s.{stat}_s",
           {"stat": ("mean", "p95", "max")}),
    Metric("scan_backend", "gauge",
           "Configured scan backend (info metric; value is always 1).",
           "scan.backend"),
    Metric("scan_workers", "gauge",
           "Morsel-scan workers per running query.", "scan.scan_workers"),
    Metric("scan_pool_processes", "gauge",
           "Worker processes spawned by the scan process pools.",
           "scan.pool.workers_spawned"),
    Metric("scan_pool_tasks_total", "counter",
           "Morsel tasks completed by process workers.",
           "scan.pool.tasks_dispatched"),
    Metric("scan_pool_fallbacks_total", "counter",
           "Process-backend dispatches that fell back to threads after a "
           "worker crash.", "scan.pool.fallbacks"),
    Metric("ingest_rows_total", "counter",
           "Rows applied by DML batches, per table and operation.",
           "ingest.rows_total.{table}.{op}"),
    Metric("ingest_epoch", "gauge",
           "Per-table ingest epoch (bumps once per applied DML batch; "
           "readers pin it at admission).", "ingest.epochs.{table}"),
    Metric("ingest_batches_total", "counter",
           "DML batches applied through the write path.", "ingest.batches"),
    Metric("ingest_write_queue_depth", "gauge",
           "DML jobs admitted but not yet settled.", "ingest.write_queue_depth"),
    Metric("ingest_write_queue_peak", "gauge",
           "High-water mark of the write queue depth.",
           "ingest.write_queue_peak"),
    Metric("ingest_intents_resolved_total", "counter",
           "Write-ahead intents resolved during repair.",
           "ingest.intents_{action}", {"action": ("replayed", "rolled_back")}),
    Metric("query_ledger_queries_total", "counter",
           "Traced queries folded into the resource ledger.", "ledger.queries"),
    Metric("query_ledger_queue_wait_seconds_total", "counter",
           "Summed admission queue wait across ledgered queries.",
           "ledger.queue_wait_s"),
    Metric("query_ledger_fan_out_total", "counter",
           "Shard subqueries scattered by ledgered queries.", "ledger.fan_out"),
    Metric("query_ledger_span_seconds_total", "counter",
           "Wall seconds attributed to each span kind across ledgered "
           "queries.", "ledger.span_seconds.{kind}"),
    Metric("query_ledger_page_reads_total", "counter",
           "Per-table physical page reads attributed from merged span "
           "trees, split by file kind.",
           "ledger.tables.{table}.{file}_page_reads", {"file": ("sma", "heap")}),
    Metric("query_ledger_buffer_hits_total", "counter",
           "Per-table buffer-pool hits attributed from merged span trees.",
           "ledger.tables.{table}.buffer_hits"),
    Metric("query_ledger_tuples_scanned_total", "counter",
           "Per-table tuples scanned attributed from merged span trees.",
           "ledger.tables.{table}.tuples_scanned"),
    Metric("query_ledger_buckets_total", "counter",
           "Per-table buckets fetched vs skipped by SMA grading, attributed "
           "from merged span trees (which data was skipped).",
           "ledger.tables.{table}.buckets_{action}",
           {"action": ("fetched", "skipped")}),
    Metric("result_cache_lookups_total", "counter",
           "Result-cache lookups by outcome (flight_hit = served by a "
           "concurrent single-flight leader).", "result_cache.{outcome}",
           {"outcome": {"hit": "hits", "flight_hit": "flight_hits",
                        "miss": "misses"}}),
    Metric("result_cache_stores_total", "counter",
           "Finalized results published into the cache.", "result_cache.stores"),
    Metric("result_cache_evictions_total", "counter",
           "Entries dropped by the LRU capacity bound.",
           "result_cache.evictions"),
    Metric("result_cache_invalidations_total", "counter",
           "Entries evicted by quarantine or go_cold().",
           "result_cache.invalidations"),
    Metric("result_cache_entries", "gauge",
           "Entries currently resident.", "result_cache.entries"),
    Metric("result_cache_capacity", "gauge",
           "Configured entry capacity of the cache.", "result_cache.capacity"),
    Metric("result_cache_hit_rate", "gauge",
           "Fraction of lookups served without execution.",
           "result_cache.hit_rate"),
    Metric("events_written_total", "counter",
           "Events persisted by the JSONL writer.", "events.written"),
    Metric("events_dropped_total", "counter",
           "Events dropped because the bounded queue was full.",
           "events.dropped"),
)

#: A section that has observed nothing renders nothing: the ledger's
#: totals exist from start-up but mean "no traced query yet" while zero.
_GATES = {"ledger": "queries"}

_BIND = re.compile(r"\{(\w+)\}")


def _key_order(key: object) -> tuple:
    """Sorted keys, digit strings numerically (shard "10" after "2")."""
    text = str(key)
    return (0, int(text), "") if text.isdigit() else (1, 0, text)


def _samples(node: object, segments: list[str], labels: dict, values: dict):
    """Yield ``(labels, value)`` for every leaf *segments* reaches."""
    head, rest = segments[0], segments[1:]
    if not isinstance(node, dict):
        return
    bind = _BIND.search(head)
    if bind is None:
        pairs = [(None, head)]
    elif bind[1] in values:
        fixed = values[bind[1]]
        fixed = fixed.items() if isinstance(fixed, dict) else zip(fixed, fixed)
        pairs = [(value, head.replace(bind[0], text)) for value, text in fixed]
    else:
        pairs = [(key, key) for key in sorted(node, key=_key_order)]
    for value, key in pairs:
        if key not in node:
            continue
        bound = labels if bind is None else {**labels, bind[1]: value}
        leaf = node[key]
        if rest:
            yield from _samples(leaf, rest, bound, values)
        elif isinstance(leaf, str):
            # info sample: the text becomes a label named after its key
            yield {**bound, key: leaf}, 1
        else:
            yield bound, leaf


def walk(snapshot: dict):
    """Yield ``(metric, [(labels, value), ...])`` for every catalogue
    entry *snapshot* holds at least one sample of, in catalogue order.

    *snapshot* is a :meth:`MetricsRegistry.snapshot` dict, optionally
    augmented with the ``result_cache`` / ``shard`` / ``events``
    sections ``observed_snapshot()`` adds; a partial dict is fine.
    """
    for metric in CATALOGUE:
        gate = _GATES.get(metric.section)
        if gate and not (snapshot.get(metric.section) or {}).get(gate):
            continue
        samples = list(_samples(snapshot, metric.path.split("."), {}, metric.values))
        if samples:
            yield metric, samples


def _line(name: str, labels: dict, value: float) -> str:
    inner = ",".join(f'{key}="{_escape_label(text)}"' for key, text in labels.items())
    return f"{name}{{{inner}}} {_fmt(value)}" if inner else f"{name} {_fmt(value)}"


def render_prometheus(snapshot: dict, *, namespace: str = "repro") -> str:
    """Render one metrics snapshot as Prometheus text format 0.0.4:
    one contiguous HELP/TYPE/samples group per catalogue metric."""
    lines: list[str] = []
    for metric, samples in walk(snapshot):
        name = f"{namespace}_{metric.name}"
        lines.append(f"# HELP {name} {metric.help}")
        lines.append(f"# TYPE {name} {metric.kind}")
        for labels, value in samples:
            if metric.kind != "histogram":
                lines.append(_line(name, labels, value))
                continue
            # a FixedHistogram.as_dict(): cumulative buckets, sum, count
            for bucket in value.get("buckets", ()):
                le = bucket["le"]
                le_labels = {**labels, "le": le if isinstance(le, str) else _fmt(le)}
                lines.append(_line(f"{name}_bucket", le_labels, bucket["count"]))
            lines.append(_line(f"{name}_sum", labels, value.get("sum", 0.0)))
            lines.append(_line(f"{name}_count", labels, value.get("count", 0)))
    return "\n".join(lines) + "\n"


class MetricsServer:
    """Serves ``/metrics``, ``/healthz`` and ``/snapshot`` on a thread.

    Parameters
    ----------
    snapshot_fn:
        Zero-argument callable returning the current snapshot dict
        (typically ``service.observed_snapshot`` so event-log stats ride
        along).
    port:
        TCP port; 0 picks a free one (read :attr:`port` after start).
    """

    def __init__(
        self,
        snapshot_fn: Callable[[], dict],
        *,
        port: int = 0,
        host: str = "127.0.0.1",
        namespace: str = "repro",
    ):
        self._snapshot_fn = snapshot_fn
        self._namespace = namespace
        server = self

        class Handler(BaseHTTPRequestHandler):
            def log_message(self, *args: object) -> None:  # silence stderr
                return None

            def do_GET(self) -> None:  # noqa: N802 - http.server API
                try:
                    server._route(self)
                except BrokenPipeError:  # pragma: no cover - client went away
                    pass

        self._httpd = ThreadingHTTPServer((host, port), Handler)
        self._httpd.daemon_threads = True
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            name="repro-metrics-http",
            daemon=True,
        )
        self._started = False

    # ------------------------------------------------------------------

    @property
    def host(self) -> str:
        return self._httpd.server_address[0]

    @property
    def port(self) -> int:
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> "MetricsServer":
        """Start serving; logs the *bound* address (useful with port 0)."""
        if not self._started:
            self._started = True
            self._thread.start()
            logging.getLogger("repro.obs").info(
                "metrics server listening on %s", self.url
            )
        return self

    def close(self) -> None:
        if self._started:
            self._httpd.shutdown()
            self._thread.join(timeout=5.0)
        self._httpd.server_close()

    def __enter__(self) -> "MetricsServer":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------

    def _route(self, handler: BaseHTTPRequestHandler) -> None:
        path = handler.path.split("?", 1)[0]
        if path == "/metrics":
            body = render_prometheus(
                self._snapshot_fn(), namespace=self._namespace
            ).encode("utf-8")
            content_type = "text/plain; version=0.0.4; charset=utf-8"
        elif path == "/healthz":
            snapshot = self._snapshot_fn()
            body = json.dumps(
                {
                    "status": "ok",
                    "uptime_s": snapshot.get("service", {}).get("uptime_s"),
                    "in_flight": snapshot.get("queries", {}).get("in_flight"),
                },
                default=str,
            ).encode("utf-8")
            content_type = "application/json"
        elif path == "/snapshot":
            body = json.dumps(self._snapshot_fn(), default=str).encode("utf-8")
            content_type = "application/json"
        else:
            body = b'{"error": "not found"}'
            handler.send_response(404)
            handler.send_header("Content-Type", "application/json")
            handler.send_header("Content-Length", str(len(body)))
            handler.end_headers()
            handler.wfile.write(body)
            return
        handler.send_response(200)
        handler.send_header("Content-Type", content_type)
        handler.send_header("Content-Length", str(len(body)))
        handler.end_headers()
        handler.wfile.write(body)
