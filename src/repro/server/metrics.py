"""Per-query service metrics: latency histograms, queue waits, I/O totals.

The :class:`MetricsRegistry` is the single write target for everything
the query service observes: admission outcomes, queue wait time,
per-query latency (overall and per workload kind) and the per-query
:class:`~repro.storage.stats.IoStats` deltas (buffer hit rate, buckets
skipped vs fetched).  All recording methods are thread-safe; workers
call them concurrently.

:meth:`MetricsRegistry.snapshot` returns a plain nested dict — the
programmatic surface.  What an operator sees of it (``/metrics``, the
``repro serve --report`` dump) is declared once, in the metric catalogue
of :mod:`repro.obs.exposition`; nothing here consults it.
"""

from __future__ import annotations

import threading
import time
from bisect import bisect_left, insort

from repro.storage.stats import IoStats

#: Percentiles reported by every latency snapshot.
REPORTED_PERCENTILES = (50.0, 90.0, 95.0, 99.0)

#: Default fixed histogram bounds for latency-like metrics (seconds).
#: Chosen to straddle both in-memory microbenchmarks and simulated-disk
#: scale queries; rendered as cumulative Prometheus ``le`` buckets.
DEFAULT_LATENCY_BOUNDS = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0,
)

#: The paper's Figure 5 break-even: above ~25 % ambivalent buckets an
#: SMA plan stops beating the plain scan.  Overridable per registry.
DEFAULT_AMBIVALENT_BREAK_EVEN = 0.25


class FixedHistogram:
    """Fixed-bound histogram (Prometheus-style cumulative buckets).

    Unlike :class:`LatencyRecorder` (exact percentiles over a decimated
    sample), this is the constant-memory, mergeable-across-scrapes shape
    the ``/metrics`` endpoint wants.  Not thread-safe on its own — the
    registry locks around it.
    """

    def __init__(self, bounds: tuple[float, ...] = DEFAULT_LATENCY_BOUNDS):
        if not bounds or list(bounds) != sorted(bounds):
            raise ValueError(f"histogram bounds must be sorted, got {bounds!r}")
        self.bounds = tuple(float(b) for b in bounds)
        self._counts = [0] * (len(self.bounds) + 1)  # final slot: +Inf
        self.count = 0
        self.sum = 0.0

    def observe(self, value: float) -> None:
        self._counts[bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.sum += value

    def as_dict(self) -> dict:
        """Cumulative buckets, ending in the mandatory ``+Inf`` bucket."""
        buckets = []
        running = 0
        for bound, count in zip(self.bounds, self._counts):
            running += count
            buckets.append({"le": bound, "count": running})
        buckets.append({"le": "+Inf", "count": self.count})
        return {"buckets": buckets, "sum": self.sum, "count": self.count}


class GradingGauges:
    """Per-table grading-mix telemetry (the Figure 5 watch-dog).

    Tracks the mean and most-recent qualifying/ambivalent/disqualifying
    fractions over completed SMA-graded queries, plus how many times the
    ambivalent fraction *crossed* the break-even threshold from below
    (each crossing is one warning — a steady over-threshold workload
    warns once, not per query).  Not thread-safe on its own.
    """

    __slots__ = (
        "queries", "warnings", "_sums", "_last", "_over_threshold",
    )

    def __init__(self) -> None:
        self.queries = 0
        self.warnings = 0
        self._sums = [0.0, 0.0, 0.0]
        self._last = [0.0, 0.0, 0.0]
        self._over_threshold = False

    def record(
        self,
        qualifying: float,
        ambivalent: float,
        disqualifying: float,
        threshold: float,
    ) -> bool:
        """Fold one query's grading in; True when this one crossed over."""
        self.queries += 1
        fractions = (qualifying, ambivalent, disqualifying)
        for i, fraction in enumerate(fractions):
            self._sums[i] += fraction
            self._last[i] = fraction
        crossed = ambivalent >= threshold and not self._over_threshold
        self._over_threshold = ambivalent >= threshold
        if crossed:
            self.warnings += 1
        return crossed

    def as_dict(self) -> dict:
        n = self.queries or 1
        names = ("qualifying", "ambivalent", "disqualifying")
        out: dict = {"queries": self.queries, "warnings": self.warnings}
        for i, name in enumerate(names):
            out[f"mean_{name}"] = self._sums[i] / n
            out[f"last_{name}"] = self._last[i]
        return out


class LatencyRecorder:
    """Streaming latency accumulator with a bounded, decimated sample.

    Exact count/total/min/max are kept forever.  For percentiles a
    sample of observations is retained; when it outgrows *max_samples*
    it is decimated deterministically (every other retained sample is
    dropped and the keep-stride doubles), so memory stays bounded while
    the sample remains spread over the whole run rather than a recent
    window.  Not thread-safe on its own — the registry locks around it.
    """

    def __init__(self, max_samples: int = 4096):
        if max_samples < 2:
            raise ValueError(f"max_samples must be >= 2, got {max_samples}")
        self.max_samples = max_samples
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = 0.0
        self._samples: list[float] = []
        self._stride = 1

    def record(self, seconds: float) -> None:
        self.count += 1
        self.total += seconds
        if seconds < self.min:
            self.min = seconds
        if seconds > self.max:
            self.max = seconds
        if (self.count - 1) % self._stride == 0:
            insort(self._samples, seconds)
            if len(self._samples) > self.max_samples:
                self._samples = self._samples[::2]
                self._stride *= 2

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, q: float) -> float:
        """Nearest-rank percentile over the retained sample (0 when empty)."""
        if not self._samples:
            return 0.0
        if not 0.0 <= q <= 100.0:
            raise ValueError(f"percentile must be in [0, 100], got {q}")
        rank = max(0, min(len(self._samples) - 1, round(q / 100.0 * (len(self._samples) - 1))))
        return self._samples[rank]

    def as_dict(self) -> dict[str, float]:
        if self.count == 0:
            return {"count": 0}
        out: dict[str, float] = {
            "count": self.count,
            "mean_s": self.mean,
            "min_s": self.min,
            "max_s": self.max,
        }
        for q in REPORTED_PERCENTILES:
            out[f"p{q:g}_s"] = self.percentile(q)
        return out


class MetricsRegistry:
    """Thread-safe aggregation point for all query-service observations."""

    def __init__(
        self,
        max_samples: int = 4096,
        *,
        ambivalent_break_even: float = DEFAULT_AMBIVALENT_BREAK_EVEN,
        latency_bounds: tuple[float, ...] = DEFAULT_LATENCY_BOUNDS,
    ):
        self._lock = threading.Lock()
        self._max_samples = max_samples
        self.ambivalent_break_even = ambivalent_break_even
        self.started_at = time.time()
        self._started_monotonic = time.monotonic()
        self.submitted = 0
        self.completed = 0
        self.failed = 0
        self.rejected = 0
        self.timed_out = 0
        self.cancelled = 0
        self._latency = LatencyRecorder(max_samples)
        self._latency_by_kind: dict[str, LatencyRecorder] = {}
        self._queue_wait = LatencyRecorder(max_samples)
        self._latency_hist = FixedHistogram(latency_bounds)
        self._queue_wait_hist = FixedHistogram(latency_bounds)
        self._io = IoStats()
        self._plans: dict[str, int] = {}
        #: per-kind outcome counters — {kind: {outcome: count}}
        self._by_kind: dict[str, dict[str, int]] = {}
        #: per-table grading gauges — {table: GradingGauges}
        self._grading: dict[str, GradingGauges] = {}
        self._sma_quarantined = 0
        self._sma_repaired = 0
        #: per-table quarantine counts — {table: count}
        self._quarantined_by_table: dict[str, int] = {}
        #: scan-backend info (set by the service) — {backend, scan_workers}
        self._scan_info: dict | None = None
        #: ingest telemetry — rows per (table, op), per-table epoch
        #: gauges, write-queue depth (DML jobs admitted but not settled)
        self._ingest_rows: dict[str, dict[str, int]] = {}
        self._ingest_batches = 0
        self._ingest_epochs: dict[str, int] = {}
        self._intents_replayed = 0
        self._intents_rolled_back = 0
        self._write_queue_depth = 0
        self._write_queue_peak = 0
        #: resource-ledger aggregates — one sample per traced query:
        #: wall seconds by span kind and per-table I/O attribution
        self._ledger_queries = 0
        self._ledger_queue_wait_s = 0.0
        self._ledger_fan_out = 0
        self._ledger_span_s: dict[str, float] = {}
        self._ledger_tables: dict[str, dict[str, int]] = {}

    @property
    def uptime_s(self) -> float:
        return time.monotonic() - self._started_monotonic

    def _bump_kind(self, kind: str, outcome: str) -> None:
        outcomes = self._by_kind.get(kind)
        if outcomes is None:
            outcomes = self._by_kind[kind] = {}
        outcomes[outcome] = outcomes.get(outcome, 0) + 1

    # ------------------------------------------------------------------
    # recording (called by the service / executor)
    # ------------------------------------------------------------------

    def set_scan_info(self, *, backend: str, scan_workers: int) -> None:
        """Publish the serving tier's scan backend configuration."""
        with self._lock:
            self._scan_info = {
                "backend": backend,
                "scan_workers": int(scan_workers),
            }

    def record_submitted(self) -> None:
        with self._lock:
            self.submitted += 1

    def record_rejected(self) -> None:
        with self._lock:
            self.rejected += 1

    def record_queue_wait(self, seconds: float) -> None:
        with self._lock:
            self._queue_wait.record(seconds)
            self._queue_wait_hist.observe(seconds)

    def record_success(
        self,
        kind: str,
        latency_s: float,
        stats: IoStats | None = None,
        strategy: str | None = None,
    ) -> None:
        """One query completed: latency, its exact I/O counter delta, and
        the planner strategy that served it ("sma_gaggr", "seq_scan", ...)."""
        with self._lock:
            self.completed += 1
            self._latency.record(latency_s)
            self._latency_hist.observe(latency_s)
            recorder = self._latency_by_kind.get(kind)
            if recorder is None:
                recorder = self._latency_by_kind[kind] = LatencyRecorder(
                    self._max_samples
                )
            recorder.record(latency_s)
            self._bump_kind(kind, "completed")
            if stats is not None:
                self._io.merge(stats)
            if strategy is not None:
                self._plans[strategy] = self._plans.get(strategy, 0) + 1

    def record_grading(
        self,
        table: str,
        qualifying: float,
        ambivalent: float,
        disqualifying: float,
    ) -> bool:
        """Fold one SMA-graded query's fractions into the table's gauges.

        Returns True when this query pushed the table's ambivalent
        fraction across the break-even threshold from below — callers
        turn that into a warning event.
        """
        with self._lock:
            gauges = self._grading.get(table)
            if gauges is None:
                gauges = self._grading[table] = GradingGauges()
            return gauges.record(
                qualifying, ambivalent, disqualifying, self.ambivalent_break_even
            )

    def record_failure(self, kind: str) -> None:
        with self._lock:
            self.failed += 1
            self._bump_kind(kind, "failed")

    def record_timeout(self, kind: str) -> None:
        with self._lock:
            self.timed_out += 1
            self._bump_kind(kind, "timed_out")

    def record_cancelled(self, kind: str) -> None:
        with self._lock:
            self.cancelled += 1
            self._bump_kind(kind, "cancelled")

    def record_quarantine(self, table: str, sma_set: str) -> None:
        """One SMA definition failed integrity checks and was sidelined;
        the planner fell back to the heap for that slice of the plan."""
        with self._lock:
            self._sma_quarantined += 1
            self._quarantined_by_table[table] = (
                self._quarantined_by_table.get(table, 0) + 1
            )

    def record_repair(self, table: str, sma_set: str) -> None:
        with self._lock:
            self._sma_repaired += 1

    def record_ingest(
        self, table: str, op: str, rows: int, epoch: int
    ) -> None:
        """One applied DML batch: rows by (table, op) plus the table's
        new ingest epoch gauge."""
        with self._lock:
            by_op = self._ingest_rows.setdefault(table, {})
            by_op[op] = by_op.get(op, 0) + int(rows)
            self._ingest_batches += 1
            self._ingest_epochs[table] = int(epoch)

    def record_ledger(self, ledger: dict) -> None:
        """Fold one per-query resource ledger into the running aggregates.

        *ledger* is the dict built by
        :func:`repro.obs.collect.build_ledger` — queue wait, scatter
        fan-out, wall seconds by span kind, and per-table I/O counters
        attributed from the merged span tree.
        """
        with self._lock:
            self._ledger_queries += 1
            self._ledger_queue_wait_s += float(ledger.get("queue_wait_s", 0.0))
            self._ledger_fan_out += int(ledger.get("fan_out", 0))
            for kind, seconds in (ledger.get("wall_by_kind") or {}).items():
                self._ledger_span_s[kind] = (
                    self._ledger_span_s.get(kind, 0.0) + float(seconds)
                )
            for table, counters in (ledger.get("tables") or {}).items():
                totals = self._ledger_tables.setdefault(table, {})
                for name, value in counters.items():
                    totals[name] = totals.get(name, 0) + int(value)

    def record_intent_resolution(self, action: str) -> None:
        """One write-ahead intent resolved during repair
        (``"replayed"`` or ``"rolled_back"``)."""
        with self._lock:
            if action == "replayed":
                self._intents_replayed += 1
            else:
                self._intents_rolled_back += 1

    def write_queue_enter(self) -> int:
        """A DML job was admitted; returns the new write-queue depth."""
        with self._lock:
            self._write_queue_depth += 1
            if self._write_queue_depth > self._write_queue_peak:
                self._write_queue_peak = self._write_queue_depth
            return self._write_queue_depth

    def write_queue_exit(self) -> int:
        """A DML job settled (completed, failed, or skipped)."""
        with self._lock:
            if self._write_queue_depth > 0:
                self._write_queue_depth -= 1
            return self._write_queue_depth

    # ------------------------------------------------------------------
    # reading
    # ------------------------------------------------------------------

    def snapshot(self) -> dict:
        """Plain-dict view of everything recorded so far.

        Top-level sections: ``service``, ``queries``, ``latency_s``,
        ``queue_wait_s``, ``latency_hist``, ``queue_wait_hist``, ``io``,
        ``plans``, ``grading``, ``integrity``, ``scan`` (None until a
        service publishes its config), ``ingest`` and ``ledger``.  The
        field-by-field description of the operator-facing part is
        :data:`repro.obs.exposition.CATALOGUE` — one line per exported
        series, each naming the path it reads here.
        """
        with self._lock:
            settled = (
                self.completed + self.failed + self.timed_out + self.cancelled
            )
            io = self._io
            return {
                "service": {
                    "started_at": self.started_at,
                    "uptime_s": self.uptime_s,
                    "ambivalent_break_even": self.ambivalent_break_even,
                },
                "queries": {
                    "submitted": self.submitted,
                    "completed": self.completed,
                    "failed": self.failed,
                    "rejected": self.rejected,
                    "timed_out": self.timed_out,
                    "cancelled": self.cancelled,
                    "in_flight": self.submitted - settled,
                    "by_kind": {
                        kind: dict(sorted(outcomes.items()))
                        for kind, outcomes in sorted(self._by_kind.items())
                    },
                },
                "latency_s": {
                    "overall": self._latency.as_dict(),
                    "by_kind": {
                        kind: recorder.as_dict()
                        for kind, recorder in sorted(self._latency_by_kind.items())
                    },
                },
                "queue_wait_s": self._queue_wait.as_dict(),
                "latency_hist": self._latency_hist.as_dict(),
                "queue_wait_hist": self._queue_wait_hist.as_dict(),
                "io": {
                    **io.as_dict(),
                    "buffer_hit_rate": io.buffer_hit_rate,
                    "bucket_skip_rate": io.bucket_skip_rate,
                    # the paper's SMA-file pages vs relation pages ratio
                    "sma_page_fraction": (
                        io.sma_page_reads / io.page_reads if io.page_reads else 0.0
                    ),
                },
                "plans": dict(sorted(self._plans.items())),
                "grading": {
                    table: gauges.as_dict()
                    for table, gauges in sorted(self._grading.items())
                },
                "integrity": {
                    "sma_quarantined": self._sma_quarantined,
                    "sma_repaired": self._sma_repaired,
                    "by_table": dict(sorted(self._quarantined_by_table.items())),
                },
                "scan": dict(self._scan_info) if self._scan_info else None,
                "ingest": {
                    "batches": self._ingest_batches,
                    "rows_total": {
                        table: dict(sorted(by_op.items()))
                        for table, by_op in sorted(self._ingest_rows.items())
                    },
                    "epochs": dict(sorted(self._ingest_epochs.items())),
                    "intents_replayed": self._intents_replayed,
                    "intents_rolled_back": self._intents_rolled_back,
                    "write_queue_depth": self._write_queue_depth,
                    "write_queue_peak": self._write_queue_peak,
                },
                "ledger": {
                    "queries": self._ledger_queries,
                    "queue_wait_s": self._ledger_queue_wait_s,
                    "fan_out": self._ledger_fan_out,
                    "span_seconds": dict(sorted(self._ledger_span_s.items())),
                    "tables": {
                        table: dict(sorted(counters.items()))
                        for table, counters in sorted(self._ledger_tables.items())
                    },
                },
            }
