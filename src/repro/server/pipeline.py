"""The serving pipeline: admit → cache → execute → observe, written once.

Everything around a served query that is *not* answering it lives here:
kind defaulting, the per-query root span, admission through the one
:class:`~repro.server.executor.QueryExecutor`, the queue-wait span, the
plan-fingerprint result cache's single-flight protocol, outcome
accounting, the ``query_start`` / ``query_finish`` event pair, and the
resource ledger.  The two serving tiers subclass
:class:`ServingPipeline` and supply only their execution backend:

* :class:`~repro.server.service.QueryService` — a local
  :class:`~repro.query.session.Session` inside the buffer pool's
  per-query context;
* :class:`~repro.shard.router.ShardRouter` — scatter to the shard
  workers, gather un-finalized partials in bucket-range order.

What a tier answers (the hooks below): how a submission is normalised,
:meth:`~ServingPipeline._execute` / :meth:`~ServingPipeline._compute`,
the cache's epoch source, which epochs a finished result was computed
at, and what an applied DML advances.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass

from repro.errors import (
    QueryCancelledError,
    QueryTimeoutError,
    ServerOverloadedError,
)
from repro.obs.collect import build_ledger
from repro.obs.events import EventLog
from repro.obs.trace import Span, resolve_tracer
from repro.query.cache import HIT, ResultCache, plan_fingerprint, query_tables
from repro.query.planner import PlanInfo
from repro.query.query import AggregateQuery, DmlStatement, ScanQuery
from repro.query.session import QueryResult
from repro.server.executor import QueryExecutor, QueryTicket, TicketState
from repro.server.metrics import MetricsRegistry
from repro.storage.disk import DiskModel
from repro.storage.stats import IoStats


@dataclass(frozen=True)
class QueryJob:
    """What one ticket carries: the query and its execution knobs."""

    query: AggregateQuery | ScanQuery | DmlStatement | str
    mode: str = "auto"
    sma_set: str | None = None
    #: metrics bucket ("q1", "range_scan", ...); defaults by query class
    kind: str = "query"
    #: per-query root span (created at submit, finished when the ticket
    #: settles) — None when tracing is disabled
    trace: Span | None = None
    #: remote trace context ({"trace_id", "parent_span_id"}) when this
    #: job arrived over the shard wire
    trace_ctx: dict | None = None
    #: stop aggregate queries before finalize and return the raw
    #: :class:`~repro.query.session.PartialQueryResult` (shard workers)
    partial: bool = False
    #: write-path job: tracked on the write-queue depth gauge and, on
    #: success, on the ingest counters/events
    is_dml: bool = False

    @property
    def trace_id(self) -> int | None:
        """The trace id this job's events join against.

        A wire context wins (events must join the *router's* merged
        tree, not the worker-local root); otherwise the local root span;
        None when tracing is off.
        """
        if self.trace_ctx is not None:
            return self.trace_ctx.get("trace_id")
        if self.trace is not None:
            return self.trace.trace_id
        return None

    def wire_trace(self) -> dict | None:
        """The local span tree to ship back to a remote caller.

        Only jobs that arrived with a wire context pay the
        serialization; call once the ticket has settled, when the root
        span is finished and the tree complete.
        """
        if self.trace_ctx is None or self.trace is None:
            return None
        return self.trace.to_dict()


_DML_PREFIXES = ("INSERT", "UPDATE", "DELETE")
_DML_STRATEGIES = ("insert", "update", "delete")


def _looks_like_dml(query: AggregateQuery | ScanQuery | DmlStatement | str) -> bool:
    """Whether a submission targets the write path (objects or SQL text)."""
    if isinstance(query, str):
        return query.lstrip().upper().startswith(_DML_PREFIXES)
    return isinstance(query, DmlStatement)


class ServingPipeline:
    """Admission-controlled serving around a tier's execution backend.

    Not used on its own: :class:`~repro.server.service.QueryService` and
    :class:`~repro.shard.router.ShardRouter` document the public
    constructor parameters.  *scan_signature* is the execution-backend
    slice of every cache key this tier mints; *start_info* the
    tier-specific fields of its ``<role>_start`` event.
    """

    #: names the executor's threads and the lifecycle events
    _role = "server"

    def __init__(
        self,
        *,
        workers: int,
        queue_depth: int,
        default_timeout_s: float | None,
        disk_model: DiskModel,
        metrics: MetricsRegistry | None,
        tracer,
        events: EventLog | None,
        result_cache: bool,
        cache_entries: int,
        scan_signature: dict,
        start_info: dict,
    ):
        self.disk_model = disk_model
        self.default_timeout_s = default_timeout_s
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.tracer = resolve_tracer(tracer)
        self.events = events
        if events is not None and self.tracer.enabled:
            self.tracer.add_sink(
                lambda root: events.emit("trace", trace=root.to_dict())
            )
        #: plan-fingerprint result cache (None = disabled).  Keys carry
        #: the tier's per-table epochs, so epoch advance is the natural
        #: invalidation.
        self.result_cache = ResultCache(cache_entries) if result_cache else None
        self._scan_signature = scan_signature
        self._start_info = start_info
        self._executor = QueryExecutor(
            self._run_job,
            workers=workers,
            queue_depth=queue_depth,
            skipped_fn=self._record_skipped,
            name=f"repro-{self._role}",
        )

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    @property
    def workers(self) -> int:
        return self._executor.workers

    @property
    def queue_depth(self) -> int:
        return self._executor.queue_depth

    def start(self) -> "ServingPipeline":
        self._executor.start()
        if self.events is not None:
            self.events.emit(
                f"{self._role}_start",
                workers=self.workers,
                queue_depth=self.queue_depth,
                started_at=self.metrics.started_at,
                **self._start_info,
            )
        return self

    def shutdown(self, *, wait: bool = True, cancel_pending: bool = False) -> None:
        self._executor.shutdown(wait=wait, cancel_pending=cancel_pending)
        self._release()
        if self.events is not None:
            self.events.emit(
                f"{self._role}_stop", queries=self.metrics.snapshot()["queries"]
            )

    def __enter__(self) -> "ServingPipeline":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.shutdown(wait=True, cancel_pending=True)

    def observed_snapshot(self) -> dict:
        """The metrics snapshot plus the cache's and the event log's own
        stats — what the ``/metrics`` and ``/snapshot`` endpoints serve,
        so drop counters of the observability pipeline are themselves
        observable.  Tiers add their own sections."""
        snapshot = self.metrics.snapshot()
        if self.result_cache is not None:
            snapshot["result_cache"] = self.result_cache.snapshot()
        if self.events is not None:
            snapshot["events"] = self.events.stats()
        return snapshot

    # ------------------------------------------------------------------
    # what a tier supplies
    # ------------------------------------------------------------------

    def _normalise(self, query):
        """The submission as the job will carry it (may refuse it)."""
        return query

    def _execute(self, ticket: QueryTicket, job: QueryJob) -> QueryResult:
        """Answer *job* — reads that may be cached go through
        :meth:`_read`, which calls back into :meth:`_compute`."""
        raise NotImplementedError

    def _compute(self, ticket: QueryTicket, job: QueryJob, query) -> QueryResult:
        """One actual execution of a logical read *query*."""
        raise NotImplementedError

    def _cache_epochs(self, tables) -> dict[str, int]:
        """The tier's current epoch of each of *tables* (cache-key input)."""
        raise NotImplementedError

    def _computed_at(self, query, result: QueryResult, epochs: dict[str, int]):
        """The epochs *result* was computed at, given it was
        fingerprinted at *epochs* — None when the tier cannot know."""
        raise NotImplementedError

    def _dml_applied(self, table: str, epoch: int) -> None:
        """An applied DML moved *table* to *epoch* (the cached results
        that read it are swept by the pipeline)."""

    def _observe_completed(
        self, ticket: QueryTicket, job: QueryJob, result: QueryResult
    ) -> None:
        """Tier-specific telemetry for a completed query."""

    def _release(self) -> None:
        """Free tier resources once the workers have been told to stop."""

    # ------------------------------------------------------------------
    # admit
    # ------------------------------------------------------------------

    def submit(
        self,
        query: AggregateQuery | ScanQuery | DmlStatement | str,
        *,
        mode: str = "auto",
        sma_set: str | None = None,
        timeout_s: float | None = None,
        kind: str | None = None,
    ) -> QueryTicket:
        """Admit one query; returns its ticket or raises
        :class:`~repro.errors.ServerOverloadedError` when the queue is full.

        *query* is a logical query object, a DML statement, or a SQL
        string.
        """
        return self._admit(query, mode, sma_set, timeout_s, kind)

    def execute(
        self,
        query: AggregateQuery | ScanQuery | DmlStatement | str,
        *,
        mode: str = "auto",
        sma_set: str | None = None,
        timeout_s: float | None = None,
        kind: str | None = None,
    ) -> QueryResult:
        """Synchronous convenience: submit and wait for the result."""
        return self.submit(
            query, mode=mode, sma_set=sma_set, timeout_s=timeout_s, kind=kind
        ).result()

    def _admit(
        self,
        query,
        mode: str,
        sma_set: str | None,
        timeout_s: float | None,
        kind: str | None,
        partial: bool = False,
        trace_ctx: dict | None = None,
    ) -> QueryTicket:
        query = self._normalise(query)
        is_dml = _looks_like_dml(query)
        if kind is None:
            kind = (
                "dml" if is_dml
                else "aggregate" if isinstance(query, AggregateQuery)
                else "scan" if isinstance(query, ScanQuery)
                else "sql"
            )
        trace = None
        if self.tracer.enabled:
            # Root span opens at submit so its duration covers the queue
            # wait; the worker thread adopts and finishes it.
            trace = self.tracer.begin("query", root=True)
            trace.annotate(kind=kind, mode=mode, query=str(query))
            if trace_ctx is not None:
                # Lets the remote collector verify the graft.
                trace.annotate(
                    remote_trace_id=trace_ctx.get("trace_id"),
                    remote_parent_span_id=trace_ctx.get("parent_span_id"),
                )
        job = QueryJob(
            query=query,
            mode=mode,
            sma_set=sma_set,
            kind=kind,
            trace=trace,
            trace_ctx=trace_ctx,
            partial=partial,
            is_dml=is_dml,
        )
        timeout = timeout_s if timeout_s is not None else self.default_timeout_s
        try:
            ticket = self._executor.submit(job, timeout_s=timeout)
        except ServerOverloadedError:
            self.metrics.record_rejected()
            if trace is not None:
                trace.annotate(outcome="rejected")
                self.tracer.finish(trace)
            if self.events is not None:
                self.events.emit("query_rejected", kind=kind, query=str(query))
            raise
        self.metrics.record_submitted()
        if is_dml:
            self.metrics.write_queue_enter()
        if trace is not None:
            trace.annotate(ticket=ticket.id)
        if self.events is not None:
            self.events.emit(
                "query_start",
                ticket=ticket.id,
                kind=kind,
                query=str(query),
                trace_id=job.trace_id,
            )
        return ticket

    # ------------------------------------------------------------------
    # worker side: execute, then settle
    # ------------------------------------------------------------------

    def _run_job(self, ticket: QueryTicket) -> QueryResult:
        job: QueryJob = ticket.payload
        wait = ticket.queue_wait_s
        if wait is not None:
            self.metrics.record_queue_wait(wait)
            if job.trace is not None:
                self.tracer.record_span(
                    "queue_wait", parent=job.trace, duration_s=wait
                )
        outcome, result, error = "completed", None, None
        try:
            result = self._execute(ticket, job)
        except QueryTimeoutError:
            outcome = "timed_out"
            raise
        except QueryCancelledError:
            outcome = "cancelled"
            raise
        except BaseException as exc:
            outcome, error = "failed", type(exc).__name__
            raise
        finally:
            self._settle(ticket, job, outcome, result=result, error=error)
        return result

    def _record_skipped(self, ticket: QueryTicket) -> None:
        """Settle a ticket that never ran (cancelled/expired while queued)."""
        timed_out = ticket.state is TicketState.TIMED_OUT
        outcome = "timed_out" if timed_out else "cancelled"
        self._settle(ticket, ticket.payload, outcome, skipped=True)

    def _settle(
        self,
        ticket: QueryTicket,
        job: QueryJob,
        outcome: str,
        *,
        result: QueryResult | None = None,
        error: str | None = None,
        skipped: bool = False,
    ) -> None:
        """The single settle point: every admitted ticket passes through
        exactly once, so each ``query_start`` gets one ``query_finish``,
        each root span finishes, and the outcome counters add up to
        ``submitted``."""
        metrics, trace = self.metrics, job.trace
        if job.is_dml:
            metrics.write_queue_exit()
        if trace is not None:
            trace.annotate(outcome=outcome)
            if skipped:
                trace.annotate(skipped=True)
            trace.attrs.setdefault("cache", "bypass")
            self.tracer.finish(trace)
        if result is not None:
            metrics.record_success(
                job.kind,
                result.wall_seconds,
                result.stats,
                strategy=result.plan.strategy,
            )
            if result.plan.strategy in _DML_STRATEGIES:
                self._observe_ingest(ticket, job, result)
        elif outcome == "timed_out":
            metrics.record_timeout(job.kind)
        elif outcome == "cancelled":
            metrics.record_cancelled(job.kind)
        else:
            metrics.record_failure(job.kind)
        if self.events is not None:
            fields: dict = {"skipped": True} if skipped else {}
            if error is not None:
                fields["error"] = error
            if result is not None:
                fields.update(
                    latency_s=result.wall_seconds,
                    simulated_s=result.simulated_seconds,
                    strategy=result.plan.strategy,
                    io=result.stats.as_dict(),
                )
            self.events.emit(
                "query_finish",
                ticket=ticket.id,
                kind=job.kind,
                outcome=outcome,
                trace_id=job.trace_id,
                **fields,
            )
        if result is None:
            return
        self._observe_completed(ticket, job, result)
        if trace is not None:
            # The root finished above, so the tree is complete: distill
            # it into the per-query resource ledger.
            ledger = build_ledger(trace)
            ledger["cache"] = trace.attrs["cache"]
            metrics.record_ledger(ledger)
            if self.events is not None:
                self.events.emit("query_ledger", **ledger)

    def _observe_ingest(
        self, ticket: QueryTicket, job: QueryJob, result: QueryResult
    ) -> None:
        """Ingest telemetry for one applied DML batch."""
        rows_affected = result.rows[0][0] if result.rows else 0
        epoch = result.epoch if result.epoch is not None else 0
        table = result.plan.table or ""
        self.metrics.record_ingest(
            table, result.plan.strategy, rows_affected, epoch
        )
        if table:
            self._dml_applied(table, epoch)
            # The epoch bump already makes old fingerprints unreachable;
            # this sweep just stops dead entries from squatting LRU
            # slots under sustained ingest.
            self._evict_table(table, "epoch_advance")
        if self.events is not None:
            self.events.emit(
                "ingest_applied",
                ticket=ticket.id,
                table=table,
                op=result.plan.strategy,
                rows_affected=rows_affected,
                epoch=epoch,
                latency_s=result.wall_seconds,
                trace_id=job.trace_id,
            )

    def _evict_table(self, table: str, reason: str) -> None:
        """Drop every cached result that read *table*."""
        if self.result_cache is None:
            return
        evicted = self.result_cache.invalidate_table(table)
        if evicted and self.events is not None:
            self.events.emit(
                "cache_invalidate", table=table, entries=evicted, reason=reason
            )

    # ------------------------------------------------------------------
    # the cached read step
    # ------------------------------------------------------------------

    @staticmethod
    def _remaining_s(ticket: QueryTicket) -> float | None:
        """Seconds until the ticket's deadline (None = unbounded)."""
        if ticket.deadline is None:
            return None
        return max(0.0, ticket.deadline - time.monotonic())

    def _fingerprint(self, query, job: QueryJob, epochs: dict[str, int]) -> str:
        return plan_fingerprint(
            query,
            epochs=epochs,
            mode=job.mode,
            sma_set=job.sma_set,
            scan=self._scan_signature,
        )

    def _read(self, ticket: QueryTicket, job: QueryJob, query) -> QueryResult:
        """Fingerprint → acquire → HIT replay, or LEAD compute and then
        publish (or abandon, waking any herd)."""
        cache = self.result_cache
        if cache is None:
            return self._compute(ticket, job, query)
        started = time.perf_counter()
        tables = query_tables(query)
        epochs = self._cache_epochs(tables)
        key = self._fingerprint(query, job, epochs)
        verdict, cached = cache.acquire(key, timeout_s=self._remaining_s(ticket))
        if verdict == HIT:
            if job.trace is not None:
                job.trace.annotate(cache="hit")
            self._emit_cache("cache_hit", ticket, job, query)
            return self._serve_cached(cached, time.perf_counter() - started)
        try:
            result = self._compute(ticket, job, query)
        except BaseException:
            cache.abandon(key)
            raise
        computed_at = self._computed_at(query, result, epochs)
        if computed_at != epochs:
            # An epoch advanced between fingerprinting and execution.
            # An entry keyed at epoch e always holds a result computed
            # at epoch e: wake the original herd empty-handed, and store
            # only if the tier knows which epochs the result belongs to.
            cache.abandon(key)
            key = None
            if computed_at is not None:
                key = self._fingerprint(query, job, computed_at)
        if job.trace is not None:
            job.trace.annotate(cache="miss")
        if key is not None:
            cache.complete(key, result, tables)
            self._emit_cache("cache_store", ticket, job, query)
        return result

    def _emit_cache(
        self, event: str, ticket: QueryTicket, job: QueryJob, query
    ) -> None:
        if self.events is not None:
            self.events.emit(
                event,
                ticket=ticket.id,
                kind=job.kind,
                table=query.table,
                trace_id=job.trace_id,
            )

    def _serve_cached(self, cached: QueryResult, wall: float) -> QueryResult:
        """A fresh result view over a cached entry: same relation bytes,
        this request's wall clock, zero I/O (nothing was read)."""
        empty = IoStats()
        return dataclasses.replace(
            cached,
            stats=empty,
            wall_seconds=wall,
            cost=self.disk_model.cost(empty),
            plan=PlanInfo(
                strategy="result_cache",
                reason="plan-fingerprint cache hit",
                table=cached.plan.table,
            ),
        )
