"""The concurrent query service: many queries, one shared catalog.

:class:`QueryService` is the serving façade the ROADMAP's north star
asks for: it runs queries from many clients at once against a single
:class:`~repro.storage.catalog.Catalog` (one shared buffer pool, one set
of SMA indexes), with

* **admission control** — a bounded queue in front of a fixed worker
  pool; beyond the bound, ``submit`` raises
  :class:`~repro.errors.ServerOverloadedError` instead of queueing
  unboundedly (see :mod:`repro.server.executor`);
* **per-query isolation** — every execution runs inside
  :meth:`BufferPool.query_context`, so its
  :class:`~repro.storage.stats.IoStats` delta and sequential-read
  classification are exact even while other queries interleave page
  accesses on the same pool;
* **timeouts and cancellation** — cooperative, enforced at every page
  access through the query context's deadline/cancel event;
* **metrics** — every outcome lands in a
  :class:`~repro.server.metrics.MetricsRegistry` (latency percentiles,
  queue wait, buffer hit rate, buckets skipped vs fetched).

Each worker thread owns a private :class:`~repro.query.session.Session`
(planners are cheap and stateless; sessions are not shared across
threads), while the catalog, pool and SMA sets are shared read-only.

Admission, the result cache's single-flight protocol, outcome accounting
and the event/ledger trail are the shared
:class:`~repro.server.pipeline.ServingPipeline`; this module is its
*local* execution backend.
"""

from __future__ import annotations

import threading
from contextlib import nullcontext

from repro.errors import PlanningError
from repro.obs.events import EventLog
from repro.query.planner import Explanation
from repro.query.query import AggregateQuery, ExplainQuery, ScanQuery
from repro.query.session import QueryResult, Session
from repro.server.executor import QueryTicket
from repro.server.metrics import MetricsRegistry
from repro.server.pipeline import QueryJob, ServingPipeline
from repro.storage.catalog import Catalog
from repro.storage.disk import DiskModel, PAPER_DISK
from repro.storage.stats import IoStats


# Stateless, so one shared instance is safe across threads.
_NO_CM = nullcontext()


class QueryService(ServingPipeline):
    """Admission-controlled concurrent execution over one shared catalog.

    Parameters
    ----------
    catalog:
        The shared database instance.  Reads and DML share the service:
        writes serialize per table behind the catalog's ingest lock
        (tracked on the write-queue depth gauge) while readers proceed
        against epoch-pinned bucket-generation snapshots.  Bulk loading
        stays a single-threaded, out-of-band concern.
    workers:
        Worker thread count (concurrent query executions).
    queue_depth:
        Admission queue bound — tickets waiting beyond the running ones.
    default_timeout_s:
        Applied to submissions that don't pass their own ``timeout_s``.
        ``None`` disables timeouts by default.
    scan_workers:
        Morsel-scan threads *per running query* (intra-query
        parallelism); 1 keeps executions serial.  Total scan threads can
        reach ``workers * scan_workers``.
    morsel_buckets:
        Buckets per morsel when ``scan_workers`` > 1.
    scan_backend:
        Where morsels run: ``"thread"`` (in-process pool, default) or
        ``"process"`` (persistent worker-process pool that sidesteps
        the GIL; see :mod:`repro.query.procpool`).
    tracer:
        Optional :class:`~repro.obs.trace.Tracer`.  When given, every
        submission gets a per-query root span (created at submit time so
        it covers the queue wait) that the worker thread adopts; finished
        span trees go to the tracer's sinks and, when *events* is also
        set, into the event log as ``trace`` records.
    events:
        Optional :class:`~repro.obs.events.EventLog` receiving structured
        query start/finish, slow-query, warning and lifecycle events.
        Emission never blocks the query path.
    slow_query_s:
        Wall-clock threshold above which a completed query additionally
        emits a ``slow_query`` event carrying its captured EXPLAIN.
        None disables slow-query capture.
    """

    def __init__(
        self,
        catalog: Catalog,
        *,
        workers: int = 4,
        queue_depth: int = 32,
        default_timeout_s: float | None = None,
        disk_model: DiskModel = PAPER_DISK,
        metrics: MetricsRegistry | None = None,
        scan_workers: int = 1,
        morsel_buckets: int | None = None,
        scan_backend: str = "thread",
        tracer=None,
        events: EventLog | None = None,
        slow_query_s: float | None = None,
        result_cache: bool = False,
        cache_entries: int = 256,
    ):
        super().__init__(
            workers=workers,
            queue_depth=queue_depth,
            default_timeout_s=default_timeout_s,
            disk_model=disk_model,
            metrics=metrics,
            tracer=tracer,
            events=events,
            result_cache=result_cache,
            cache_entries=cache_entries,
            scan_signature={
                "workers": int(scan_workers),
                "morsel_buckets": morsel_buckets,
                "backend": scan_backend,
            },
            start_info={"scan_workers": scan_workers, "scan_backend": scan_backend},
        )
        self.catalog = catalog
        self.scan_workers = scan_workers
        self.morsel_buckets = morsel_buckets
        self.scan_backend = scan_backend
        self.metrics.set_scan_info(
            backend=scan_backend, scan_workers=scan_workers
        )
        self.slow_query_s = slow_query_s
        self._sessions = threading.local()
        # Surface planner quarantines as metrics + events.  The catalog
        # outlives this service, so _release() must unsubscribe — stale
        # listeners would push events into closed logs.
        catalog.integrity.add_listener(self._on_integrity_event)
        # go_cold() must drop the result cache together with the buffer
        # pool and decode caches (quarantine evicts eagerly too);
        # unregistered again at shutdown.
        self._cold_hook = None
        if self.result_cache is not None:
            self._cold_hook = self.result_cache.clear
            catalog.add_cold_hook(self._cold_hook)

    # ------------------------------------------------------------------
    # lifecycle & observability
    # ------------------------------------------------------------------

    def _release(self) -> None:
        self.catalog.integrity.remove_listener(self._on_integrity_event)
        if self._cold_hook is not None:
            self.catalog.remove_cold_hook(self._cold_hook)

    def _on_integrity_event(self, event: str, info: dict) -> None:
        """Integrity-monitor listener: count + publish quarantines/repairs."""
        if event == "sma_quarantined":
            self.metrics.record_quarantine(
                info.get("table", ""), info.get("sma_set", "")
            )
            # A quarantined SMA definition means the table's metadata is
            # suspect: evict its cached results.
            table = info.get("table", "")
            if table:
                self._evict_table(table, "sma_quarantined")
        elif event == "sma_repaired":
            self.metrics.record_repair(
                info.get("table", ""), info.get("sma_set", "")
            )
        elif event == "intent_replayed":
            self.metrics.record_intent_resolution(
                info.get("action", "replayed")
            )
        if self.events is not None:
            self.events.emit(event, **info)

    def observed_snapshot(self) -> dict:
        snapshot = super().observed_snapshot()
        scan = snapshot.get("scan")
        if scan is not None and self.scan_backend == "process":
            from repro.query import procpool

            scan["pool"] = procpool.pool_gauges(self.catalog.root_dir)
        return snapshot

    # ------------------------------------------------------------------
    # submission
    # ------------------------------------------------------------------

    def submit(
        self,
        query: AggregateQuery | ScanQuery | str,
        *,
        mode: str = "auto",
        sma_set: str | None = None,
        timeout_s: float | None = None,
        kind: str | None = None,
        partial: bool = False,
        trace_ctx: dict | None = None,
    ) -> QueryTicket:
        """:meth:`ServingPipeline.submit` plus the shard-worker knobs.

        ``partial=True`` runs aggregate queries only up to their
        un-finalized aggregation state (the shard-worker execution
        path); scan queries execute normally.  ``trace_ctx`` is the
        remote trace context a shard worker received over the wire
        (``{"trace_id", "parent_span_id"}``): the local root span is
        annotated with it so the router's collector can verify the
        graft, and this service's events carry the global trace id.
        """
        return self._admit(
            query, mode, sma_set, timeout_s, kind, partial, trace_ctx
        )

    # perf/probes.py wraps ``execute`` where this class itself defines it.
    execute = ServingPipeline.execute

    def explain(
        self,
        query: AggregateQuery | ScanQuery | str,
        *,
        mode: str = "auto",
        sma_set: str | None = None,
    ) -> Explanation:
        """Plan *query* without executing it (runs on the caller's thread,
        bypassing admission — planning only grades SMA-files).

        SQL strings may, but need not, carry the ``EXPLAIN`` prefix.
        """
        if isinstance(query, str):
            from repro.sql.parser import parse_statement

            statement = parse_statement(query)
            if isinstance(statement, ExplainQuery):
                statement = statement.query
            if not isinstance(statement, (AggregateQuery, ScanQuery)):
                raise PlanningError(
                    "QueryService.explain takes a SELECT statement"
                )
            query = statement
        return self._explain_session().explain(
            query, mode=mode, sma_set=sma_set
        )

    # ------------------------------------------------------------------
    # worker side
    # ------------------------------------------------------------------

    def _session(self) -> Session:
        session = getattr(self._sessions, "session", None)
        if session is None:
            kwargs: dict = {
                "scan_workers": self.scan_workers,
                "scan_backend": self.scan_backend,
            }
            if self.morsel_buckets is not None:
                kwargs["morsel_buckets"] = self.morsel_buckets
            session = Session(
                self.catalog, self.disk_model, tracer=self.tracer, **kwargs
            )
            self._sessions.session = session
        return session

    def _explain_session(self) -> Session:
        """Untraced session for planning-only inspection.

        ``explain`` (including the slow-query capture) must not trace:
        with no enclosing query root, every planner span would become its
        own root and flood the trace sinks.
        """
        session = getattr(self._sessions, "explain_session", None)
        if session is None:
            session = Session(
                self.catalog, self.disk_model,
                scan_workers=self.scan_workers,
                scan_backend=self.scan_backend,
            )
            self._sessions.explain_session = session
        return session

    def _execute(self, ticket: QueryTicket, job: QueryJob) -> QueryResult:
        session = self._session()
        trace = job.trace
        # Adopt the submit-side root span on this worker thread, so
        # everything the session opens parents under it.  DML runs
        # without the cancel/deadline hooks: a write batch aborted
        # mid-apply would leave a pending intent for repair; writes
        # finish, then the ticket settles.
        with (
            self.tracer.activate(trace) if trace is not None else _NO_CM,
            self.catalog.pool.query_context(
                IoStats(),
                cancel_event=None if job.is_dml else ticket.cancel_event,
                deadline=None if job.is_dml else ticket.deadline,
            ),
        ):
            query = job.query
            if isinstance(query, str) and (
                job.partial
                or not job.is_dml
                and self.result_cache is not None
            ):
                # SQL reads parse up-front so the cache sees the logical
                # plan (this is also what makes fingerprints
                # whitespace-insensitive).
                # EXPLAIN and anything else stays a string and takes the
                # session.sql path below, uncached.
                from repro.sql.parser import parse_statement

                parsed = parse_statement(query)
                if job.partial or isinstance(parsed, (AggregateQuery, ScanQuery)):
                    query = parsed
            if job.partial and isinstance(query, AggregateQuery):
                return session.execute_partial(
                    query, mode=job.mode, sma_set=job.sma_set
                )
            if isinstance(query, str):
                return session.sql(query, mode=job.mode, sma_set=job.sma_set)
            if not job.is_dml and isinstance(query, (AggregateQuery, ScanQuery)):
                return self._read(ticket, job, query)
            return session.execute(query, mode=job.mode, sma_set=job.sma_set)

    # ------------------------------------------------------------------
    # the cached read path
    # ------------------------------------------------------------------

    def _cache_epochs(self, tables) -> dict[str, int]:
        return {table: self.catalog.ingest_epoch(table) for table in tables}

    def _computed_at(self, query, result: QueryResult, epochs: dict[str, int]):
        # The session pins the table at execution and reports that
        # epoch, so a result that raced a DML is re-keyed, not dropped.
        if result.epoch is None:
            return epochs
        return {query.table: result.epoch}

    def _compute(self, ticket: QueryTicket, job: QueryJob, query) -> QueryResult:
        """One actual execution on this worker's session."""
        return self._session().execute(query, mode=job.mode, sma_set=job.sma_set)

    def _observe_completed(
        self, ticket: QueryTicket, job: QueryJob, result: QueryResult
    ) -> None:
        """Grading gauges, the ambivalent warning and the slow-query log."""
        info = result.plan
        crossed = False
        if info.table is not None and info.fraction_ambivalent is not None:
            crossed = self.metrics.record_grading(
                info.table,
                info.fraction_qualifying or 0.0,
                info.fraction_ambivalent,
                info.fraction_disqualifying or 0.0,
            )
        if self.events is None:
            return
        if crossed:
            self.events.emit(
                "ambivalent_warning",
                table=info.table,
                fraction_ambivalent=info.fraction_ambivalent,
                break_even=self.metrics.ambivalent_break_even,
                sma_set=info.sma_set_name,
                trace_id=job.trace_id,
            )
        if (
            self.slow_query_s is not None
            and result.wall_seconds >= self.slow_query_s
        ):
            # Re-plan outside the (already closed) query context to
            # capture EXPLAIN; the grading re-reads charge the catalog's
            # default window, not any query's.
            try:
                explanation = self.explain(
                    job.query, mode=job.mode, sma_set=job.sma_set
                )
                plan_text = explanation.render()
            except Exception as exc:  # noqa: BLE001 - capture is best-effort
                plan_text = f"<explain failed: {exc}>"
            self.events.emit(
                "slow_query",
                ticket=ticket.id,
                kind=job.kind,
                latency_s=result.wall_seconds,
                threshold_s=self.slow_query_s,
                query=str(job.query),
                explain=plan_text,
                trace_id=job.trace_id,
            )
