"""Session façade: execute queries, measure wall-clock and simulated time.

A :class:`Session` binds a catalog to a disk model, runs queries through
the planner and returns :class:`QueryResult` objects carrying the rows
plus both clocks (measured wall seconds, simulated 1998 seconds) and the
exact I/O counter delta — the measurement surface every experiment in
this reproduction is built on.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.errors import PlanningError
from repro.obs.trace import resolve_tracer
from repro.query.parallel import DEFAULT_MORSEL_BUCKETS, ScanParallelism
from repro.query.planner import Explanation, PlanInfo, Planner
from repro.query.query import (
    AggregateQuery,
    DeleteStatement,
    DmlStatement,
    ExplainQuery,
    InsertStatement,
    ScanQuery,
    UpdateStatement,
)
from repro.storage.catalog import Catalog
from repro.storage.disk import DiskModel, PAPER_DISK
from repro.storage.stats import CostBreakdown, IoStats


@dataclass
class QueryResult:
    """Rows plus full cost accounting for one query execution."""

    columns: list[str]
    rows: list[tuple]
    stats: IoStats
    wall_seconds: float
    cost: CostBreakdown
    plan: PlanInfo
    warm: bool = field(default=False)
    #: the table's ingest epoch this execution ran against: the pinned
    #: snapshot epoch for reads, the newly produced epoch for DML.
    epoch: int | None = field(default=None)

    @property
    def simulated_seconds(self) -> float:
        """Simulated 1998-hardware seconds for this execution."""
        return self.cost.total_s

    def column(self, name: str) -> list:
        """All values of one output column.

        Raises :class:`KeyError` naming the available columns when *name*
        is not one of them.
        """
        try:
            index = self.columns.index(name)
        except ValueError:
            raise KeyError(
                f"no output column {name!r}; have {self.columns}"
            ) from None
        return [row[index] for row in self.rows]

    def __str__(self) -> str:
        header = " | ".join(self.columns)
        lines = [header, "-" * len(header)]
        lines.extend(" | ".join(str(v) for v in row) for row in self.rows)
        lines.append(
            f"[{len(self.rows)} rows; wall {self.wall_seconds:.4f}s; "
            f"simulated {self.simulated_seconds:.3f}s; {self.plan.strategy}]"
        )
        return "\n".join(lines)


@dataclass
class PartialQueryResult(QueryResult):
    """One shard's contribution to a scatter-gathered aggregate query.

    ``state`` is the un-finalized
    :class:`~repro.query.aggregation.AggregationState` the worker built
    over its bucket range; ``rows`` stays empty — the router merges the
    per-shard states in shard order and finalizes once.
    """

    state: object | None = field(default=None)


def _sort_rows(
    rows: list[tuple],
    columns: list[str],
    order_by: tuple[str, ...],
    order_desc: frozenset[str] = frozenset(),
) -> list[tuple]:
    if not order_by:
        return rows
    # Stable multi-key sort with per-key direction: apply keys from the
    # least significant to the most significant.
    ordered = list(rows)
    for name in reversed(order_by):
        index = columns.index(name)
        ordered.sort(key=lambda row: row[index], reverse=name in order_desc)
    return ordered


def assert_same_result(actual: QueryResult, expected: QueryResult) -> None:
    """Assert two executions produced the same relation, byte for byte.

    Compares columns and rows only — accounting and timing legitimately
    differ between runs.  Values must be *identical* (``1.0 != 1.0 + 1e-18``
    fails): the morsel-parallel operators promise bit-equal floating
    point results, and the integration tests hold them to it.
    """
    if actual.columns != expected.columns:
        raise AssertionError(
            f"column mismatch: {actual.columns} != {expected.columns}"
        )
    if len(actual.rows) != len(expected.rows):
        raise AssertionError(
            f"row count mismatch: {len(actual.rows)} != {len(expected.rows)}"
        )
    for i, (got, want) in enumerate(zip(actual.rows, expected.rows)):
        if got != want:
            raise AssertionError(f"row {i} differs: {got!r} != {want!r}")
        for j, (a, b) in enumerate(zip(got, want)):
            # Catch near-equal floats that compare == only after rounding
            # display; repr equality is bit equality for Python floats.
            if isinstance(a, float) and isinstance(b, float) and repr(a) != repr(b):
                raise AssertionError(
                    f"row {i} column {j} not bit-identical: {a!r} != {b!r}"
                )


class Session:
    """Execute queries against a catalog with full cost accounting.

    ``scan_workers`` > 1 enables morsel-driven intra-query parallelism:
    every plan's operator splits its bucket list into morsels instead of
    running one task over it, with results byte-identical to serial
    execution.
    ``scan_backend`` picks where morsels run: ``"thread"`` (default, in
    process) or ``"process"`` (persistent worker-process pool, see
    :mod:`repro.query.procpool`).
    """

    def __init__(
        self,
        catalog: Catalog,
        disk_model: DiskModel = PAPER_DISK,
        *,
        scan_workers: int = 1,
        morsel_buckets: int = DEFAULT_MORSEL_BUCKETS,
        scan_backend: str = "thread",
        tracer=None,
    ):
        self.catalog = catalog
        self.disk_model = disk_model
        self.parallelism = ScanParallelism(
            workers=scan_workers,
            morsel_buckets=morsel_buckets,
            backend=scan_backend,
        )
        #: observability: None resolves to the shared no-op tracer, so
        #: un-instrumented callers pay nothing.
        self.tracer = resolve_tracer(tracer)
        self.planner = Planner(
            catalog, disk_model, parallelism=self.parallelism, tracer=self.tracer
        )

    def execute(
        self,
        query: AggregateQuery | ScanQuery | DmlStatement,
        *,
        mode: str = "auto",
        sma_set: str | None = None,
        cold: bool = False,
    ) -> QueryResult:
        """Plan and run *query*, measuring the whole window.

        ``cold=True`` empties the buffer pool first (the paper's cold
        runs); otherwise whatever previous queries cached stays warm.
        Planning happens *inside* the measured window — grading cost is
        part of SMA query cost, exactly as in the paper's operators.

        Reads pin the table's ingest epoch at admission: the plan binds
        against a :class:`~repro.storage.table.TableView` snapshot, so a
        concurrent DML batch is either entirely visible or entirely
        invisible — never torn.  DML statements route to the
        crash-consistent write path and return a one-row
        ``(rows_affected, epoch)`` relation.

        The stats window is resolved through ``pool.stats``: the shared
        catalog counters normally, the bound per-query window when the
        caller (the query service) wrapped this thread in
        :meth:`~repro.storage.buffer.BufferPool.query_context` — which is
        what makes concurrent executions account independently.
        """
        if isinstance(
            query, (InsertStatement, UpdateStatement, DeleteStatement)
        ):
            return self._execute_dml(query)
        # Root when standalone (`repro trace`), child of the service's
        # per-query root span when running on an executor worker.
        (columns, rows), view, accounting = self._measured(
            "read",
            query,
            {"mode": mode, "table": query.table},
            mode=mode,
            sma_set=sma_set,
            cold=cold,
        )
        if isinstance(query, AggregateQuery):
            rows = _sort_rows(rows, columns, query.order_by, query.order_desc)
        return QueryResult(
            columns=columns, rows=rows, epoch=view.epoch, **accounting
        )

    def _execute_dml(self, statement: DmlStatement) -> QueryResult:
        """Run one DML statement through the crash-consistent write path.

        Same measured window as reads; the result relation is the single
        ``(rows_affected, epoch)`` row the DML plan produces, with the
        produced epoch echoed on ``QueryResult.epoch``.
        """
        (columns, rows), _, accounting = self._measured(
            "dml", statement, {"dml": True, "table": statement.table}
        )
        return QueryResult(
            columns=columns,
            rows=rows,
            epoch=rows[0][1] if rows else None,
            **accounting,
        )

    def execute_partial(
        self,
        query: AggregateQuery,
        *,
        mode: str = "auto",
        sma_set: str | None = None,
        cold: bool = False,
    ) -> PartialQueryResult:
        """Plan and run *query* up to its un-finalized aggregation state.

        The shard-worker entry point: identical to :meth:`execute`
        (planning inside the measured window, full cost accounting) but
        stops before ``finalize()`` so the caller can merge this state
        with other shards' partials order-preservingly.
        """
        if not isinstance(query, AggregateQuery):
            raise PlanningError(
                "partial execution applies to aggregate queries only"
            )
        state, view, accounting = self._measured(
            "partial",
            query,
            {"mode": mode, "partial": True, "table": query.table},
            mode=mode,
            sma_set=sma_set,
            cold=cold,
        )
        return PartialQueryResult(
            columns=list(query.output_columns),
            rows=[],
            epoch=view.epoch,
            state=state,
            **accounting,
        )

    def _measured(
        self,
        kind: str,
        statement,
        attrs: dict,
        *,
        mode: str = "auto",
        sma_set: str | None = None,
        cold: bool = False,
    ):
        """The one measured window every execution path runs in.

        *kind* is ``"read"``, ``"partial"``, ``"dml"`` or ``"explain"``.
        Empties the caches first when *cold*, then resets sequential-run
        tracking, snapshots the stats window (``pool.stats``) and starts
        the clock.  Reads pin their table's ingest epoch right here —
        admission: everything after reads one bucket-generation
        snapshot.  Inside one ``execute`` span (attributes *attrs*) the
        statement is planned under a ``plan`` span and, unless it is an
        EXPLAIN, run under a ``run`` span.

        Returns ``(output, view, accounting)``: *output* is the plan's
        ``(columns, rows)``, the partial state, or for EXPLAIN the plan
        itself; *view* the pinned snapshot (None unless a read);
        *accounting* the window's :class:`QueryResult` keyword arguments.
        """
        if cold:
            self.catalog.go_cold()
            if self.parallelism.use_processes:
                from repro.query import procpool

                procpool.go_cold(self.catalog.root_dir)
        pool = self.catalog.pool
        pool.reset_sequence_tracking()
        window = pool.stats
        before = window.snapshot()
        started = time.perf_counter()

        tracer = self.tracer
        pinned = kind == "read" or kind == "partial"
        view = self.catalog.pin_view(statement.table) if pinned else None
        with tracer.span("execute", attrs=attrs) as exec_span:
            with tracer.span("plan"):
                if kind == "dml":
                    planned = self.planner.plan_dml(statement)
                else:
                    planned = self.planner.plan(
                        statement, mode=mode, sma_set=sma_set, table=view
                    )
            output = planned
            if kind != "explain":
                strategy = planned.info.strategy
                with tracer.span("run", attrs={"strategy": strategy}):
                    if kind == "partial":
                        output = planned.physical.run_state()
                    else:
                        output = planned.run()
                exec_span.annotate(strategy=strategy)

        wall = time.perf_counter() - started
        delta = window.snapshot() - before
        return output, view, {
            "stats": delta,
            "wall_seconds": wall,
            "cost": self.disk_model.cost(delta),
            "plan": planned.info,
            "warm": not cold,
        }

    def explain(
        self,
        query: AggregateQuery | ScanQuery,
        *,
        mode: str = "auto",
        sma_set: str | None = None,
    ) -> Explanation:
        """Plan without running (SMA grading I/O is still charged).

        Returns the full :class:`~repro.query.planner.Explanation`:
        physical plan tree, per-alternative cost estimates, grading
        breakdown and the chosen-vs-rejected access paths.
        """
        return self.planner.plan(query, mode=mode, sma_set=sma_set).explanation

    def _explain_result(
        self,
        statement: ExplainQuery,
        *,
        mode: str,
        sma_set: str | None,
        cold: bool,
    ) -> QueryResult:
        """Run ``EXPLAIN SELECT ...``: plan only, rows are the plan text."""
        plan, _, accounting = self._measured(
            "explain",
            statement.query,
            {"mode": mode, "explain": True},
            mode=mode,
            sma_set=sma_set,
            cold=cold,
        )
        lines = plan.explanation.render().splitlines()
        return QueryResult(
            columns=["QUERY PLAN"], rows=[(line,) for line in lines], **accounting
        )

    # ------------------------------------------------------------------
    # SQL text entry points
    # ------------------------------------------------------------------

    def sql(
        self,
        text: str,
        *,
        mode: str = "auto",
        sma_set: str | None = None,
        cold: bool = False,
    ) -> QueryResult:
        """Parse and execute one SQL statement.

        SELECT runs against a pinned epoch snapshot; INSERT/UPDATE/DELETE
        go through the crash-consistent write path and return their
        ``(rows_affected, epoch)`` row.  ``EXPLAIN SELECT ...`` plans
        without executing and returns the rendered plan as rows of a
        single ``QUERY PLAN`` column, exactly like the direct statements
        return their relation.
        """
        from repro.sql.parser import parse_statement

        statement = parse_statement(text)
        if isinstance(statement, ExplainQuery):
            return self._explain_result(
                statement, mode=mode, sma_set=sma_set, cold=cold
            )
        if not isinstance(
            statement,
            (
                AggregateQuery,
                ScanQuery,
                InsertStatement,
                UpdateStatement,
                DeleteStatement,
            ),
        ):
            raise PlanningError(
                "Session.sql executes SELECT and DML statements; use "
                "Session.define_smas for define sma scripts"
            )
        return self.execute(statement, mode=mode, sma_set=sma_set, cold=cold)

    def define_smas(
        self,
        text: str,
        *,
        set_name: str = "default",
        separate_scans: bool = False,
    ):
        """Parse a ``define sma`` script, build and register the set.

        All definitions must target the same (already loaded) table.
        Returns ``(SmaSet, list[SmaBuildReport])``.
        """
        import os

        from repro.core.builder import build_sma_set
        from repro.sql.parser import parse_definitions

        definitions = parse_definitions(text)
        if not definitions:
            raise PlanningError("no define sma statements in script")
        tables = {definition.table_name for definition in definitions}
        if len(tables) != 1:
            raise PlanningError(
                f"all SMAs of one set must target one table, got {sorted(tables)}"
            )
        (table_name,) = tables
        table = self.catalog.table(table_name)
        directory = os.path.join(self.catalog.sma_dir(table_name), set_name)
        sma_set, reports = build_sma_set(
            table,
            definitions,
            directory=directory,
            name=set_name,
            separate_scans=separate_scans,
        )
        self.catalog.register_sma_set(table_name, sma_set)
        return sma_set, reports
