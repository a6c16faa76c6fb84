"""End-to-end tracing: exact I/O attribution and cross-thread span trees.

The tracer's contract is that io-carrying spans never nest and jointly
cover every counter charge site, so summing the *leaf* deltas of a trace
reproduces the query's total IoStats exactly — for every strategy, serial
and morsel-parallel, standalone and under the concurrent query service.
"""

import datetime

import pytest

from repro.core import count_star, total
from repro.lang import cmp, col, or_
from repro.obs import EventLog, Tracer
from repro.query.query import AggregateQuery, OutputAggregate, ScanQuery
from repro.query.session import Session
from repro.server import QueryService

from tests.conftest import BASE_DATE


def agg_query(days=20):
    return AggregateQuery(
        table="SALES",
        aggregates=(
            OutputAggregate("s", total(col("qty"))),
            OutputAggregate("n", count_star()),
        ),
        where=cmp("ship", "<=", BASE_DATE + datetime.timedelta(days=days)),
        group_by=("flag",),
        order_by=("flag",),
    )


def scan_query(days=5):
    return ScanQuery(
        table="SALES",
        where=cmp("ship", "<=", BASE_DATE + datetime.timedelta(days=days)),
        columns=("id", "qty"),
    )


def assert_exact_attribution(root, stats):
    """Leaf io deltas must reproduce the query's total, field for field."""
    leaf_total = root.io_total().as_dict()
    query_total = stats.as_dict()
    assert leaf_total == query_total, (
        f"leaf spans {leaf_total} != query totals {query_total}"
    )


@pytest.fixture
def traced_session(catalog, sales_table, sales_sma_set):
    tracer = Tracer(keep=64)
    return Session(catalog, tracer=tracer), tracer


@pytest.fixture
def traced_parallel_session(catalog, sales_table, sales_sma_set):
    tracer = Tracer(keep=64)
    return Session(catalog, scan_workers=4, tracer=tracer), tracer


class TestExactAttribution:
    @pytest.mark.parametrize("mode", ["auto", "sma", "scan"])
    def test_aggregate_all_strategies(self, traced_session, mode):
        session, tracer = traced_session
        result = session.execute(agg_query(), mode=mode)
        assert_exact_attribution(tracer.last_trace(), result.stats)

    @pytest.mark.parametrize("mode", ["auto", "scan"])
    def test_scan_all_strategies(self, traced_session, mode):
        session, tracer = traced_session
        result = session.execute(scan_query(), mode=mode)
        assert_exact_attribution(tracer.last_trace(), result.stats)

    @pytest.mark.parametrize("mode", ["auto", "sma", "scan"])
    def test_parallel_aggregate(self, traced_parallel_session, mode):
        session, tracer = traced_parallel_session
        result = session.execute(agg_query(), mode=mode)
        assert_exact_attribution(tracer.last_trace(), result.stats)

    def test_parallel_scan(self, traced_parallel_session):
        session, tracer = traced_parallel_session
        result = session.execute(scan_query(days=40), mode="scan")
        assert_exact_attribution(tracer.last_trace(), result.stats)

    def test_cold_run_includes_grading_reads(self, traced_session):
        session, tracer = traced_session
        result = session.execute(agg_query(), cold=True)
        root = tracer.last_trace()
        assert_exact_attribution(root, result.stats)
        grade_spans = [s for s in root.walk() if s.name == "grade"]
        assert grade_spans and grade_spans[0].io.page_reads > 0
        assert grade_spans[0].io.sma_page_reads == grade_spans[0].io.page_reads

    def test_span_tree_names_planning_and_execution(self, traced_session):
        session, tracer = traced_session
        session.execute(agg_query(), mode="sma")
        names = {s.name for s in tracer.last_trace().walk()}
        assert {"execute", "plan", "logical_rewrite", "grade",
                "cost_access_path", "run"} <= names

    def test_untraced_session_collects_nothing(self, catalog, sales_table,
                                               sales_sma_set):
        session = Session(catalog)
        session.execute(agg_query())
        assert session.tracer.last_trace() is None
        assert not session.tracer.enabled


def mixed_agg_query():
    """Qualifying buckets, then ambivalent ones: several SMA_GAggr ranges."""
    query = agg_query(days=10)
    return AggregateQuery(
        table=query.table,
        aggregates=query.aggregates,
        where=or_(query.where, cmp("qty", ">=", 6.0)),
        group_by=query.group_by,
        order_by=query.order_by,
    )


#: strategy -> (query, forced mode, the name of its task spans)
STRATEGY_CASES = {
    "sma_gaggr": (mixed_agg_query, "sma", "sma_range"),
    "gaggr": (agg_query, "scan", "scan_morsel"),
    "sma_scan": (scan_query, "sma", "scan_morsel"),
    "seq_scan": (scan_query, "scan", "scan_morsel"),
}


class TestOneTaskRule:
    """A serial plan is its operator's task run once over every bucket;
    a morsel plan runs one task per morsel."""

    @pytest.mark.parametrize("strategy", STRATEGY_CASES)
    def test_serial_plan_runs_one_task(self, traced_session, strategy):
        session, tracer = traced_session
        make_query, mode, task_span = STRATEGY_CASES[strategy]
        result = session.execute(make_query(), mode=mode)
        assert result.plan.strategy == strategy
        root = tracer.last_trace()
        names = [s.name for s in root.walk()]
        assert names.count(task_span) == 1
        assert "merge" not in names
        assert_exact_attribution(root, result.stats)

    @pytest.mark.parametrize("strategy", STRATEGY_CASES)
    def test_morsel_plan_runs_one_task_per_morsel(
        self, catalog, sales_table, sales_sma_set, strategy
    ):
        tracer = Tracer(keep=8)
        session = Session(catalog, scan_workers=4, morsel_buckets=1, tracer=tracer)
        make_query, mode, task_span = STRATEGY_CASES[strategy]
        result = session.execute(make_query(), mode=mode)
        assert result.plan.strategy == strategy
        root = tracer.last_trace()
        morsels = sorted(
            s.attrs["morsel"] for s in root.walk() if s.name == task_span
        )
        # One fetched bucket per task.  SMA_GAggr cuts one range at each
        # ambivalent bucket; this query's last bucket is ambivalent (qty
        # is not graded), so no qualifying tail adds a range.
        expected = result.stats.buckets_fetched
        assert expected > 1
        assert morsels == list(range(expected))
        assert_exact_attribution(root, result.stats)


class TestServicePropagation:
    """Per-query root spans survive the executor + morsel thread hops."""

    def test_sixteen_workers_exact_attribution(self, catalog, sales_table,
                                               sales_sma_set):
        roots = []
        tracer = Tracer(on_trace=[roots.append], keep=128)
        with QueryService(
            catalog, workers=16, queue_depth=128, scan_workers=2,
            tracer=tracer,
        ) as service:
            tickets = []
            for i in range(48):
                query = agg_query(days=10 + i % 3) if i % 2 else scan_query()
                mode = ("auto", "sma", "scan")[i % 3]
                if mode == "sma" and i % 2 == 0:
                    mode = "auto"  # scans have no sma-only aggregate mode
                tickets.append(
                    service.submit(query, mode=mode, kind=f"k{i % 4}")
                )
            results = {t.id: t.result() for t in tickets}
        assert len(roots) == 48
        by_ticket = {root.attrs["ticket"]: root for root in roots}
        assert set(by_ticket) == set(results)
        for ticket_id, result in results.items():
            root = by_ticket[ticket_id]
            assert root.name == "query"
            assert root.attrs["outcome"] == "completed"
            # every span of the tree belongs to this trace
            assert all(s.trace_id == root.trace_id for s in root.walk())
            assert "execute" in {s.name for s in root.walk()}
            assert_exact_attribution(root, result.stats)

    def test_sixteen_workers_under_transient_faults(self, catalog,
                                                    sales_table,
                                                    sales_sma_set):
        """Retry charges survive the executor hop and reconcile exactly.

        Transient heap faults force load leaders into the pool's retry
        loop while 16 workers share the catalog; the summed per-query
        ``read_retries`` must equal the pool counter growth, alongside
        the usual hit/miss partition.
        """
        from repro.storage.faults import FaultInjector, FaultSpec, RetryPolicy

        injector = FaultInjector(
            seed=7,
            specs=(FaultSpec("transient", path=".heap", probability=0.5),),
        )
        old_policy = catalog.pool.retry_policy
        catalog.install_fault_injector(injector)
        catalog.pool.retry_policy = RetryPolicy(
            max_attempts=10, base_backoff_s=0.0
        )
        catalog.pool.clear()  # force physical loads through the faults
        baseline = catalog.pool.counters()
        try:
            with QueryService(
                catalog, workers=16, queue_depth=64
            ) as service:
                tickets = [
                    service.submit(agg_query(days=10 + i % 5), mode="scan")
                    for i in range(32)
                ]
                results = [ticket.result() for ticket in tickets]
        finally:
            catalog.install_fault_injector(None)
            catalog.pool.retry_policy = old_policy

        delta = catalog.pool.counters() - baseline
        assert injector.fired_count() > 0
        assert delta.retries > 0
        assert delta.retries == sum(r.stats.read_retries for r in results)
        assert delta.misses == sum(r.stats.page_reads for r in results)
        assert delta.hits == sum(r.stats.buffer_hits for r in results)

    def test_queue_wait_recorded_as_span(self, catalog, sales_table,
                                         sales_sma_set):
        roots = []
        tracer = Tracer(on_trace=[roots.append])
        with QueryService(catalog, workers=1, tracer=tracer) as service:
            service.execute(agg_query())
        (root,) = roots
        assert "queue_wait" in {s.name for s in root.walk()}

    def test_trace_events_emitted_per_query(self, catalog, sales_table,
                                            sales_sma_set, tmp_path):
        import json

        path = str(tmp_path / "events.jsonl")
        log = EventLog(path)
        tracer = Tracer()
        with QueryService(
            catalog, workers=4, tracer=tracer, events=log,
        ) as service:
            tickets = [service.submit(agg_query(), kind="agg")
                       for _ in range(8)]
            for ticket in tickets:
                ticket.result()
        log.close()
        events = [json.loads(line) for line in open(path, encoding="utf-8")]
        kinds = [event["event"] for event in events]
        assert kinds.count("trace") == 8
        assert kinds.count("query_start") == 8
        assert kinds.count("query_finish") == 8
        trace_event = next(e for e in events if e["event"] == "trace")
        assert trace_event["trace"]["name"] == "query"
        child_names = [c["name"] for c in trace_event["trace"]["children"]]
        assert "execute" in child_names
