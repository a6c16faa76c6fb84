"""Process scan backend: byte-identity, crash fallback, attribution.

The process backend ships morsel subplans to a persistent worker-process
pool (:mod:`repro.query.procpool`).  Its contract mirrors the thread
backend's exactly:

* results are **byte-identical** to the serial fold for every strategy
  (GAggr scan, SMA_GAggr with ambivalent buckets, plain scans) — the
  hypothesis suite sweeps seeded query mixes over all modes;
* worker crashes degrade gracefully, whatever the plan shape: the query
  falls back to the thread backend, still returns the correct result,
  and the fallback is counted once; the next process query respawns a
  healthy pool;
* a pool is never rebuilt under a running query: sessions asking for
  different worker counts share one executor;
* per-worker IoStats deltas merge into the parent window exactly once,
  so traced runs reconcile leaf span I/O against query totals field for
  field — standalone and under the concurrent query service.
"""

import collections
import datetime
import os
import signal
import threading

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import (
    SmaDefinition,
    build_sma_set,
    count_star,
    maximum,
    minimum,
    total,
)
from repro.lang import and_, cmp, col
from repro.obs import Tracer
from repro.obs.exposition import render_prometheus
from repro.query import procpool
from repro.query.parallel import ScanParallelism
from repro.query.query import AggregateQuery, OutputAggregate, ScanQuery
from repro.query.session import Session, assert_same_result
from repro.server import QueryService
from repro.server.metrics import MetricsRegistry
from repro.storage import Catalog

from tests.conftest import BASE_DATE, SALES_SCHEMA, sales_rows


@pytest.fixture(scope="module")
def proc_catalog(tmp_path_factory):
    """Module-scoped SALES catalog: every test reuses one worker pool
    (spawning processes per test would dominate the suite's runtime)."""
    root = tmp_path_factory.mktemp("proc-db")
    cat = Catalog(str(root / "db"))
    table = cat.create_table("SALES", SALES_SCHEMA, clustered_on="ship")
    table.append_rows(sales_rows())
    definitions = [
        SmaDefinition("smin", "SALES", minimum(col("ship"))),
        SmaDefinition("smax", "SALES", maximum(col("ship"))),
        SmaDefinition("cnt", "SALES", count_star(), ("flag",)),
        SmaDefinition("sqty", "SALES", total(col("qty")), ("flag",)),
    ]
    sma_set, _ = build_sma_set(
        table, definitions, directory=str(root / "db" / "SALES.smas")
    )
    cat.register_sma_set("SALES", sma_set)
    yield cat
    procpool.dispose_pools(cat.root_dir)
    cat.close()


def process_session(catalog, *, tracer=None, workers=4, backend="process"):
    """A session on the process backend (or *backend*, for comparing the
    two) with morsels forced small, so even the small SALES table splits
    into multiple tasks."""
    return Session(
        catalog,
        scan_workers=workers,
        morsel_buckets=1,
        scan_backend=backend,
        tracer=tracer,
    )


def agg_query(days=20, minmax=False):
    aggregates = (
        OutputAggregate("s", total(col("qty"))),
        OutputAggregate("n", count_star()),
    )
    if minmax:
        aggregates += (
            OutputAggregate("lo", minimum(col("ship"))),
            OutputAggregate("hi", maximum(col("ship"))),
        )
    return AggregateQuery(
        table="SALES",
        aggregates=aggregates,
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


def two_ended_query():
    """Shipped inside a window: one ambivalent bucket at each end, so
    SMA_GAggr has two ranges to hand out."""
    window = and_(
        cmp("ship", ">=", BASE_DATE + datetime.timedelta(days=3)),
        cmp("ship", "<=", BASE_DATE + datetime.timedelta(days=20)),
    )
    return AggregateQuery(
        table="SALES",
        aggregates=agg_query().aggregates,
        where=window,
        group_by=("flag",),
        order_by=("flag",),
    )


#: The three plans that dispatch morsel tasks: name -> run(session
#: factory), returning the result to compare.
PLAN_SHAPES = {
    "gaggr": lambda new: new().execute(agg_query(45), mode="scan"),
    "sma_gaggr": lambda new: new().execute(two_ended_query(), mode="sma"),
    "scan": lambda new: new().execute(scan_query(days=40)),
}


def test_backend_validation():
    with pytest.raises(Exception):
        ScanParallelism(workers=4, backend="fiber")
    assert ScanParallelism(workers=4, backend="process").use_processes
    assert not ScanParallelism(workers=1, backend="process").use_processes
    assert not ScanParallelism(workers=4, backend="thread").use_processes


class TestByteIdentity:
    """Process-backend results must be bit-equal to the serial fold."""

    @pytest.mark.parametrize("mode", ["auto", "sma", "scan"])
    def test_aggregate_all_modes(self, proc_catalog, mode):
        serial = Session(proc_catalog)
        proc = process_session(proc_catalog)
        reference = serial.execute(agg_query(), mode=mode)
        assert_same_result(proc.execute(agg_query(), mode=mode), reference)

    @pytest.mark.parametrize("mode", ["auto", "scan"])
    def test_scan_all_modes(self, proc_catalog, mode):
        serial = Session(proc_catalog)
        proc = process_session(proc_catalog)
        reference = serial.execute(scan_query(days=40), mode=mode)
        assert_same_result(
            proc.execute(scan_query(days=40), mode=mode), reference
        )

    @settings(
        max_examples=15,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        cases=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=45),
                st.sampled_from(["agg", "agg_minmax", "scan"]),
                st.sampled_from(["auto", "sma", "scan"]),
            ),
            min_size=1,
            max_size=3,
        )
    )
    def test_seeded_query_mixes(self, proc_catalog, cases):
        serial = Session(proc_catalog)
        proc = process_session(proc_catalog)
        for days, kind, mode in cases:
            if kind == "scan":
                query = scan_query(days)
                if mode == "sma":
                    mode = "auto"  # scans have no sma-only mode
            else:
                minmax = kind == "agg_minmax"
                query = agg_query(days, minmax=minmax)
                if minmax and mode == "sma":
                    # min/max(ship) per flag is not materialized; force
                    # the heap path instead of a planner coverage error.
                    mode = "scan"
            reference = serial.execute(query, mode=mode)
            assert_same_result(proc.execute(query, mode=mode), reference)

    def test_cold_runs_match_and_pay_physical_reads(self, proc_catalog):
        serial = Session(proc_catalog)
        proc = process_session(proc_catalog)
        reference = serial.execute(agg_query(45), mode="scan")
        result = proc.execute(agg_query(45), mode="scan", cold=True)
        assert_same_result(result, reference)
        assert result.stats.page_reads > 0  # workers really went cold


class TestCrashFallback:
    """The one fallback in ``morsel.dispatch`` serves every plan shape."""

    def crash_and_recover(self, catalog, shape):
        run = PLAN_SHAPES[shape]
        reference = run(lambda: Session(catalog))
        on_processes = lambda: process_session(catalog)  # noqa: E731

        def check():
            assert_same_result(run(on_processes), reference)

        check()
        pool = procpool.get_pool(catalog.root_dir, catalog.pool.capacity_pages)
        workers = list(pool._executor._processes.values())
        assert workers, "pool should have live worker processes"
        before = procpool.pool_gauges()["fallbacks"]
        for worker in workers:
            os.kill(worker.pid, signal.SIGKILL)

        # The dead pool surfaces as ProcPoolBrokenError inside the
        # dispatcher, which re-runs the tasks on threads: same answer,
        # one fallback however many tasks the plan had.
        check()
        assert procpool.pool_gauges()["fallbacks"] == before + 1

        # The broken executor was disposed; the next process query
        # respawns a healthy pool and leaves the fallback count alone.
        check()
        assert procpool.pool_gauges()["fallbacks"] == before + 1
        assert procpool.pool_gauges(catalog.root_dir)["workers_spawned"] > 0

    def test_worker_crash_falls_back_to_threads(self, proc_catalog):
        self.crash_and_recover(proc_catalog, "gaggr")

    @pytest.mark.parametrize("shape", ["sma_gaggr", "scan"])
    def test_every_other_plan_shape_falls_back_too(self, proc_catalog, shape):
        self.crash_and_recover(proc_catalog, shape)


class TestPoolGrowth:
    def test_wider_query_leaves_a_running_narrow_one_alone(self, proc_catalog):
        """A session asking for more workers than the pool has started
        must not replace the executor another session is dispatching on
        (that used to cancel the narrow query's futures)."""
        procpool.dispose_pools(proc_catalog.root_dir)
        query = agg_query(45)
        reference = Session(proc_catalog).execute(query, mode="scan")
        narrow = process_session(proc_catalog, workers=2)
        wide = process_session(proc_catalog, workers=8)
        errors, completed, stop = [], threading.Event(), threading.Event()

        def loop():
            try:
                while not stop.is_set():
                    assert_same_result(
                        narrow.execute(query, mode="scan"), reference
                    )
                    completed.set()
            except BaseException as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)

        looper = threading.Thread(target=loop)
        before = procpool.pool_gauges()["fallbacks"]
        looper.start()
        try:
            assert completed.wait(timeout=60)  # the pool is up, narrow
            pool = procpool.get_pool(
                proc_catalog.root_dir, proc_catalog.pool.capacity_pages
            )
            executor = pool._executor
            for _ in range(3):
                assert_same_result(wide.execute(query, mode="scan"), reference)
            assert pool._executor is executor
        finally:
            stop.set()
            looper.join(timeout=60)
        assert not looper.is_alive()
        assert errors == []
        assert procpool.pool_gauges()["fallbacks"] == before


class TestAttribution:
    """Worker IoStats merge into the parent window exactly once."""

    @pytest.mark.parametrize("mode", ["auto", "sma", "scan"])
    def test_traced_aggregate(self, proc_catalog, mode):
        tracer = Tracer(keep=16)
        session = process_session(proc_catalog, tracer=tracer)
        result = session.execute(agg_query(), mode=mode)
        root = tracer.last_trace()
        assert root.io_total().as_dict() == result.stats.as_dict()

    def test_traced_cold_scan_attributes_physical_reads(self, proc_catalog):
        tracer = Tracer(keep=16)
        session = process_session(proc_catalog, tracer=tracer)
        result = session.execute(agg_query(45), mode="scan", cold=True)
        root = tracer.last_trace()
        assert root.io_total().as_dict() == result.stats.as_dict()
        morsel_spans = [s for s in root.walk() if s.name == "scan_morsel"]
        assert morsel_spans and all(
            s.attrs.get("backend") == "process" for s in morsel_spans
        )
        assert sum(s.io.page_reads for s in morsel_spans) > 0

    def test_sixteen_query_service_attribution(self, proc_catalog):
        """PR 4's attribution matrix holds with process scan workers:
        16 mixed queries through the service, each root's leaf io sum
        equal to the query's stats, no double-charging of the leader."""
        roots = []
        tracer = Tracer(on_trace=[roots.append], keep=64)
        registry = MetricsRegistry()
        with QueryService(
            proc_catalog,
            workers=4,
            queue_depth=32,
            scan_workers=4,
            morsel_buckets=1,
            scan_backend="process",
            metrics=registry,
            tracer=tracer,
        ) as service:
            tickets = []
            for i in range(16):
                query = agg_query(10 + i % 4) if i % 2 else scan_query(30)
                mode = ("auto", "sma", "scan")[i % 3]
                if mode == "sma" and i % 2 == 0:
                    mode = "auto"  # scans have no sma-only mode
                tickets.append(service.submit(query, mode=mode))
            results = {t.id: t.result() for t in tickets}
        assert len(roots) == 16
        by_ticket = {root.attrs["ticket"]: root for root in roots}
        assert set(by_ticket) == set(results)
        for ticket_id, result in results.items():
            root = by_ticket[ticket_id]
            assert root.attrs["outcome"] == "completed"
            assert root.io_total().as_dict() == result.stats.as_dict()
        assert registry.snapshot()["scan"] == {
            "backend": "process",
            "scan_workers": 4,
        }


class TestTraceShape:
    """One dispatcher, one trace shape: per plan, the process backend's
    span tree differs from the thread backend's by ``process_dispatch``
    only, and both reconcile leaf I/O to the query's stats."""

    @pytest.mark.parametrize("shape", list(PLAN_SHAPES))
    def test_backends_trace_alike(self, proc_catalog, shape):
        names = {}
        for backend in ("thread", "process"):
            roots = []
            tracer = Tracer(on_trace=[roots.append], keep=16)
            result = PLAN_SHAPES[shape](
                lambda: process_session(
                    proc_catalog, tracer=tracer, backend=backend
                ),
            )
            (root,) = roots
            total = collections.Counter(span.name for span in root.walk())
            assert total["merge"] == (0 if shape == "scan" else 1)
            names[backend] = total
            assert root.io_total().as_dict() == result.stats.as_dict()
        assert names["process"].pop("process_dispatch") == 1
        assert names["process"] == names["thread"]


class TestObservability:
    def test_prometheus_exports_backend_and_pool_gauges(self, proc_catalog):
        # Make sure at least one pool exists with dispatched tasks.
        process_session(proc_catalog).execute(agg_query(), mode="scan")
        registry = MetricsRegistry()
        registry.set_scan_info(backend="process", scan_workers=4)
        snapshot = registry.snapshot()
        snapshot["scan"]["pool"] = procpool.pool_gauges(proc_catalog.root_dir)
        text = render_prometheus(snapshot)
        assert 'repro_scan_backend{backend="process"} 1' in text
        assert "repro_scan_workers 4" in text
        assert "repro_scan_pool_processes" in text
        assert "repro_scan_pool_tasks_total" in text
        assert "repro_scan_pool_fallbacks_total" in text

    def test_service_snapshot_includes_pool_gauges(self, proc_catalog):
        with QueryService(
            proc_catalog,
            workers=2,
            scan_workers=4,
            morsel_buckets=1,
            scan_backend="process",
        ) as service:
            service.execute(agg_query(), mode="scan")
            observed = service.observed_snapshot()
        scan = observed["scan"]
        assert scan["backend"] == "process"
        pool = scan["pool"]
        assert pool["pools"] >= 1
        assert pool["tasks_dispatched"] > 0
