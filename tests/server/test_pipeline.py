"""The serving contract, asserted once against both tiers.

:class:`QueryService` and :class:`ShardRouter` run the same
:class:`~repro.server.pipeline.ServingPipeline` (admit → cache → execute
→ observe) over different execution backends, so every test here is
parametrized over {single-node service, 2-shard in-process cluster} and
makes the *same* assertions about tickets, outcome counters, events,
root spans, the ledger and the result cache.

Faults are injected at the seam each backend already has — the worker
thread's ``Session.execute`` for the service, one shard leg's
``ShardClient.request`` for the router — so they hit the pipeline the
way a real mid-execution failure does.
"""

from __future__ import annotations

import collections
import contextlib
import datetime
import io
import json
import threading
import time

import pytest

from repro.core import count_star, total
from repro.errors import QueryTimeoutError, ServerOverloadedError
from repro.lang import cmp, col
from repro.obs.events import EventLog
from repro.obs.trace import Tracer
from repro.query.query import AggregateQuery, OutputAggregate, ScanQuery
from repro.query.session import Session
from repro.server import QueryService, TicketState
from repro.shard.partitioner import shard_init
from repro.storage import Catalog

from tests.conftest import BASE_DATE, SALES_SCHEMA, sales_rows
from tests.shard.conftest import live_cluster

TIERS = ("service", "shard2")
INSERT_ONE = "INSERT INTO SALES VALUES (9001, DATE '1999-01-01', 1.0, 'A')"


def count_query(days: int = 20) -> AggregateQuery:
    return AggregateQuery(
        table="SALES",
        aggregates=(
            OutputAggregate("N", count_star()),
            OutputAggregate("SQ", total(col("qty"))),
        ),
        where=cmp("ship", "<=", BASE_DATE + datetime.timedelta(days=days)),
        group_by=("flag",),
        order_by=("flag",),
    )


def total_query() -> AggregateQuery:
    """Counts every row, so an INSERT anywhere changes the answer."""
    return AggregateQuery(
        table="SALES", aggregates=(OutputAggregate("N", count_star()),)
    )


def scan_query() -> ScanQuery:
    return ScanQuery(
        table="SALES",
        where=cmp("ship", "<=", BASE_DATE + datetime.timedelta(days=3)),
        columns=("id", "qty"),
    )


def make_roots(base) -> dict[str, str]:
    """A SALES catalog and its 2-shard split under *base*."""
    source = base / "source"
    with Catalog(str(source)) as catalog:
        table = catalog.create_table("SALES", SALES_SCHEMA, clustered_on="ship")
        table.append_rows(sales_rows())
        table.heap.flush()
    shard_init(str(source), str(base / "sharded"), 2)
    return {"service": str(source), "shard2": str(base / "sharded")}


@pytest.fixture(scope="module")
def shared_roots(tmp_path_factory):
    """Read-only data shared by the tests that never write."""
    return make_roots(tmp_path_factory.mktemp("pipeline"))


@contextlib.contextmanager
def open_tier(tier: str, roots: dict[str, str], **kwargs):
    """A started pipeline of the given tier over *roots*."""
    if tier == "service":
        with Catalog.discover(roots[tier]) as catalog:
            with QueryService(catalog, **kwargs) as service:
                yield service
    else:
        with live_cluster(roots[tier], **kwargs) as cluster:
            yield cluster.router


class Hook:
    """Runs on the worker side right before a read executes.

    ``arm(fn)`` makes the *next* read call ``fn()`` first (raise to fail
    it, block to hold it); later reads run untouched.
    """

    def __init__(self, pipeline, monkeypatch):
        self._pending: list = []
        self._lock = threading.Lock()
        if isinstance(pipeline, QueryService):
            original = Session.execute

            def execute(session, query, *args, **kwargs):
                if isinstance(query, (AggregateQuery, ScanQuery)):
                    self._fire()
                return original(session, query, *args, **kwargs)

            monkeypatch.setattr(Session, "execute", execute)
        else:
            client = pipeline.clients[0]
            original_request = client.request

            def request(payload):
                if payload.get("op") == "execute":
                    self._fire()
                return original_request(payload)

            monkeypatch.setattr(client, "request", request)

    def arm(self, fn) -> None:
        with self._lock:
            self._pending.append(fn)

    def _fire(self) -> None:
        with self._lock:
            fn = self._pending.pop(0) if self._pending else None
        if fn is not None:
            fn()


class Gate:
    """Holds one read inside its execution step until released."""

    def __init__(self, then=None):
        self.entered = threading.Event()
        self.release = threading.Event()
        self._then = then

    def __call__(self) -> None:
        self.entered.set()
        assert self.release.wait(10.0), "gate never released"
        if self._then is not None:
            raise self._then


def raiser(exc: BaseException):
    def fire() -> None:
        raise exc

    return fire


def events_of(stream: io.StringIO) -> list[dict]:
    return [json.loads(line) for line in stream.getvalue().splitlines()]


def run_mixed_batch(pipeline, hook) -> dict[str, list]:
    """One ticket of every outcome, plus one rejection.

    Needs ``workers=1, queue_depth=1``: a gated read occupies the worker,
    a second ticket fills the queue (and is cancelled there), a third is
    rejected.
    """
    tickets: dict[str, list] = collections.defaultdict(list)
    tickets["completed"].append(pipeline.submit(count_query()))
    tickets["completed"][-1].wait(10.0)

    hook.arm(raiser(ValueError("bad frame")))
    tickets["failed"].append(pipeline.submit(count_query()))
    tickets["failed"][-1].wait(10.0)

    hook.arm(raiser(QueryTimeoutError("deadline passed mid-execution")))
    tickets["timed_out"].append(pipeline.submit(count_query()))
    tickets["timed_out"][-1].wait(10.0)

    gate = Gate()
    hook.arm(gate)
    tickets["completed"].append(pipeline.submit(count_query()))
    assert gate.entered.wait(10.0)
    queued = pipeline.submit(scan_query())
    tickets["cancelled"].append(queued)
    with pytest.raises(ServerOverloadedError):
        pipeline.submit(count_query())
    assert queued.cancel()
    gate.release.set()
    for group in tickets.values():
        for ticket in group:
            assert ticket.wait(10.0)
    return tickets


STATE_OF = {
    "completed": TicketState.DONE,
    "failed": TicketState.FAILED,
    "timed_out": TicketState.TIMED_OUT,
    "cancelled": TicketState.CANCELLED,
}


@pytest.mark.parametrize("tier", TIERS)
class TestOutcomeAccounting:
    def test_ticket_states_agree_with_outcome_counters(
        self, tier, shared_roots, monkeypatch
    ):
        with open_tier(tier, shared_roots, workers=1, queue_depth=1) as pipeline:
            tickets = run_mixed_batch(pipeline, Hook(pipeline, monkeypatch))
            for outcome, group in tickets.items():
                assert [t.state for t in group] == [STATE_OF[outcome]] * len(group)
            queries = pipeline.metrics.snapshot()["queries"]
        for outcome, group in tickets.items():
            assert queries[outcome] == len(group), (outcome, queries)
        assert queries["rejected"] == 1
        assert queries["submitted"] == sum(len(g) for g in tickets.values())
        assert queries["submitted"] == (
            queries["completed"]
            + queries["failed"]
            + queries["timed_out"]
            + queries["cancelled"]
        )
        assert queries["in_flight"] == 0

    def test_every_start_has_one_finish_and_every_root_finishes(
        self, tier, shared_roots, monkeypatch
    ):
        stream = io.StringIO()
        roots: list = []
        tracer = Tracer(on_trace=[roots.append])
        with EventLog(stream) as log:
            with open_tier(
                tier, shared_roots, workers=1, queue_depth=1,
                tracer=tracer, events=log,
            ) as pipeline:
                tickets = run_mixed_batch(pipeline, Hook(pipeline, monkeypatch))
        events = events_of(stream)
        starts = [e for e in events if e["event"] == "query_start"]
        finishes = [e for e in events if e["event"] == "query_finish"]
        assert collections.Counter(e["ticket"] for e in starts) == (
            collections.Counter(e["ticket"] for e in finishes)
        )
        assert max(collections.Counter(e["ticket"] for e in finishes).values()) == 1
        outcome_by_ticket = {e["ticket"]: e for e in finishes}
        for outcome, group in tickets.items():
            for ticket in group:
                finish = outcome_by_ticket[ticket.id]
                assert finish["outcome"] == outcome
                assert {"ticket", "kind", "outcome", "trace_id"} <= set(finish)
                assert finish["trace_id"] is not None
                assert ("latency_s" in finish) == (outcome == "completed")
                assert finish.get("skipped", False) == (outcome == "cancelled")
                assert finish.get("error") == (
                    "ValueError" if outcome == "failed" else None
                )
        assert sum(e["event"] == "query_rejected" for e in events) == 1
        # One finished root per submission, the rejected one included.
        submissions = len(starts) + 1
        assert len(roots) == submissions
        by_outcome = collections.Counter(root.attrs["outcome"] for root in roots)
        assert by_outcome == {
            "completed": 2, "failed": 1, "timed_out": 1, "cancelled": 1,
            "rejected": 1,
        }


@pytest.mark.parametrize("tier", TIERS)
class TestServingContract:
    def test_kind_defaults_by_query_class(self, tier, tmp_path):
        with open_tier(tier, make_roots(tmp_path), workers=2) as pipeline:
            submitted = {
                "aggregate": pipeline.submit(count_query()),
                "scan": pipeline.submit(scan_query()),
                "dml": pipeline.submit(INSERT_ONE),
                "mine": pipeline.submit(count_query(), kind="mine"),
            }
            for kind, ticket in submitted.items():
                ticket.result(10.0)
                assert ticket.payload.kind == kind
            by_kind = pipeline.metrics.snapshot()["queries"]["by_kind"]
        assert set(by_kind) == set(submitted)

    def test_root_span_carries_queue_wait_outcome_and_cache(
        self, tier, shared_roots
    ):
        tracer = Tracer()
        with open_tier(tier, shared_roots, workers=1, tracer=tracer) as pipeline:
            ticket = pipeline.submit(count_query())
            ticket.result(10.0)
        root = tracer.last_trace()
        assert root.name == "query"
        assert root.attrs["ticket"] == ticket.id
        assert root.attrs["kind"] == "aggregate"
        assert root.attrs["outcome"] == "completed"
        assert root.attrs["cache"] == "bypass"
        waits = [span for span in root.children if span.name == "queue_wait"]
        assert len(waits) == 1
        assert waits[0].duration_s == pytest.approx(ticket.queue_wait_s)

    def test_cache_hit_is_a_zero_io_replay_and_the_ledger_says_so(
        self, tier, tmp_path
    ):
        stream = io.StringIO()
        with EventLog(stream) as log:
            with open_tier(
                tier, make_roots(tmp_path), workers=1,
                tracer=Tracer(), events=log, result_cache=True,
            ) as pipeline:
                miss = pipeline.execute(count_query())
                hit = pipeline.execute(count_query())
                pipeline.execute(INSERT_ONE)
                cache = pipeline.result_cache.snapshot()
        assert miss.plan.strategy != "result_cache"
        assert miss.stats.page_accesses > 0
        assert hit.plan.strategy == "result_cache"
        assert (hit.columns, hit.rows) == (miss.columns, miss.rows)
        assert not any(hit.stats.as_dict().values())
        assert (cache["hits"], cache["misses"], cache["stores"]) == (1, 1, 1)
        events = events_of(stream)
        ledgers = [e for e in events if e["event"] == "query_ledger"]
        assert [ledger["cache"] for ledger in ledgers] == ["miss", "hit", "bypass"]
        for name in ("cache_store", "cache_hit"):
            (event,) = [e for e in events if e["event"] == name]
            assert {"ticket", "kind", "table", "trace_id"} <= set(event)
            assert event["table"] == "SALES"
            assert event["kind"] == "aggregate"

    def test_failed_leader_abandons_and_a_waiter_takes_the_lead(
        self, tier, shared_roots, monkeypatch
    ):
        with open_tier(
            tier, shared_roots, workers=2, result_cache=True
        ) as pipeline:
            hook = Hook(pipeline, monkeypatch)
            gate = Gate(then=ValueError("leader lost its shard"))
            hook.arm(gate)
            leader = pipeline.submit(count_query())
            assert gate.entered.wait(10.0)
            waiter = pipeline.submit(count_query())
            deadline = time.monotonic() + 10.0
            while waiter.state is TicketState.QUEUED:
                assert time.monotonic() < deadline
                time.sleep(0.005)
            time.sleep(0.05)  # let the waiter park on the leader's fill
            gate.release.set()
            with pytest.raises(ValueError):
                leader.result(10.0)
            result = waiter.result(10.0)
            cache = pipeline.result_cache.snapshot()
            again = pipeline.execute(count_query())
        assert result.plan.strategy != "result_cache"
        assert (cache["misses"], cache["stores"], cache["entries"]) == (2, 1, 1)
        assert again.plan.strategy == "result_cache"
        assert again.rows == result.rows

    def test_dml_during_a_fill_never_leaves_an_entry_at_the_old_epoch(
        self, tier, tmp_path, monkeypatch
    ):
        with open_tier(
            tier, make_roots(tmp_path), workers=2, result_cache=True
        ) as pipeline:
            hook = Hook(pipeline, monkeypatch)
            gate = Gate()
            hook.arm(gate)
            # Fingerprinted at the old epoch, held before it executes.
            raced = pipeline.submit(total_query())
            assert gate.entered.wait(10.0)
            pipeline.execute(INSERT_ONE)
            gate.release.set()
            raced.result(10.0)
            entries = pipeline.result_cache.snapshot()["entries"]
            after = pipeline.execute(total_query())
        # Whatever the race left in the cache is keyed at the *current*
        # epoch: either nothing (so the next read computes) or an entry
        # the next read hits — never one only an old-epoch key reaches.
        assert entries == (1 if after.plan.strategy == "result_cache" else 0)
        assert after.rows == [(len(sales_rows()) + 1,)]
