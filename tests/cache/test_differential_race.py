"""Differential race: cached serving vs uncached replay under live DML.

The archetype test of this suite.  A 16-client zipf-skewed read burst
runs against a service with the result cache enabled while a paced
writer pushes INSERT batches through the write queue.
After every applied batch the writer captures the table's epoch pin, so
each ingest epoch that existed during the run has a frozen
bucket-generation snapshot.  Every kept result is then replayed against
the pin of *its own* epoch through a hand-rolled grade-and-aggregate
oracle (no cache, no planner, no service) and must match
byte-for-byte.

A mismatch means a stale read — a hit served across a DML boundary —
and fails loudly with the full provenance.  Runs on both scan backends;
round count scales via ``REPRO_CACHE_DIFF_ROUNDS`` (CI's cache-smoke job
sets 20).
"""

from __future__ import annotations

import os
import threading
import time

import pytest

from repro.query.aggregation import AggregationState
from repro.query.logical import normalize_predicate
from repro.query.session import _sort_rows
from repro.server.service import QueryService
from repro.server.workload import WorkloadDriver, zipf_mix
from repro.storage.table import TableView

ROUNDS = int(os.environ.get("REPRO_CACHE_DIFF_ROUNDS", "3"))
CLIENTS = 16
QUERIES_PER_CLIENT = 2
WRITER_INTERVAL_S = 0.05
BATCH_ROWS = 24


def _oracle_replay(catalog, table_name, pin, query):
    """Grade-and-aggregate straight off the pinned snapshot.

    Deliberately independent of Session, the planner and the cache:
    buckets are read through the pinned view, graded with the bound
    predicate, folded into one AggregationState.
    """
    view = TableView.from_pin(catalog.table(table_name), pin)
    predicate = normalize_predicate(query.where.bind(view.schema))
    state = AggregationState(view.schema, query.group_by, query.aggregates)
    for bucket_no in range(view.num_buckets):
        records = view.read_bucket(bucket_no)
        mask = predicate.evaluate(records)
        state.consume_batch(records if mask.all() else records[mask])
    columns, rows = state.finalize()
    return columns, _sort_rows(rows, columns, query.order_by, query.order_desc)


@pytest.mark.parametrize("backend", ["thread", "process"])
def test_cached_results_match_uncached_replay_under_dml(
    lineitem_catalog, backend
):
    catalog, loaded = lineitem_catalog
    table_name = loaded.table.name
    mix = zipf_mix(table_name, distinct=8)
    by_name = {entry.name: entry.query for entry in mix}

    # Epoch pins: the frozen geometry of every epoch seen during the
    # run.  Epoch 0 (the bulk-loaded state) is captured up front; the
    # writer captures each epoch it creates right after the batch lands.
    pins: dict[int, dict] = {}
    base_view = catalog.pin_view(table_name)
    pins[int(base_view.epoch)] = base_view.pin

    template = tuple(
        tuple(record) for record in loaded.table.read_bucket(0).tolist()
    )[:BATCH_ROWS]
    stop = threading.Event()
    writer_errors: list[BaseException] = []

    def writer_loop():
        from repro.query.query import InsertStatement

        while not stop.is_set():
            started = time.perf_counter()
            try:
                service.submit(
                    InsertStatement(table_name, template), kind="dml"
                ).result()
                view = catalog.pin_view(table_name)
                pins[int(view.epoch)] = view.pin
            except BaseException as exc:  # noqa: BLE001 - surfaced below
                writer_errors.append(exc)
                return
            remaining = WRITER_INTERVAL_S - (time.perf_counter() - started)
            if remaining > 0:
                stop.wait(remaining)

    with QueryService(
        catalog,
        workers=CLIENTS + 1,
        queue_depth=max(32, 2 * CLIENTS + 2),
        result_cache=True,
        scan_workers=2 if backend == "process" else 1,
        morsel_buckets=2,
        scan_backend=backend,
    ) as service:
        writer = threading.Thread(
            target=writer_loop, name="diff-writer", daemon=True
        )
        writer.start()
        runs = []
        try:
            driver = WorkloadDriver(service, mix)
            for _ in range(ROUNDS):
                runs.append(
                    driver.run_closed_loop(
                        clients=CLIENTS,
                        queries_per_client=QUERIES_PER_CLIENT,
                        keep_results=True,
                    )
                )
        finally:
            stop.set()
            writer.join()
        # One settled round after the writer stops: the epoch no longer
        # moves, so this round is guaranteed to produce cache hits (the
        # raced rounds above may see an epoch bump between every read).
        runs.append(
            driver.run_closed_loop(
                clients=CLIENTS,
                queries_per_client=QUERIES_PER_CLIENT,
                keep_results=True,
            )
        )
        cache_snapshot = service.result_cache.snapshot()
    if backend == "process":
        from repro.query import procpool

        procpool.dispose_pools(catalog.root_dir)

    assert not writer_errors, f"writer died: {writer_errors[0]!r}"
    applied_epochs = max(pins) - int(base_view.epoch)
    assert applied_epochs > 0, "the paced writer never landed a batch"

    # Every kept result replays byte-identically at its own epoch.
    references: dict[tuple[str, int], tuple] = {}
    checked = 0
    for run in runs:
        assert run.completed == run.total, (
            f"lost queries on backend={backend}: {run.completed}/{run.total}"
        )
        for outcome in run.outcomes:
            result = outcome.result
            assert result is not None and result.epoch is not None
            epoch = int(result.epoch)
            assert epoch in pins, (
                f"result for {outcome.name} reports epoch {epoch} but no "
                f"such epoch was pinned (pins: {sorted(pins)})"
            )
            key = (outcome.name, epoch)
            if key not in references:
                references[key] = _oracle_replay(
                    catalog, table_name, pins[epoch], by_name[outcome.name]
                )
            columns, rows = references[key]
            if (
                list(result.columns) != list(columns)
                or repr(result.rows) != repr(rows)
            ):
                raise AssertionError(
                    f"STALE READ on backend={backend}: plan {outcome.name} "
                    f"served via {result.plan.strategy} at epoch {epoch} "
                    f"differs from the uncached replay of that epoch.\n"
                    f"  served:   {result.rows!r}\n"
                    f"  replayed: {rows!r}"
                )
            checked += 1
    assert checked == (ROUNDS + 1) * CLIENTS * QUERIES_PER_CLIENT

    # The run must have genuinely exercised the machinery under test.
    assert cache_snapshot["hits"] + cache_snapshot["flight_hits"] > 0, (
        "differential run never hit the cache — the race it guards "
        "against was not exercised"
    )
