"""Epoch-snapshot isolation: readers pinned at epoch N never see N+1.

Every INSERT batch here has the same row count, so a reader's COUNT(*)
must equal ``base + batch * epoch`` for the epoch its own result reports
— any torn append, half-visible batch or stale trailing-bucket SMA entry
breaks that equality.  The suite drives the race on both scan backends:
thread morsels (shared heap object) and process workers (re-opened heap,
pin shipped in the task payload).
"""

from __future__ import annotations

import datetime
import threading

import pytest

from repro.errors import StorageError
from repro.query.query import InsertStatement
from repro.query.session import Session
from repro.storage import Catalog
from repro.storage.table import TableView

from tests.conftest import BASE_DATE, SALES_SCHEMA, sales_rows

BASE = 2000
BATCH = 64
BATCHES = 8


def _batch(b: int) -> InsertStatement:
    rows = tuple(
        (
            50_000 + b * BATCH + i,
            BASE_DATE + datetime.timedelta(days=400 + b),
            float(i % 9),
            "AR"[i % 2],
        )
        for i in range(BATCH)
    )
    return InsertStatement("SALES", rows)


class TestTableView:
    def test_pin_freezes_growth(self, catalog, sales_table):
        view = catalog.pin_view("SALES")
        assert view.epoch == 0
        assert view.num_records == BASE
        sales_table.append_rows(
            [(60_000 + i, BASE_DATE, 0.0, "A") for i in range(500)]
        )
        # The base table grew; the pinned view did not.
        assert sales_table.num_records == BASE + 500
        assert view.num_records == BASE
        assert sum(len(r) for _, r in view.iter_buckets()) == BASE

    def test_out_of_range_bucket_raises(self, catalog, sales_table):
        view = catalog.pin_view("SALES")
        with pytest.raises(StorageError):
            view.read_bucket(view.num_buckets)

    def test_pin_roundtrips_wire_form(self, catalog, sales_table):
        view = catalog.pin_view("SALES")
        pin = view.pin
        assert set(pin) == {"epoch", "buckets", "trailing"}
        rebuilt = TableView.from_pin(sales_table, pin)
        assert rebuilt.num_records == view.num_records
        assert rebuilt.pin == pin

    def test_views_are_read_only(self, catalog, sales_table):
        view = catalog.pin_view("SALES")
        with pytest.raises(Exception):
            view.append_rows([(1, BASE_DATE, 0.0, "A")])


def _run_reader_writer_race(
    catalog, *, backend: str, scan_workers: int = 2, mode: str = "auto"
):
    """N reader threads assert count == base + batch * pinned epoch."""
    writer_session = Session(catalog)
    failures: list[str] = []
    done = threading.Event()

    def reader() -> None:
        session = Session(
            catalog, scan_workers=scan_workers, scan_backend=backend
        )
        while not done.is_set():
            result = session.sql("SELECT COUNT(*) AS n FROM SALES", mode=mode)
            count, epoch = result.rows[0][0], result.epoch
            expected = BASE + BATCH * epoch
            if count != expected:
                failures.append(
                    f"epoch {epoch}: count {count} != expected {expected}"
                )
                return

    readers = [threading.Thread(target=reader) for _ in range(3)]
    for thread in readers:
        thread.start()
    try:
        for b in range(BATCHES):
            result = writer_session.execute(_batch(b))
            assert result.rows == [(BATCH, b + 1)]
    finally:
        done.set()
        for thread in readers:
            thread.join()
    assert not failures, failures[:3]
    final = Session(catalog).sql("SELECT COUNT(*) AS n FROM SALES")
    assert final.rows == [(BASE + BATCHES * BATCH,)]
    assert final.epoch == BATCHES


@pytest.mark.parametrize("mode", ["sma", "scan"])
@pytest.mark.parametrize("scan_workers", [1, 2])
def test_readers_pinned_thread_backend(
    catalog, sales_table, sales_sma_set, scan_workers, mode
):
    _run_reader_writer_race(
        catalog, backend="thread", scan_workers=scan_workers, mode=mode
    )


def test_readers_pinned_process_backend(tmp_path):
    # Process workers re-open the catalog from disk, so build it in a
    # directory this test owns (the shared fixture would race teardown).
    catalog = Catalog(str(tmp_path / "db"))
    try:
        table = catalog.create_table(
            "SALES", SALES_SCHEMA, clustered_on="ship"
        )
        table.append_rows(sales_rows())
        table.heap.flush()
        _run_reader_writer_race(catalog, backend="process", scan_workers=4)
    finally:
        from repro.query import procpool

        procpool.dispose_pools(catalog.root_dir)
        catalog.close()


def test_concurrent_results_match_serial_replay(catalog, sales_table, sales_sma_set):
    """Queries raced against ingest answer exactly like a serial replay
    at their pinned epoch."""
    session = Session(catalog)
    observed: dict[int, tuple] = {}
    done = threading.Event()

    def reader() -> None:
        reader_session = Session(catalog)
        while not done.is_set():
            result = reader_session.sql(
                "SELECT COUNT(*) AS n, SUM(qty) AS s FROM SALES"
            )
            observed.setdefault(result.epoch, tuple(result.rows))

    thread = threading.Thread(target=reader)
    thread.start()
    try:
        for b in range(BATCHES):
            session.execute(_batch(b))
    finally:
        done.set()
        thread.join()

    # Serial ground truth: replay the same batches on a scratch catalog,
    # capturing the relation at every epoch the racing reader observed.
    truth: dict[int, tuple] = {}
    scratch = Catalog(str(catalog.root_dir) + "-truth")
    try:
        table = scratch.create_table("SALES", SALES_SCHEMA, clustered_on="ship")
        table.append_rows(sales_rows())
        serial = Session(scratch)
        truth[0] = tuple(
            serial.sql("SELECT COUNT(*) AS n, SUM(qty) AS s FROM SALES").rows
        )
        for b in range(BATCHES):
            serial.execute(_batch(b))
            truth[b + 1] = tuple(
                serial.sql(
                    "SELECT COUNT(*) AS n, SUM(qty) AS s FROM SALES"
                ).rows
            )
    finally:
        scratch.close()
    assert observed  # the reader saw at least one epoch
    for epoch, rows in observed.items():
        assert repr(rows) == repr(truth[epoch]), f"epoch {epoch}"
