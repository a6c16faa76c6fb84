"""Tests for incremental SMA maintenance under insert/update/delete."""

import datetime
import os

import numpy as np
import pytest

from repro.core import AggregateKind, SmaFile, SmaMaintainer
from repro.core.builder import accumulate
from repro.core.ingest import apply_dml
from repro.errors import SmaStateError
from repro.lang import cmp
from repro.sql.parser import parse_statement

from tests.conftest import BASE_DATE, SALES_SCHEMA, brute_force_partition_check


@pytest.fixture
def maintainer(sales_table, sales_sma_set):
    return SmaMaintainer(sales_table, [sales_sma_set])


def fresh_rows(n, *, day_offset=200, flag="A", qty=3.0, start_id=90_000):
    return SALES_SCHEMA.batch_from_rows(
        [
            (
                start_id + i,
                BASE_DATE + datetime.timedelta(days=day_offset + i // 50),
                qty,
                flag,
            )
            for i in range(n)
        ]
    )


def sma_entries(sma_set):
    """``(values, valid)`` of every SMA-file as re-read from disk, keyed
    by (name, group)."""
    entries = {}
    for name in sma_set.definitions:
        for key, sma in sma_set.files_of(name).items():
            sma = SmaFile.open(sma.path, sma.pool)
            assert not sma.is_corrupt, sma.corrupt_reason
            values = sma.values(charge=False).copy()
            mask = sma.valid_mask()
            valid = np.ones(len(values), dtype=bool) if mask is None else mask.copy()
            entries[name, key] = (values, valid)
    return entries


def assert_consistent(table, sma_set):
    """Every SMA-file equals the kernel's fresh arrays for the whole heap:
    validity equal everywhere, value bytes equal where valid."""
    fresh = accumulate(table, list(sma_set.definitions.values()))
    stored = sma_entries(sma_set)
    for definition in sma_set.definitions.values():
        files = sma_set.files_of(definition.name)
        accumulator = fresh[definition.name]
        for sma in files.values():
            assert sma.num_entries == table.num_buckets
        if definition.aggregate.kind in (AggregateKind.COUNT, AggregateKind.SUM):
            # Group absent from a bucket: count/sum read as zero, and
            # their files carry no validity vector.
            assert all(sma.valid_mask() is None for sma in files.values())
        for key in set(files) | set(accumulator.groups):
            assert key in files, (definition.name, key)
            values, valid = stored[definition.name, key]
            expected, expected_valid = accumulator.arrays_for(key)
            assert np.array_equal(valid, expected_valid), (definition.name, key)
            assert values[valid].tobytes() == expected[valid].tobytes(), (
                definition.name, key,
            )


class TestInsert:
    def test_appends_rows_and_extends_smas(self, maintainer, sales_table, sales_sma_set):
        before = sales_table.num_records
        maintainer.insert(fresh_rows(500))
        assert sales_table.num_records == before + 500
        assert_consistent(sales_table, sales_sma_set)

    def test_small_insert_tops_up_trailing_bucket(
        self, maintainer, sales_table, sales_sma_set
    ):
        buckets_before = sales_table.num_buckets
        maintainer.insert(fresh_rows(3))
        assert sales_table.num_buckets == buckets_before
        assert_consistent(sales_table, sales_sma_set)

    def test_new_group_creates_new_sma_files(
        self, maintainer, sales_table, sales_sma_set
    ):
        assert ("X",) not in sales_sma_set.files_of("cnt")
        maintainer.insert(fresh_rows(400, flag="X"))
        assert ("X",) in sales_sma_set.files_of("cnt")
        assert ("X",) in sales_sma_set.files_of("sqty")
        assert_consistent(sales_table, sales_sma_set)

    def test_grading_stays_sound_after_insert(
        self, maintainer, sales_table, sales_sma_set
    ):
        maintainer.insert(fresh_rows(700))
        brute_force_partition_check(
            sales_table, sales_sma_set,
            cmp("ship", ">=", BASE_DATE + datetime.timedelta(days=200)),
        )

    def test_empty_insert_is_noop(self, maintainer, sales_table):
        buckets = sales_table.num_buckets
        maintainer.insert(SALES_SCHEMA.empty_batch())
        assert sales_table.num_buckets == buckets

    def test_successive_inserts(self, maintainer, sales_table, sales_sma_set):
        for step in range(4):
            maintainer.insert(fresh_rows(137, day_offset=200 + step))
        assert_consistent(sales_table, sales_sma_set)

    def test_topped_up_float_sums_match_a_fresh_fold_bit_for_bit(
        self, maintainer, sales_table, sales_sma_set
    ):
        # Buckets filled by many small inserts: an entry advanced by each
        # batch's partial sum rounds differently from the one-pass sum a
        # heap fold of the bucket takes, and SMA_GAggr must equal GAggr.
        first = sales_table.num_buckets - 1
        for step in range(80):
            rows = fresh_rows(7, day_offset=200 + step, start_id=90_000 + 7 * step)
            rows["qty"] = (np.arange(7) + 1) / 7 + step / 3
            maintainer.insert(rows)
        files = sales_sma_set.files_of("sqty")
        for bucket_no in range(first, sales_table.num_buckets):
            records = sales_table.read_bucket(bucket_no)
            for key, sma in files.items():
                mine = records["qty"][records["flag"] == key[0].encode()]
                value = float(mine.sum(dtype=np.float64))
                got = sma.value_at(bucket_no, charge=False)
                assert got.hex() == value.hex(), (key, bucket_no)

    def test_top_up_rewrites_only_the_entries_it_changes(
        self, catalog, maintainer, sales_table, sales_sma_set
    ):
        # Section 2.1's "at most one additional page access": topping up a
        # bucket that already holds every group rewrites the heap pages
        # and the entries whose bytes moved -- never an unchanged entry.
        trailing = sales_table.num_buckets - 1
        records = sales_table.read_bucket(trailing)
        assert set(records["flag"].tolist()) == {b"A", b"R"}
        assert len(records) + 2 <= sales_table.layout.tuples_per_bucket
        before = sma_entries(sales_sma_set)
        catalog.reset_stats()
        maintainer.insert(fresh_rows(2))
        writes = catalog.stats.page_writes
        after = sma_entries(sales_sma_set)
        assert sales_table.num_buckets == trailing + 1
        assert after.keys() == before.keys()
        changed = 0
        for file, (values, valid) in after.items():
            old_values, old_valid = before[file]
            for i in range(len(values)):
                moved = values[i : i + 1].tobytes() != old_values[i : i + 1].tobytes()
                changed += bool(valid[i] != old_valid[i] or valid[i] and moved)
        assert 0 < changed < len(after)
        assert writes <= sales_table.layout.pages_per_bucket + changed
        assert_consistent(sales_table, sales_sma_set)


class TestUpdate:
    def test_update_recomputes_touched_buckets(
        self, maintainer, sales_table, sales_sma_set
    ):
        touched = maintainer.update_where(cmp("qty", "=", 3.0), {"qty": 4.0})
        assert touched > 0
        assert_consistent(sales_table, sales_sma_set)

    def test_update_on_clustered_column(self, maintainer, sales_table, sales_sma_set):
        target = BASE_DATE + datetime.timedelta(days=5)
        replacement = BASE_DATE + datetime.timedelta(days=500)
        touched = maintainer.update_where(
            cmp("ship", "=", target), {"ship": replacement}
        )
        assert touched > 0
        assert_consistent(sales_table, sales_sma_set)
        brute_force_partition_check(
            sales_table, sales_sma_set, cmp("ship", "<=", target)
        )

    def test_no_match_update(self, maintainer, sales_table, sales_sma_set):
        assert maintainer.update_where(cmp("qty", "=", 999.0), {"qty": 1.0}) == 0


class TestDelete:
    def test_delete_recomputes(self, maintainer, sales_table, sales_sma_set):
        removed = maintainer.delete_where(cmp("qty", "=", 3.0))
        assert removed > 0
        assert_consistent(sales_table, sales_sma_set)

    def test_delete_whole_group(self, maintainer, sales_table, sales_sma_set):
        maintainer.insert(fresh_rows(300, flag="X"))
        removed = maintainer.delete_where(cmp("flag", "=", "X"))
        assert removed == 300
        # The X counts must read as zero everywhere now.
        for sma in (sales_sma_set.files_of("cnt")[("X",)],):
            assert sma.values(charge=False).sum() == 0
        assert_consistent(sales_table, sales_sma_set)

    def test_emptied_buckets_disqualify(self, maintainer, sales_table, sales_sma_set):
        # Empty an entire date range; its buckets must grade d not a.
        cutoff = BASE_DATE + datetime.timedelta(days=5)
        maintainer.delete_where(cmp("ship", "<=", cutoff))
        partitioning = brute_force_partition_check(
            sales_table, sales_sma_set, cmp("ship", "<=", cutoff)
        )
        counts = np.asarray(sales_table.heap.bucket_counts())
        assert bool(partitioning.disqualifying[counts == 0].all())

    def test_delete_everything(self, maintainer, sales_table, sales_sma_set):
        removed = maintainer.delete_where(cmp("id", ">=", 0))
        assert removed == 2000
        assert sales_table.num_records == 0
        assert_consistent(sales_table, sales_sma_set)


class TestGuards:
    def test_wrong_table_rejected(self, catalog, sales_table, sales_sma_set):
        other = catalog.create_table("OTHER", SALES_SCHEMA)
        with pytest.raises(SmaStateError):
            SmaMaintainer(other, [sales_sma_set])

    def test_update_cost_bounded(self, catalog, maintainer, sales_table):
        """One updated tuple: bucket read+write plus at most one page
        write per SMA-file touched (the paper's bound)."""
        catalog.reset_stats()
        maintainer.update_where(cmp("id", "=", 42), {"qty": 9.0})
        num_files = 6  # smin smax cnt(A,R) sqty(A,R)
        pages_per_bucket = sales_table.layout.pages_per_bucket
        assert catalog.stats.page_writes <= pages_per_bucket + num_files


def sma_bodies(sma_set):
    """Every SMA-file's body bytes on disk, keyed by path."""
    bodies = {}
    for sma in sma_set.all_files():
        with open(sma.path, "rb") as f:
            bodies[sma.path] = f.read()
    return bodies


class TestOneWritePerFile:
    """Each changed SMA-file writes its meta sidecar once per batch, and
    only the byte runs of its changed entries."""

    @pytest.mark.parametrize("sql", [
        "UPDATE SALES SET qty = 9.0 WHERE flag = 'A'",
        "DELETE FROM SALES WHERE qty = 3.0",
    ], ids=["update", "delete"])
    def test_fsyncs_per_batch(self, catalog, sales_table, sales_sma_set, monkeypatch, sql):
        # Four fixed fsyncs -- the intent, the heap meta, the heap counts
        # and the catalog manifest -- plus one meta per changed SMA-file.
        before = sma_bodies(sales_sma_set)
        fsyncs = []
        real_fsync = os.fsync
        monkeypatch.setattr(os, "fsync", lambda fd: fsyncs.append(fd) or real_fsync(fd))
        outcome = apply_dml(catalog, parse_statement(sql))
        monkeypatch.undo()
        after = sma_bodies(sales_sma_set)
        changed = sum(after[path] != body for path, body in before.items())
        assert outcome.rows_affected > sales_table.layout.tuples_per_bucket
        assert changed > 0
        assert len(fsyncs) <= 4 + changed
        assert_consistent(sales_table, sales_sma_set)

    def test_bucket_opening_insert_keeps_leading_pages(
        self, maintainer, sales_table, sales_sma_set, monkeypatch
    ):
        # A validity-free body grows by writing its changed tail only:
        # nothing before the trailing entry is rewritten.
        import builtins

        from repro.core import sma_file

        writes = []

        class Recorder:
            def __init__(self, handle):
                self._handle = handle

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                self._handle.close()

            def write(self, data):
                writes.append((self._handle.name, self._handle.tell()))
                return self._handle.write(data)

            def __getattr__(self, name):
                return getattr(self._handle, name)

        def recording_open(path, mode="r", *args, **kwargs):
            handle = builtins.open(path, mode, *args, **kwargs)
            return Recorder(handle) if path.endswith(".sma") and mode != "rb" else handle

        first_kept = {
            sma.path: (sma.num_entries - 1) * sma.value_width
            for sma in sales_sma_set.all_files()
            if sma.valid_mask() is None
        }
        monkeypatch.setattr(sma_file, "open", recording_open, raising=False)
        maintainer.insert(fresh_rows(sales_table.layout.tuples_per_bucket + 5))
        monkeypatch.undo()
        assert {path for path, _ in writes} == set(first_kept)
        for path, offset in writes:
            assert offset >= first_kept[path] > 0, path
        assert_consistent(sales_table, sales_sma_set)


class TestCutShortBatch:
    """A batch that raises part-way leaves every file it touched listed
    and checksummed, so the catalog reopens clean and takes more DML."""

    def test_update_adding_a_group_then_failing(
        self, catalog, sales_table, sales_sma_set, monkeypatch
    ):
        from repro.core.verify import verify_catalog
        from repro.query.session import Session
        from repro.storage import Catalog

        write_bucket = sales_table.heap.write_bucket
        calls = []

        def fail_second(bucket_no, records):
            calls.append(bucket_no)
            if len(calls) == 2:
                raise OSError("injected: disk full")
            return write_bucket(bucket_no, records)

        monkeypatch.setattr(sales_table.heap, "write_bucket", fail_second)
        # Bucket 0's refresh builds the new group 'Z'; bucket 1 fails.
        with pytest.raises(OSError, match="injected"):
            apply_dml(catalog, parse_statement("UPDATE SALES SET flag = 'Z' WHERE qty = 3.0"))
        monkeypatch.undo()
        catalog.close()

        reopened = Catalog.discover(catalog.root_dir)
        try:
            (sma_set,) = reopened.sma_sets("SALES")
            assert ("Z",) in sma_set.files_of("cnt")
            assert not any(sma.is_corrupt for sma in sma_set.all_files())
            apply_dml(reopened, parse_statement(
                "INSERT INTO SALES VALUES (5000, DATE '1999-01-01', 2.5, 'Z')"
            ))
            assert verify_catalog(reopened).ok
            assert verify_catalog(reopened, repair=True).ok
            session = Session(reopened)
            sql = "SELECT flag, COUNT(*) AS n, SUM(qty) AS s FROM SALES GROUP BY flag ORDER BY flag"
            via_sma = session.sql(sql, mode="sma")
            assert [row[0] for row in via_sma.rows] == ["A", "R", "Z"]
            assert repr(via_sma.rows) == repr(session.sql(sql, mode="scan").rows)
        finally:
            reopened.close()
