"""Tests for incremental SMA maintenance under insert/update/delete."""

import datetime

import numpy as np
import pytest

from repro.core import SmaMaintainer
from repro.errors import SmaStateError
from repro.lang import cmp

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


def assert_consistent(table, sma_set):
    """Every SMA entry equals a recomputation from the base data."""
    from repro.core.maintenance import compute_bucket_entry

    for definition in sma_set.definitions.values():
        files = sma_set.files_of(definition.name)
        for sma in files.values():
            assert sma.num_entries == table.num_buckets
        for bucket_no in range(table.num_buckets):
            records = table.read_bucket(bucket_no)
            expected = compute_bucket_entry(definition, records, table.schema)
            for key, sma in files.items():
                valid = sma.valid_mask()
                defined = valid is None or bool(valid[bucket_no])
                if key in expected:
                    value, _ = expected[key]
                    assert defined, (definition.name, key, bucket_no)
                    got = sma.value_at(bucket_no, charge=False)
                    assert got == pytest.approx(value), (
                        definition.name, key, bucket_no,
                    )
                else:
                    # Group absent from this bucket: count/sum must read
                    # as zero, min/max must be undefined.
                    if sma.values(charge=False).dtype.kind in "if":
                        if defined:
                            assert sma.value_at(bucket_no, charge=False) == 0


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
        from repro.core.maintenance import compute_bucket_entry

        first = sales_table.num_buckets - 1
        for step in range(80):
            rows = fresh_rows(7, day_offset=200 + step, start_id=90_000 + 7 * step)
            rows["qty"] = (np.arange(7) + 1) / 7 + step / 3
            maintainer.insert(rows)
        definition = sales_sma_set.definitions["sqty"]
        files = sales_sma_set.files_of("sqty")
        for bucket_no in range(first, sales_table.num_buckets):
            records = sales_table.read_bucket(bucket_no)
            expected = compute_bucket_entry(definition, records, sales_table.schema)
            for key, (value, _) in expected.items():
                got = files[key].value_at(bucket_no, charge=False)
                assert got.hex() == value.hex(), (key, bucket_no)


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
