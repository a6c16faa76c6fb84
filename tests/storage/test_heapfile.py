"""Unit tests for file-backed heap files."""

import numpy as np
import pytest

from repro.errors import StorageError
from repro.storage.buffer import BufferPool
from repro.storage.heapfile import HeapFile
from repro.storage.schema import Schema
from repro.storage.types import FLOAT64, INT32, char


@pytest.fixture
def schema():
    return Schema.of(("k", INT32), ("v", FLOAT64), ("tag", char(4)))


@pytest.fixture
def pool():
    return BufferPool(capacity_pages=64)


@pytest.fixture
def heap(tmp_path, schema, pool):
    with HeapFile.create(str(tmp_path / "t.heap"), schema, pool) as h:
        yield h


def make_batch(schema, n, start=0):
    return schema.batch_from_columns(
        k=np.arange(start, start + n, dtype=np.int32),
        v=np.arange(start, start + n, dtype=np.float64) * 0.5,
        tag=np.array([b"tag"] * n, dtype="S4"),
    )


class TestCreateOpen:
    def test_new_file_is_empty(self, heap):
        assert heap.num_buckets == 0
        assert heap.num_records == 0
        assert heap.num_pages == 0
        assert heap.size_bytes == 0

    def test_create_refuses_overwrite(self, tmp_path, schema, pool, heap):
        with pytest.raises(StorageError):
            HeapFile.create(heap.path, schema, pool)

    def test_open_restores_everything(self, tmp_path, schema, pool):
        path = str(tmp_path / "persist.heap")
        with HeapFile.create(path, schema, pool) as heap:
            heap.append_batch(make_batch(schema, 777))
            records = heap.num_records
            buckets = heap.num_buckets
        reopened = HeapFile.open(path, BufferPool(capacity_pages=64))
        assert reopened.num_records == records
        assert reopened.num_buckets == buckets
        assert reopened.schema == schema
        np.testing.assert_array_equal(
            reopened.read_all()["k"], np.arange(777, dtype=np.int32)
        )
        reopened.close()

    def test_open_missing_raises(self, tmp_path, pool):
        with pytest.raises(StorageError, match="metadata"):
            HeapFile.open(str(tmp_path / "nope.heap"), pool)


class TestAppendRead:
    def test_dense_packing(self, heap, schema):
        per_bucket = heap.layout.tuples_per_bucket
        heap.append_batch(make_batch(schema, per_bucket * 2 + 3))
        assert heap.num_buckets == 3
        assert heap.bucket_count(0) == per_bucket
        assert heap.bucket_count(1) == per_bucket
        assert heap.bucket_count(2) == 3

    def test_append_tops_up_trailing_bucket(self, heap, schema):
        per_bucket = heap.layout.tuples_per_bucket
        heap.append_batch(make_batch(schema, 3))
        heap.append_batch(make_batch(schema, per_bucket, start=3))
        assert heap.num_buckets == 2
        assert heap.bucket_count(0) == per_bucket
        # Physical order preserved across the two appends.
        np.testing.assert_array_equal(
            heap.read_all()["k"], np.arange(per_bucket + 3, dtype=np.int32)
        )

    def test_read_bucket_contents(self, heap, schema):
        heap.append_batch(make_batch(schema, 10))
        bucket = heap.read_bucket(0)
        assert len(bucket) == 10
        assert bucket["v"][4] == 2.0
        assert bucket["tag"][0] == b"tag"

    def test_read_bucket_out_of_range(self, heap, schema):
        heap.append_batch(make_batch(schema, 1))
        with pytest.raises(StorageError, match="out of range"):
            heap.read_bucket(1)

    def test_empty_append_is_noop(self, heap, schema):
        heap.append_batch(schema.empty_batch())
        assert heap.num_buckets == 0

    def test_wrong_dtype_rejected(self, heap):
        with pytest.raises(StorageError, match="dtype"):
            heap.append_batch(np.zeros(3, dtype=np.int32))

    def test_iter_buckets_in_order(self, heap, schema):
        per_bucket = heap.layout.tuples_per_bucket
        heap.append_batch(make_batch(schema, per_bucket * 3))
        seen = [bucket_no for bucket_no, _ in heap.iter_buckets()]
        assert seen == [0, 1, 2]

    def test_append_rows_convenience(self, heap):
        heap.append_rows([(1, 0.5, "ab"), (2, 1.5, "cd")])
        batch = heap.read_all()
        assert list(batch["k"]) == [1, 2]


class TestMultiPageBuckets:
    def test_records_split_across_pages(self, tmp_path, schema, pool):
        with HeapFile.create(
            str(tmp_path / "m.heap"), schema, pool, pages_per_bucket=3
        ) as heap:
            per_bucket = heap.layout.tuples_per_bucket
            assert per_bucket == heap.layout.tuples_per_page * 3
            heap.append_batch(make_batch(schema, per_bucket + 5))
            assert heap.num_buckets == 2
            np.testing.assert_array_equal(
                heap.read_bucket(0)["k"], np.arange(per_bucket, dtype=np.int32)
            )
            assert len(heap.read_bucket(1)) == 5


class TestWriteBucket:
    def test_replace_contents(self, heap, schema):
        heap.append_batch(make_batch(schema, 20))
        replacement = make_batch(schema, 5, start=100)
        heap.write_bucket(0, replacement)
        assert heap.bucket_count(0) == 5
        np.testing.assert_array_equal(
            heap.read_bucket(0)["k"], np.arange(100, 105, dtype=np.int32)
        )

    def test_capacity_enforced(self, heap, schema):
        heap.append_batch(make_batch(schema, 1))
        too_big = make_batch(schema, heap.layout.tuples_per_bucket + 1)
        with pytest.raises(StorageError, match="capacity"):
            heap.write_bucket(0, too_big)

    def test_empty_bucket_allowed(self, heap, schema):
        heap.append_batch(make_batch(schema, 10))
        heap.write_bucket(0, schema.empty_batch())
        assert heap.bucket_count(0) == 0
        assert len(heap.read_bucket(0)) == 0


class TestAccounting:
    def test_cold_read_charges_pages(self, heap, schema, pool):
        heap.append_batch(make_batch(schema, heap.layout.tuples_per_bucket * 2))
        pool.clear()
        pool.stats.reset()
        heap.read_bucket(0)
        heap.read_bucket(1)
        assert pool.stats.page_reads == 2
        heap.read_bucket(1)
        assert pool.stats.buffer_hits == 1

    def test_append_charges_writes(self, heap, schema, pool):
        pool.stats.reset()
        heap.append_batch(make_batch(schema, heap.layout.tuples_per_bucket * 3))
        assert pool.stats.page_writes == 3

    def test_bucket_counts_view_is_readonly(self, heap, schema):
        heap.append_batch(make_batch(schema, 5))
        counts = heap.bucket_counts()
        with pytest.raises(ValueError):
            counts[0] = 99

