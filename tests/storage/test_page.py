"""Unit + property tests for page/bucket geometry."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import StorageError
from repro.storage.page import BucketLayout, DEFAULT_PAGE_HEADER, DEFAULT_PAGE_SIZE


class TestLayoutArithmetic:
    def test_paper_lineitem_geometry(self):
        # 124-byte LINEITEM records: 32 tuples per 4 KB page, as in the
        # paper's 733 MB / 6 M tuples accounting.
        layout = BucketLayout(record_width=124)
        assert layout.tuples_per_page == 32
        assert layout.tuples_per_bucket == 32

    def test_page_payload(self):
        layout = BucketLayout(record_width=10)
        assert layout.page_payload == DEFAULT_PAGE_SIZE - DEFAULT_PAGE_HEADER

    def test_multi_page_bucket(self):
        layout = BucketLayout(record_width=100, pages_per_bucket=4)
        assert layout.tuples_per_bucket == layout.tuples_per_page * 4
        assert layout.bucket_bytes == 4 * DEFAULT_PAGE_SIZE

    def test_buckets_for(self):
        layout = BucketLayout(record_width=124)
        assert layout.buckets_for(0) == 0
        assert layout.buckets_for(1) == 1
        assert layout.buckets_for(32) == 1
        assert layout.buckets_for(33) == 2

    def test_pages_and_bytes_for(self):
        layout = BucketLayout(record_width=124, pages_per_bucket=2)
        assert layout.tuples_per_bucket == 64
        assert layout.pages_for(64) == 2  # one bucket of two pages
        assert layout.pages_for(65) == 4  # spills into a second bucket
        assert layout.bytes_for(65) == 4 * DEFAULT_PAGE_SIZE

    def test_negative_records_rejected(self):
        with pytest.raises(StorageError):
            BucketLayout(record_width=8).buckets_for(-1)


class TestValidation:
    def test_record_must_fit_page(self):
        with pytest.raises(StorageError):
            BucketLayout(record_width=DEFAULT_PAGE_SIZE)

    def test_positive_record_width(self):
        with pytest.raises(StorageError):
            BucketLayout(record_width=0)

    def test_positive_pages_per_bucket(self):
        with pytest.raises(StorageError):
            BucketLayout(record_width=8, pages_per_bucket=0)

    def test_page_size_exceeds_header(self):
        with pytest.raises(StorageError):
            BucketLayout(record_width=8, page_size=32, page_header=32)


class TestProperties:
    @given(
        record_width=st.integers(1, 512),
        pages_per_bucket=st.integers(1, 8),
        num_records=st.integers(0, 100_000),
    )
    def test_capacity_invariants(self, record_width, pages_per_bucket, num_records):
        layout = BucketLayout(
            record_width=record_width, pages_per_bucket=pages_per_bucket
        )
        buckets = layout.buckets_for(num_records)
        # Enough capacity for every record ...
        assert buckets * layout.tuples_per_bucket >= num_records
        # ... but never a whole spare bucket.
        if buckets:
            assert (buckets - 1) * layout.tuples_per_bucket < num_records

    @given(record_width=st.integers(1, 512))
    def test_records_never_span_pages(self, record_width):
        layout = BucketLayout(record_width=record_width)
        assert layout.tuples_per_page * record_width <= layout.page_payload
