"""Unit tests for SMA-files: layout, persistence, charging, maintenance."""

import numpy as np
import pytest

from repro.core.sma_file import SmaFile
from repro.errors import SmaStateError, StorageError
from repro.storage.buffer import BufferPool


@pytest.fixture
def pool():
    return BufferPool(capacity_pages=64)


def build(tmp_path, pool, values, valid=None, page_size=4096, name="f.sma"):
    return SmaFile.build(
        str(tmp_path / name), np.asarray(values), pool,
        valid=valid, page_size=page_size,
    )


class TestGeometry:
    def test_page_count_from_value_width(self, tmp_path, pool):
        # 1024 four-byte entries fill exactly one 4 KB page.
        sma = build(tmp_path, pool, np.zeros(1024, dtype="<i4"))
        assert sma.num_pages == 1
        assert sma.entries_per_page == 1024
        sma2 = build(tmp_path, pool, np.zeros(1025, dtype="<i4"), name="g.sma")
        assert sma2.num_pages == 2

    def test_paper_thousandth_ratio(self, tmp_path, pool):
        # 4-byte entries, one per 4 KB bucket: the SMA-file is ~1/1000
        # of the data (Section 2.1).
        sma = build(tmp_path, pool, np.zeros(10_000, dtype="<i4"))
        data_bytes = 10_000 * 4096
        assert sma.size_bytes / data_bytes == pytest.approx(1 / 1024)

    def test_validity_adds_one_byte_per_entry(self, tmp_path, pool):
        bare = build(tmp_path, pool, np.zeros(100, dtype="<i4"))
        masked = build(
            tmp_path, pool, np.zeros(100, dtype="<i4"),
            valid=np.ones(100, dtype=bool), name="g.sma",
        )
        assert masked.size_bytes == bare.size_bytes + 100

    def test_empty_file(self, tmp_path, pool):
        sma = build(tmp_path, pool, np.zeros(0, dtype="<i4"))
        assert sma.num_pages == 0
        assert len(sma.values(charge=False)) == 0

    def test_build_refuses_overwrite(self, tmp_path, pool):
        build(tmp_path, pool, np.zeros(4, dtype="<i4"))
        with pytest.raises(StorageError):
            build(tmp_path, pool, np.zeros(4, dtype="<i4"))


class TestPersistence:
    def test_round_trip_values(self, tmp_path, pool):
        values = np.arange(100, dtype="<i8") * 3
        sma = build(tmp_path, pool, values)
        reopened = SmaFile.open(sma.path, pool)
        np.testing.assert_array_equal(reopened.values(charge=False), values)
        assert reopened.valid_mask() is None

    def test_round_trip_validity(self, tmp_path, pool):
        values = np.arange(10, dtype="<f8")
        valid = np.array([True] * 9 + [False])
        sma = build(tmp_path, pool, values, valid=valid)
        reopened = SmaFile.open(sma.path, pool)
        np.testing.assert_array_equal(reopened.valid_mask(), valid)

    def test_round_trip_bytes_dtype(self, tmp_path, pool):
        values = np.array([b"aa", b"zz"], dtype="S2")
        sma = build(tmp_path, pool, values)
        reopened = SmaFile.open(sma.path, pool)
        np.testing.assert_array_equal(reopened.values(charge=False), values)

    def test_delete_files(self, tmp_path, pool):
        import os

        sma = build(tmp_path, pool, np.zeros(4, dtype="<i4"))
        sma.delete_files()
        assert not os.path.exists(sma.path)


class TestCharging:
    def test_full_scan_charges_pages_and_entries(self, tmp_path, pool):
        sma = build(tmp_path, pool, np.zeros(2048, dtype="<i4"))  # 2 pages
        pool.clear()
        pool.stats.reset()
        sma.values()
        assert pool.stats.page_reads == 2
        assert pool.stats.sma_entries_read == 2048

    def test_warm_scan_hits_buffer(self, tmp_path, pool):
        sma = build(tmp_path, pool, np.zeros(2048, dtype="<i4"))
        pool.clear()
        sma.values()
        pool.stats.reset()
        sma.values()
        assert pool.stats.page_reads == 0
        assert pool.stats.buffer_hits == 2

    def test_uncharged_read(self, tmp_path, pool):
        sma = build(tmp_path, pool, np.zeros(2048, dtype="<i4"))
        pool.clear()
        pool.stats.reset()
        sma.values(charge=False)
        assert pool.stats.page_reads == 0
        assert pool.stats.sma_entries_read == 0

    def test_value_at_charges_single_page(self, tmp_path, pool):
        sma = build(tmp_path, pool, np.arange(2048, dtype="<i4"))
        pool.clear()
        pool.stats.reset()
        assert sma.value_at(1500) == 1500
        assert pool.stats.page_reads == 1
        assert pool.stats.sma_entries_read == 1

    def test_read_range_charges_spanned_pages(self, tmp_path, pool):
        sma = build(tmp_path, pool, np.arange(3072, dtype="<i4"))  # 3 pages
        pool.clear()
        pool.stats.reset()
        chunk = sma.read_range(1000, 1100)
        np.testing.assert_array_equal(chunk, np.arange(1000, 1101))
        assert pool.stats.page_reads == 2  # entries span pages 0 and 1

    def test_values_view_is_readonly(self, tmp_path, pool):
        sma = build(tmp_path, pool, np.zeros(8, dtype="<i4"))
        with pytest.raises(ValueError):
            sma.values(charge=False)[0] = 1


def write(sma, indices, values, valid=None):
    """``write_entries`` with list arguments cast to the file's dtype."""
    sma.write_entries(
        np.asarray(indices), np.asarray(values, dtype=sma.values(charge=False).dtype),
        None if valid is None else np.asarray(valid, dtype=bool),
    )


class TestMaintenanceWrites:
    def test_write_entries_updates_value_and_disk(self, tmp_path, pool):
        sma = build(tmp_path, pool, np.arange(10, dtype="<i4"))
        write(sma, [3], [99])
        sma.flush()
        assert sma.value_at(3, charge=False) == 99
        reopened = SmaFile.open(sma.path, pool)
        assert reopened.value_at(3, charge=False) == 99

    def test_write_entries_charges_one_page_write(self, tmp_path, pool):
        sma = build(tmp_path, pool, np.arange(10, dtype="<i4"))
        pool.stats.reset()
        write(sma, [3], [99])
        assert pool.stats.page_writes == 1

    def test_write_entries_charges_each_changed_page_once(self, tmp_path, pool):
        sma = build(tmp_path, pool, np.arange(3000, dtype="<i4"))  # 3 pages
        pool.stats.reset()
        write(sma, [0, 1, 2, 2500], [7, 7, 7, 7])
        assert pool.stats.page_writes == 2  # pages 0 and 2

    def test_write_entries_can_invalidate(self, tmp_path, pool):
        sma = build(tmp_path, pool, np.arange(10, dtype="<i4"))
        write(sma, [2], [0], valid=[False])
        valid = sma.valid_mask()
        assert valid is not None and not valid[2] and valid[3]

    def test_first_invalid_entry_reopens_clean(self, tmp_path, pool):
        sma = build(tmp_path, pool, np.arange(10, dtype="<i4"))
        write(sma, [2], [0], valid=[False])
        sma.flush()
        reopened = SmaFile.open(sma.path, pool)
        assert not reopened.is_corrupt
        np.testing.assert_array_equal(reopened.valid_mask(), sma.valid_mask())

    def test_write_entries_out_of_range(self, tmp_path, pool):
        sma = build(tmp_path, pool, np.arange(4, dtype="<i4"))
        # Negative, past the end with a gap, or not increasing.
        for indices in ([-1], [5], [3, 2], [4, 6]):
            with pytest.raises(SmaStateError):
                write(sma, indices, [0] * len(indices))
        assert sma.num_entries == 4

    def test_append(self, tmp_path, pool):
        sma = build(tmp_path, pool, np.arange(5, dtype="<i4"))
        write(sma, [5, 6], [10, 11])
        sma.flush()
        assert sma.num_entries == 7
        reopened = SmaFile.open(sma.path, pool)
        np.testing.assert_array_equal(
            reopened.values(charge=False), [0, 1, 2, 3, 4, 10, 11]
        )

    def test_append_creates_validity_when_needed(self, tmp_path, pool):
        sma = build(tmp_path, pool, np.arange(3, dtype="<i4"))
        write(sma, [3], [7], valid=[False])
        valid = sma.valid_mask()
        np.testing.assert_array_equal(valid, [True, True, True, False])

    def test_append_moves_validity(self, tmp_path, pool):
        valid = np.array([True, False, True])
        sma = build(tmp_path, pool, np.arange(3, dtype="<i4"), valid=valid)
        write(sma, [1, 3, 4], [5, 6, 7], valid=[True, False, True])
        sma.flush()
        reopened = SmaFile.open(sma.path, pool)
        assert not reopened.is_corrupt
        np.testing.assert_array_equal(reopened.values(charge=False)[[1, 3, 4]], [5, 6, 7])
        np.testing.assert_array_equal(
            reopened.valid_mask(), [True, True, True, False, True]
        )

    def test_append_dtype_mismatch(self, tmp_path, pool):
        sma = build(tmp_path, pool, np.arange(3, dtype="<i4"))
        with pytest.raises(SmaStateError):
            sma.write_entries(np.array([3]), np.array([1.5]))

    def test_meta_waits_for_flush(self, tmp_path, pool):
        # Body bytes land first; until the flush, the old meta's checksum
        # no longer matches them — what a crash in between leaves.
        sma = build(tmp_path, pool, np.arange(10, dtype="<i4"))
        write(sma, [3], [99])
        assert SmaFile.open(sma.path, pool).is_corrupt
        sma.flush()
        assert not SmaFile.open(sma.path, pool).is_corrupt
