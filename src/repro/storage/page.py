"""Page and bucket geometry.

The paper assumes relations are "physically organized into a sequence of
buckets", where a bucket is a single page or a consecutive sequence of
pages (Section 2.1).  The default configuration matches the paper's
experiments: 4 KB pages, bucket = one page.

:class:`BucketLayout` is pure arithmetic — it owns no data.  Everything
downstream (heap files, SMA-file sizes, the disk cost model, the data
cube comparison) derives page counts from it.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import StorageError

#: Default page size used throughout the paper's experiments (4 KB).
DEFAULT_PAGE_SIZE = 4096

#: Bytes reserved per page for header bookkeeping (record count, LSN, ...).
#: The paper does not specify a header; we model a small conventional one
#: so tuples-per-page is realistic rather than an exact divisor.
DEFAULT_PAGE_HEADER = 32


@dataclass(frozen=True)
class BucketLayout:
    """Fixed geometry of a bucketed heap file.

    Parameters
    ----------
    record_width:
        Byte width of one fixed-width record.
    page_size:
        Page size in bytes (default 4096).
    pages_per_bucket:
        Number of consecutive pages forming one bucket (default 1).
        Section 4 of the paper discusses tuning this: larger buckets mean
        smaller SMA-files but more ambivalent data to re-scan.
    page_header:
        Bytes of per-page header overhead.
    """

    record_width: int
    page_size: int = DEFAULT_PAGE_SIZE
    pages_per_bucket: int = 1
    page_header: int = DEFAULT_PAGE_HEADER

    def __post_init__(self) -> None:
        if self.record_width <= 0:
            raise StorageError(f"record_width must be positive, got {self.record_width}")
        if self.page_size <= self.page_header:
            raise StorageError(
                f"page_size {self.page_size} must exceed header {self.page_header}"
            )
        if self.pages_per_bucket <= 0:
            raise StorageError(
                f"pages_per_bucket must be positive, got {self.pages_per_bucket}"
            )
        if self.record_width > self.page_payload:
            raise StorageError(
                f"record of {self.record_width} B does not fit in a page "
                f"payload of {self.page_payload} B"
            )

    @property
    def page_payload(self) -> int:
        """Usable bytes per page after the header."""
        return self.page_size - self.page_header

    @property
    def tuples_per_page(self) -> int:
        """Records that fit on one page."""
        return self.page_payload // self.record_width

    @property
    def tuples_per_bucket(self) -> int:
        """Records that fit in one bucket.

        Records never span pages (slotted-page discipline), so this is
        tuples-per-page times pages-per-bucket, not one big division.
        """
        return self.tuples_per_page * self.pages_per_bucket

    @property
    def bucket_bytes(self) -> int:
        """On-disk bytes occupied by one bucket."""
        return self.page_size * self.pages_per_bucket

    def buckets_for(self, num_records: int) -> int:
        """Number of buckets needed to hold *num_records* records."""
        if num_records < 0:
            raise StorageError(f"negative record count {num_records}")
        if num_records == 0:
            return 0
        per = self.tuples_per_bucket
        return (num_records + per - 1) // per

    def pages_for(self, num_records: int) -> int:
        """Number of pages needed to hold *num_records* records."""
        return self.buckets_for(num_records) * self.pages_per_bucket

    def bytes_for(self, num_records: int) -> int:
        """On-disk bytes needed to hold *num_records* records."""
        return self.pages_for(num_records) * self.page_size

