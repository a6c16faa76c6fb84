"""File-backed heap files: sequences of buckets of fixed-width records.

The on-disk format is deliberately simple and matches the paper's model:

* the data file is a sequence of fixed-size pages;
* each page starts with a 32-byte header whose first 4 bytes hold the
  page's record count (little-endian uint32) and whose bytes [4:8] hold
  the page's CRC-32 (computed with that field zeroed), followed by
  packed fixed-width records — records never span pages;
* a *bucket* is ``pages_per_bucket`` consecutive pages; the order of
  buckets in the file is the physical order SMA-file entries mirror.

A JSON sidecar (``<path>.meta.json``) persists the schema, layout,
record count, format version (2) and checksum algorithm (``crc32``); a
numpy sidecar (``<path>.counts.npy``) persists per-bucket record counts
so they are known without touching data pages.  :meth:`HeapFile.open`
refuses any other format.

Checksums are verified on every *physical* load (the buffer pool's
single-flight loader); cache hits serve already-verified bytes.

All reads go through a :class:`~repro.storage.buffer.BufferPool`, which
does the warm/cold caching and the sequential/random accounting.
"""

from __future__ import annotations

import io
import json
import os
import struct
import threading
from typing import Iterator

import numpy as np

from repro.errors import ChecksumError, StorageError, TornWriteError
from repro.storage.buffer import BufferPool
from repro.storage.checksum import ALGORITHM
from repro.storage.checksum import checksum as compute_checksum
from repro.storage.page import BucketLayout, DEFAULT_PAGE_SIZE
from repro.storage.schema import Schema
from repro.storage.sidecar import write_atomic

_COUNT_STRUCT = struct.Struct("<I")
_CRC_STRUCT = struct.Struct("<I")
#: Byte range of the page checksum inside the page header.
_CRC_OFFSET = 4
_META_SUFFIX = ".meta.json"
_COUNTS_SUFFIX = ".counts.npy"
#: The on-disk format: checksummed pages.
FORMAT_VERSION = 2


class HeapFile:
    """A bucketed, file-backed relation store.

    Use :meth:`create` for a new file or :meth:`open` for an existing
    one; the constructor is internal.  Instances are context managers.
    """

    def __init__(
        self,
        path: str,
        schema: Schema,
        layout: BucketLayout,
        pool: BufferPool,
        bucket_counts: np.ndarray,
    ):
        self.path = path
        self.schema = schema
        self.layout = layout
        self.pool = pool
        self.file_id = os.path.abspath(path)
        self._bucket_counts = bucket_counts.astype(np.int64, copy=True)
        # Unbuffered: writes reach the OS immediately and positional
        # reads (os.pread) see them — required because the buffer pool
        # runs loaders *outside* its lock, so page loads of one file may
        # execute concurrently on this shared handle.
        self._handle = open(path, "r+b", buffering=0)
        self._closed = False
        # Serializes sidecar flushes: the process-scan dispatcher
        # flushes before every dispatch, so concurrent readers (and a
        # writer) would otherwise collide on the atomic-replace tmps.
        self._flush_lock = threading.Lock()
        # Decoded-bucket cache: bucket_no -> (page payloads, record batch).
        # Keyed on the *identity* of the pooled payload bytes — strictly
        # stronger than a (page, generation) pair, because any reload,
        # eviction or write produces a new bytes object.  The pool is
        # still consulted on every read, so hit/miss accounting is
        # unchanged; a cache hit merely skips header unpack + frombuffer
        # (+ concatenate for multi-page buckets) on warm scans.
        self._decode_cache: dict[int, tuple[tuple[bytes, ...], np.ndarray]] = {}
        self._decode_cache_cap = max(1024, pool.capacity_pages)
        #: decoded-bucket cache counters (local to this handle; not part
        #: of IoStats — the wire format derives from its fields).
        self.decode_hits = 0
        self.decode_misses = 0

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    @classmethod
    def create(
        cls,
        path: str,
        schema: Schema,
        pool: BufferPool,
        *,
        page_size: int = DEFAULT_PAGE_SIZE,
        pages_per_bucket: int = 1,
    ) -> "HeapFile":
        """Create a new, empty heap file at *path*."""
        if os.path.exists(path):
            raise StorageError(f"{path} already exists")
        layout = BucketLayout(
            record_width=schema.record_width,
            page_size=page_size,
            pages_per_bucket=pages_per_bucket,
        )
        with open(path, "wb"):
            pass
        heap = cls(path, schema, layout, pool, np.zeros(0, dtype=np.int64))
        heap.flush()
        return heap

    @classmethod
    def open(cls, path: str, pool: BufferPool) -> "HeapFile":
        """Open an existing heap file created by :meth:`create`."""
        meta_path = path + _META_SUFFIX
        if not os.path.exists(meta_path):
            raise StorageError(f"no heap-file metadata at {meta_path}")
        with open(meta_path, "r", encoding="utf-8") as f:
            meta = json.load(f)
        found = (meta.get("format_version"), meta.get("checksum_algo"))
        if found != (FORMAT_VERSION, ALGORITHM):
            raise StorageError(
                f"{path} is heap format {found[0]!r} with checksum "
                f"{found[1]!r}; only format {FORMAT_VERSION} with "
                f"{ALGORITHM!r} is readable"
            )
        schema = Schema.from_dict(meta["schema"])
        layout = BucketLayout(
            record_width=schema.record_width,
            page_size=meta["page_size"],
            pages_per_bucket=meta["pages_per_bucket"],
            page_header=meta["page_header"],
        )
        counts = np.load(path + _COUNTS_SUFFIX)
        return cls(path, schema, layout, pool, counts)

    def flush(self) -> None:
        """Persist metadata sidecars and flush the data file.

        Both sidecars go down through :func:`write_atomic`: the ingest
        path flushes after every DML batch, and a crash mid-write must
        never leave a half-written meta or counts file — there is no
        tolerant open path for those.
        """
        with self._flush_lock:
            self._handle.flush()
            meta = {
                "schema": self.schema.to_dict(),
                "page_size": self.layout.page_size,
                "pages_per_bucket": self.layout.pages_per_bucket,
                "page_header": self.layout.page_header,
                "num_records": int(self._bucket_counts.sum()),
                "format_version": FORMAT_VERSION,
                "checksum_algo": ALGORITHM,
            }
            write_atomic(self.path + _META_SUFFIX, json.dumps(meta).encode())
            counts = io.BytesIO()
            np.save(counts, self._bucket_counts)
            write_atomic(self.path + _COUNTS_SUFFIX, counts.getvalue())

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has completed (or begun)."""
        return self._closed

    def close(self) -> None:
        """Flush sidecars and release the OS handle.  Idempotent.

        This is the *public* lifecycle contract: callers (including
        tests) never touch the underlying handle.  Any number of calls
        after the first are no-ops, and later page reads raise a plain
        ``ValueError``/``OSError`` from the closed descriptor.
        """
        if self._closed:
            return
        self._closed = True
        try:
            self.flush()
        finally:
            self._handle.close()

    def __enter__(self) -> "HeapFile":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------
    # geometry
    # ------------------------------------------------------------------

    @property
    def num_buckets(self) -> int:
        return len(self._bucket_counts)

    @property
    def num_records(self) -> int:
        return int(self._bucket_counts.sum())

    @property
    def num_pages(self) -> int:
        return self.num_buckets * self.layout.pages_per_bucket

    @property
    def size_bytes(self) -> int:
        """On-disk size of the data file."""
        return self.num_pages * self.layout.page_size

    def bucket_count(self, bucket_no: int) -> int:
        """Record count of bucket *bucket_no* (no page access needed)."""
        self._check_bucket(bucket_no)
        return int(self._bucket_counts[bucket_no])

    def bucket_counts(self) -> np.ndarray:
        """Read-only view of all per-bucket record counts."""
        view = self._bucket_counts.view()
        view.flags.writeable = False
        return view

    def _check_bucket(self, bucket_no: int) -> None:
        if not 0 <= bucket_no < self.num_buckets:
            raise StorageError(
                f"bucket {bucket_no} out of range [0, {self.num_buckets})"
            )

    def _check_records(self, records: np.ndarray) -> None:
        """Refuse records of another schema, or more than one bucket holds."""
        if records.dtype != self.schema.record_dtype:
            raise StorageError("record dtype does not match schema")
        if len(records) > self.layout.tuples_per_bucket:
            raise StorageError(
                f"{len(records)} records exceed bucket capacity "
                f"{self.layout.tuples_per_bucket}"
            )

    # ------------------------------------------------------------------
    # page primitives
    # ------------------------------------------------------------------

    def _page_checksum(self, payload: bytes) -> int:
        """Checksum of a full page with the CRC field itself zeroed."""
        blank = bytearray(payload)
        blank[_CRC_OFFSET:_CRC_OFFSET + 4] = b"\x00\x00\x00\x00"
        return compute_checksum(bytes(blank))

    def _page_bytes(self, records: np.ndarray) -> bytes:
        header = _COUNT_STRUCT.pack(len(records)).ljust(self.layout.page_header, b"\x00")
        body = records.tobytes()
        page = (header + body).ljust(self.layout.page_size, b"\x00")
        crc = self._page_checksum(page)
        return (
            page[:_CRC_OFFSET]
            + _CRC_STRUCT.pack(crc)
            + page[_CRC_OFFSET + 4:]
        )

    def _write_page(self, page_no: int, records: np.ndarray) -> None:
        if len(records) > self.layout.tuples_per_page:
            raise StorageError(
                f"{len(records)} records exceed page capacity "
                f"{self.layout.tuples_per_page}"
            )
        payload = self._page_bytes(records)
        self._persist_page(page_no, payload)
        self.pool.note_write(self.file_id, page_no, payload)

    def _persist_page(self, page_no: int, payload: bytes) -> None:
        injector = self.pool.fault_injector
        if injector is not None:
            cut = injector.torn_write_length(self.path, page_no, len(payload))
            if cut is not None:
                # Genuinely tear the write: persist only a prefix, drop
                # any cached copy (it would mask the on-disk damage),
                # then surface the simulated crash.
                self._handle.seek(page_no * self.layout.page_size)
                self._handle.write(payload[:cut])
                self.pool.invalidate(self.file_id, page_no)
                raise TornWriteError(
                    f"injected torn write: {cut}/{len(payload)} bytes of "
                    f"page {page_no} reached {self.path}",
                    path=self.path, page_no=page_no,
                )
        self._handle.seek(page_no * self.layout.page_size)
        self._handle.write(payload)

    def _load_page(self, page_no: int) -> bytes:
        # Positional read: no shared file-position state, so concurrent
        # single-flight loads of different pages never interfere.
        injector = self.pool.fault_injector
        if injector is not None:
            injector.before_read(self.path, page_no, "heap")
        fd = self._handle.fileno()
        offset = page_no * self.layout.page_size
        want = self.layout.page_size
        chunks: list[bytes] = []
        while want > 0:
            chunk = os.pread(fd, want, offset)
            if not chunk:
                break
            chunks.append(chunk)
            offset += len(chunk)
            want -= len(chunk)
        payload = b"".join(chunks)
        if injector is not None:
            payload = injector.filter_read(self.path, page_no, payload)
        if len(payload) != self.layout.page_size:
            raise StorageError(
                f"short read of page {page_no} in {self.path}: "
                f"{len(payload)}/{self.layout.page_size} bytes"
            )
        (stored,) = _CRC_STRUCT.unpack_from(payload, _CRC_OFFSET)
        actual = self._page_checksum(payload)
        if stored != actual:
            raise ChecksumError(
                f"checksum mismatch on page {page_no} of {self.path}: "
                f"stored {stored:#010x}, computed {actual:#010x} "
                f"({ALGORITHM})",
                path=self.path, page_no=page_no,
            )
        return payload

    def read_page_raw(self, page_no: int) -> bytes:
        """Read one page's raw bytes directly from disk (verification API).

        Bypasses the buffer pool and charges nothing — ``repro verify``
        uses this to sweep every on-disk page regardless of cache state.
        """
        if not 0 <= page_no < self.num_pages:
            raise StorageError(
                f"page {page_no} out of range [0, {self.num_pages})"
            )
        return self._load_page(page_no)

    def _decode_page(self, payload: bytes) -> np.ndarray:
        (count,) = _COUNT_STRUCT.unpack_from(payload, 0)
        start = self.layout.page_header
        end = start + count * self.layout.record_width
        return np.frombuffer(payload[start:end], dtype=self.schema.record_dtype)

    def drop_decode_cache(self) -> None:
        """Forget decoded buckets (go-cold / after bulk rewrites)."""
        self._decode_cache.clear()

    def invalidate_decoded(self, bucket_no: int) -> None:
        """Drop bucket *bucket_no* from the decode cache **and** the pool.

        Every mutation path calls this before rewriting the bucket's
        pages: the decoded batch and any pooled payloads of the old
        version disappear, so the single-flight leader reloads fresh
        bytes and no reader can ever be served a stale decode.  (The
        identity-keyed decode cache would miss anyway once ``note_write``
        installs new payload objects — this makes the invalidation
        explicit and covers pages evicted between write and re-read.)
        """
        self._decode_cache.pop(bucket_no, None)
        first = bucket_no * self.layout.pages_per_bucket
        for j in range(self.layout.pages_per_bucket):
            self.pool.invalidate(self.file_id, first + j)

    def refresh_from_disk(self) -> None:
        """Re-read sidecar geometry after another process grew the file.

        Read-only attaches (scan worker processes) call this when a
        shipped ingest pin announces a newer epoch than the bucket
        geometry they hold: per-bucket counts reload from the counts
        sidecar and every cached page/decode of this file is dropped, so
        subsequent ``read_bucket`` calls observe the writer's bytes.
        """
        counts_path = self.path + _COUNTS_SUFFIX
        if os.path.exists(counts_path):
            self._bucket_counts = np.load(counts_path).astype(np.int64, copy=True)
        self.drop_decode_cache()
        self.pool.invalidate(self.file_id)

    # ------------------------------------------------------------------
    # bucket operations
    # ------------------------------------------------------------------

    def read_bucket(self, bucket_no: int) -> np.ndarray:
        """All records of bucket *bucket_no* as a read-only record batch."""
        self._check_bucket(bucket_no)
        first = bucket_no * self.layout.pages_per_bucket
        payloads = tuple(
            self.pool.read_page(
                self.file_id, first + j,
                lambda j=j: self._load_page(first + j),
            )
            for j in range(self.layout.pages_per_bucket)
        )
        cached = self._decode_cache.get(bucket_no)
        if cached is not None and all(
            a is b for a, b in zip(cached[0], payloads)
        ):
            self.decode_hits += 1
            return cached[1]
        parts = [self._decode_page(payload) for payload in payloads]
        records = parts[0] if len(parts) == 1 else np.concatenate(parts)
        if len(self._decode_cache) >= self._decode_cache_cap:
            self._decode_cache.clear()
        self._decode_cache[bucket_no] = (payloads, records)
        self.decode_misses += 1
        return records

    def write_bucket(self, bucket_no: int, records: np.ndarray) -> None:
        """Replace the contents of bucket *bucket_no* with *records*.

        Used by SMA maintenance tests and by the loader's final partial
        bucket.  The bucket must already exist (use :meth:`append_batch`
        to grow the file).
        """
        self._check_bucket(bucket_no)
        self._check_records(records)
        self.invalidate_decoded(bucket_no)
        tpp = self.layout.tuples_per_page
        first = bucket_no * self.layout.pages_per_bucket
        for j in range(self.layout.pages_per_bucket):
            chunk = records[j * tpp : (j + 1) * tpp]
            self._write_page(first + j, chunk)
        self._bucket_counts[bucket_no] = len(records)

    def truncate_to(self, num_buckets: int, trailing: np.ndarray | None = None) -> None:
        """Roll the file back to its first *num_buckets* buckets.

        The write-ahead intent machinery uses this to undo an incomplete
        append: buckets past *num_buckets* are cut off the data file (and
        invalidated from pool + decode caches), and — when *trailing* is
        given — the new last bucket is rewritten to exactly that
        pre-image batch, repairing a possibly-torn in-place top-up.
        """
        if not 0 <= num_buckets <= self.num_buckets:
            raise StorageError(
                f"cannot truncate to {num_buckets} buckets "
                f"(have {self.num_buckets})"
            )
        for bucket_no in range(num_buckets, self.num_buckets):
            self.invalidate_decoded(bucket_no)
        self._bucket_counts = self._bucket_counts[:num_buckets].copy()
        self._handle.truncate(
            num_buckets * self.layout.pages_per_bucket * self.layout.page_size
        )
        if trailing is not None:
            if num_buckets == 0:
                raise StorageError("no trailing bucket to rewrite in an empty file")
            self.write_bucket(num_buckets - 1, trailing)
        self.flush()

    def append_batch(self, records: np.ndarray) -> None:
        """Append a record batch, packing buckets densely in order.

        This is the bulkload path: the physical order of appends is the
        physical order of buckets, which is exactly the order SMA-file
        entries will mirror (time-of-creation clustering falls out of
        appending new data at the end).
        """
        if records.dtype != self.schema.record_dtype:
            raise StorageError("record dtype does not match schema")
        if len(records) == 0:
            return
        per_bucket = self.layout.tuples_per_bucket
        offset = 0

        # Top up a partially filled trailing bucket first.
        if self.num_buckets and self._bucket_counts[-1] < per_bucket:
            last = self.num_buckets - 1
            existing = self.read_bucket(last).copy()
            room = per_bucket - len(existing)
            take = min(room, len(records))
            merged = np.concatenate([existing, records[:take]])
            self.write_bucket(last, merged)
            offset = take

        # Then write whole new buckets.
        for start in range(offset, len(records), per_bucket):
            self.append_bucket(records[start : start + per_bucket])

    def append_bucket(self, records: np.ndarray) -> None:
        """Append *records* as one new bucket, never topping up the last.

        :meth:`append_batch` merges into a partially filled trailing
        bucket, which is right for bulkloads but wrong when bucket
        boundaries must be preserved exactly — the shard partitioner
        copies buckets between catalogs with this method so every SMA
        entry keeps describing the same tuples on both sides.
        """
        self._check_records(records)
        self._bucket_counts = np.append(self._bucket_counts, 0)
        self.write_bucket(self.num_buckets - 1, records)

    def append_rows(self, rows: list) -> None:
        """Convenience: append Python row tuples (slow path for tests)."""
        self.append_batch(self.schema.batch_from_rows(rows))

    def iter_buckets(self) -> Iterator[tuple[int, np.ndarray]]:
        """Yield ``(bucket_no, records)`` in physical order."""
        for bucket_no in range(self.num_buckets):
            yield bucket_no, self.read_bucket(bucket_no)

    def read_all(self) -> np.ndarray:
        """Every record in physical order (testing/verification helper)."""
        if self.num_buckets == 0:
            return self.schema.empty_batch()
        return np.concatenate([records for _, records in self.iter_buckets()])
