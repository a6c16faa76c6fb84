"""SMA-files: flat sequential files of per-bucket aggregate values.

"For all buckets, the resulting values are materialized in a separate
SMA-file.  The SMA-file is sequentially organized: the value for the
first bucket is the first value in the SMA-file, the second value is the
second value in the SMA-file and so on.  Contrary to traditional index
structures, a SMA-file does not contain any other additional
information."  (Section 2.1)

The on-disk layout honours that: the data file is the packed value
array, optionally followed by a one-byte-per-entry validity vector (only
grouped min/max SMAs need it — a bucket may simply contain no tuple of
some group, leaving that entry undefined; the paper's grading rules have
an explicit "the max/min aggregates are not defined" case for this).

I/O accounting: SMA entries are value-cached in memory for speed, but
every scan *charges* the buffer pool page-by-page, so cold/warm behaviour
and sequential-read counts are exactly what a paged implementation would
show.  One page holds ``page_size // value_width`` entries — e.g. 1024
4-byte dates per 4 KB page, giving the paper's 1/1000 size ratio.
"""

from __future__ import annotations

import json
import os
import time

import numpy as np

from repro.errors import (
    SmaIntegrityError,
    SmaStateError,
    StorageError,
    TornWriteError,
    TransientIOError,
)
from repro.storage.buffer import BufferPool
from repro.storage.checksum import ALGORITHM
from repro.storage.checksum import checksum as compute_checksum
from repro.storage.page import DEFAULT_PAGE_SIZE
from repro.storage.sidecar import write_atomic

_META_SUFFIX = ".meta.json"
#: The SMA-file meta format: a CRC-32 over the whole body.
FORMAT_VERSION = 2


class SmaFile:
    """One sequential file of per-bucket aggregate values."""

    def __init__(
        self,
        path: str,
        values: np.ndarray,
        valid: np.ndarray | None,
        pool: BufferPool,
        page_size: int,
    ):
        if values.ndim != 1:
            raise StorageError("SMA values must be a 1-D array")
        if valid is not None and len(valid) != len(values):
            raise StorageError("validity vector length mismatch")
        self.path = path
        self.pool = pool
        self.page_size = page_size
        #: Why the file failed verification at :meth:`open`, or None when
        #: healthy.  A corrupt file keeps its declared geometry (entry
        #: count, page count) so planning can cost it, but every value
        #: access raises :class:`~repro.errors.SmaIntegrityError` — the
        #: planner then quarantines the definition and falls back to the
        #: heap scan.  SMA-files are derived data; a wrong answer is the
        #: only unacceptable outcome.
        self.corrupt_reason: str | None = None
        self.file_id = os.path.abspath(path)
        self._values = values
        self._valid = valid
        self._closed = False

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    @classmethod
    def build(
        cls,
        path: str,
        values: np.ndarray,
        pool: BufferPool,
        *,
        valid: np.ndarray | None = None,
        page_size: int = DEFAULT_PAGE_SIZE,
    ) -> "SmaFile":
        """Materialize *values* (and optional validity) to a new SMA-file.

        Charges one page write per page of the file — this is the cheap
        bulkload the paper advertises ("only one page access is needed
        for 1000 pages of tuples").
        """
        if os.path.exists(path):
            raise StorageError(f"{path} already exists")
        sma = cls(
            path,
            np.ascontiguousarray(values),
            None if valid is None else np.ascontiguousarray(valid, dtype=bool),
            pool,
            page_size,
        )
        sma._write_all()
        sma._save_meta()
        return sma

    @classmethod
    def open(cls, path: str, pool: BufferPool) -> "SmaFile":
        """Open an SMA-file previously created by :meth:`build`.

        Integrity-tolerant: a body that fails its checksum, a meta that
        records no CRC-32 checksum, or a body shorter than the declared
        entry count still opens — with placeholder values,
        ``corrupt_reason`` set, and every value access raising
        :class:`~repro.errors.SmaIntegrityError` — so the catalog stays
        usable and the planner can quarantine + fall back.  A garbled
        meta sidecar still fails loudly (there is no declared geometry
        to preserve).
        """
        with open(path + _META_SUFFIX, "r", encoding="utf-8") as f:
            meta = json.load(f)
        dtype = np.dtype(meta["dtype"])
        count = meta["num_entries"]
        page_size = meta["page_size"]
        algo = meta.get("checksum_algo")
        stored = meta.get("checksum")
        raw = cls._read_body(path, pool, page_size)
        corrupt: str | None = None
        if algo != ALGORITHM or not isinstance(stored, int):
            corrupt = (
                f"meta carries no {ALGORITHM} body checksum "
                f"(checksum_algo {algo!r}, checksum {stored!r})"
            )
        else:
            actual = compute_checksum(raw)
            if actual != stored:
                corrupt = (
                    f"body checksum mismatch: stored {stored:#010x}, "
                    f"computed {actual:#010x} ({algo})"
                )
        expected_len = count * dtype.itemsize + (count if meta["has_validity"] else 0)
        if len(raw) < expected_len:
            corrupt = corrupt or (
                f"truncated body: {len(raw)}/{expected_len} bytes "
                f"for {count} declared entries"
            )
            # Pad so the declared geometry survives; the garbage values
            # are unreachable behind the corrupt gate.
            raw = raw.ljust(expected_len, b"\x00")
        values = np.frombuffer(raw[: count * dtype.itemsize], dtype=dtype).copy()
        valid = None
        if meta["has_validity"]:
            valid_offset = count * dtype.itemsize
            valid = np.frombuffer(
                raw[valid_offset : valid_offset + count], dtype=np.bool_
            ).copy()
        sma = cls(path, values, valid, pool, page_size)
        sma.corrupt_reason = corrupt
        return sma

    @staticmethod
    def _read_body(path: str, pool: BufferPool, page_size: int) -> bytes:
        """Physically read the body, page-wise under the fault injector.

        Transient faults are retried with the pool's retry policy,
        charging ``read_retries`` exactly like the buffer pool's
        single-flight leader does for heap pages.
        """
        injector = pool.fault_injector
        with open(path, "rb") as f:
            raw = f.read()
        if injector is None:
            return raw
        num_pages = max(1, (len(raw) + page_size - 1) // page_size)
        policy = pool.retry_policy
        pages: list[bytes] = []
        for page_no in range(num_pages):
            attempt = 1
            while True:
                try:
                    injector.before_read(path, page_no, "sma")
                    break
                except TransientIOError:
                    if attempt >= policy.max_attempts:
                        raise
                    pool.note_retry()
                    time.sleep(policy.backoff_s(attempt))
                    attempt += 1
            chunk = raw[page_no * page_size : (page_no + 1) * page_size]
            pages.append(injector.filter_read(path, page_no, chunk))
        return b"".join(pages)

    def _serialize(self) -> bytes:
        body = self._values.tobytes()
        if self._valid is not None:
            body += self._valid.tobytes()
        return body

    def _write_body(self, body: bytes) -> None:
        """Persist the full body, honouring injected torn writes."""
        injector = self.pool.fault_injector
        if injector is not None:
            cut = injector.torn_write_length(self.path, 0, len(body))
            if cut is not None:
                with open(self.path, "wb") as f:
                    f.write(body[:cut])
                self.pool.invalidate(self.file_id)
                raise TornWriteError(
                    f"injected torn write: {cut}/{len(body)} bytes of "
                    f"SMA body reached {self.path}",
                    path=self.path, page_no=0,
                )
        with open(self.path, "wb") as f:
            f.write(body)

    def _write_all(self) -> None:
        body = self._serialize()
        self._write_body(body)
        for page_no in range(self.num_pages):
            self.pool.stats.page_writes += 1
            self.pool.invalidate(self.file_id, page_no)

    def _save_meta(self) -> None:
        meta = {
            "dtype": self._values.dtype.str,
            "num_entries": int(len(self._values)),
            "has_validity": self._valid is not None,
            "page_size": self.page_size,
            "format_version": FORMAT_VERSION,
            "checksum_algo": ALGORITHM,
            "checksum": compute_checksum(self._serialize()),
        }
        # Atomic: the DML maintainer rewrites metas on every batch, and a
        # crash mid-write must never leave a garbled sidecar — ``open``
        # has no tolerant path for those.
        write_atomic(self.path + _META_SUFFIX, json.dumps(meta).encode())

    def close(self) -> None:
        self._closed = True

    def delete_files(self) -> None:
        self.pool.invalidate(self.file_id)
        for suffix in ("", _META_SUFFIX):
            target = self.path + suffix
            if os.path.exists(target):
                os.remove(target)
        self._closed = True

    # ------------------------------------------------------------------
    # geometry
    # ------------------------------------------------------------------

    @property
    def num_entries(self) -> int:
        return len(self._values)

    @property
    def value_width(self) -> int:
        return self._values.dtype.itemsize

    @property
    def size_bytes(self) -> int:
        """Payload bytes: packed values plus validity vector if present."""
        size = self.num_entries * self.value_width
        if self._valid is not None:
            size += self.num_entries
        return size

    @property
    def num_pages(self) -> int:
        """Pages the file occupies (what the paper's size table reports)."""
        if self.size_bytes == 0:
            return 0
        return (self.size_bytes + self.page_size - 1) // self.page_size

    @property
    def entries_per_page(self) -> int:
        return self.page_size // self.value_width

    # ------------------------------------------------------------------
    # integrity gate
    # ------------------------------------------------------------------

    @property
    def is_corrupt(self) -> bool:
        return self.corrupt_reason is not None

    def _check_integrity(self) -> None:
        if self.corrupt_reason is not None:
            raise SmaIntegrityError(
                f"SMA-file {self.path} failed verification: "
                f"{self.corrupt_reason}",
                path=self.path,
            )

    def ensure_readable(self) -> None:
        """Raise :class:`~repro.errors.SmaIntegrityError` if corrupt.

        The planner probes required SMA-files with this before binding a
        plan to them, so a damaged file causes heap fallback at planning
        time instead of a failure mid-execution.
        """
        self._check_integrity()

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------

    def _charge_pages(self, first_page: int, last_page: int) -> None:
        """Account buffer traffic for pages [first_page, last_page]."""
        for page_no in range(first_page, last_page + 1):
            self.pool.read_page(self.file_id, page_no, lambda: b"", kind="sma")

    def values(self, *, charge: bool = True) -> np.ndarray:
        """The full per-bucket value vector (a sequential SMA-file scan).

        Charges a sequential read of every page plus one SMA-entry CPU
        unit per entry unless ``charge=False`` (used by the planner for
        free re-reads it has already accounted, and by tests).
        """
        self._check_integrity()
        if charge and self.num_pages:
            self._charge_pages(0, self.num_pages - 1)
            self.pool.stats.sma_entries_read += self.num_entries
        view = self._values.view()
        view.flags.writeable = False
        return view

    def valid_mask(self, *, charge: bool = False) -> np.ndarray | None:
        """Validity vector, or None when every entry is defined."""
        self._check_integrity()
        if self._valid is None:
            return None
        if charge:
            self.pool.stats.sma_entries_read += self.num_entries
        view = self._valid.view()
        view.flags.writeable = False
        return view

    def value_at(self, index: int, *, charge: bool = True) -> object:
        """Random access to one entry (charges a single-page access)."""
        self._check_integrity()
        if not 0 <= index < self.num_entries:
            raise SmaStateError(f"entry {index} out of range [0, {self.num_entries})")
        if charge:
            page_no = index * self.value_width // self.page_size
            self._charge_pages(page_no, page_no)
            self.pool.stats.sma_entries_read += 1
        return self._values[index]

    def read_range(self, first: int, last: int, *, charge: bool = True) -> np.ndarray:
        """Entries [first, last] inclusive (hierarchical SMAs drill down)."""
        self._check_integrity()
        if not 0 <= first <= last < self.num_entries:
            raise SmaStateError(
                f"range [{first}, {last}] out of [0, {self.num_entries})"
            )
        if charge:
            first_page = first * self.value_width // self.page_size
            last_page = last * self.value_width // self.page_size
            self._charge_pages(first_page, last_page)
            self.pool.stats.sma_entries_read += last - first + 1
        view = self._values[first : last + 1].view()
        view.flags.writeable = False
        return view

    def valid_range(self, first: int, last: int) -> np.ndarray | None:
        """Validity of entries [first, last], or None if all defined."""
        self._check_integrity()
        if self._valid is None:
            return None
        if not 0 <= first <= last < self.num_entries:
            raise SmaStateError(
                f"range [{first}, {last}] out of [0, {self.num_entries})"
            )
        view = self._valid[first : last + 1].view()
        view.flags.writeable = False
        return view

    # ------------------------------------------------------------------
    # maintenance writes (Section 2.1: "At most one additional page
    # access is needed for an updated tuple.")
    # ------------------------------------------------------------------

    def _rewrite_entry_on_disk(self, index: int) -> None:
        with open(self.path, "r+b") as f:
            f.seek(index * self.value_width)
            f.write(self._values[index : index + 1].tobytes())
            if self._valid is not None:
                f.seek(self.num_entries * self.value_width + index)
                f.write(self._valid[index : index + 1].tobytes())
        page_no = index * self.value_width // self.page_size
        self.pool.stats.page_writes += 1
        self.pool.invalidate(self.file_id, page_no)

    def set_entry(self, index: int, value: object, valid: bool = True) -> None:
        """Overwrite one entry in place — the one-page update of §2.1."""
        self._check_integrity()
        if not 0 <= index < self.num_entries:
            raise SmaStateError(f"entry {index} out of range [0, {self.num_entries})")
        self._values[index] = value
        if self._valid is not None:
            self._valid[index] = valid
            self._rewrite_entry_on_disk(index)
        elif valid:
            self._rewrite_entry_on_disk(index)
        else:
            # The first undefined entry adds a validity vector after the
            # values: the whole vector must reach the disk, not one byte.
            self._valid = np.ones(self.num_entries, dtype=bool)
            self._valid[index] = False
            self._write_all()
        self._save_meta()

    def append_entries(
        self, values: np.ndarray, valid: np.ndarray | None = None
    ) -> None:
        """Extend the file when new buckets are appended to the relation.

        The body rewrite happens *before* the meta sidecar update, so a
        crash (or injected torn write) in between leaves the old
        checksum against the new partial body — detectable on reopen and
        repairable by rebuilding from the heap.
        """
        self._check_integrity()
        if values.dtype != self._values.dtype:
            raise SmaStateError(
                f"appended dtype {values.dtype} != file dtype {self._values.dtype}"
            )
        had_valid = self._valid is not None
        if had_valid and valid is None:
            valid = np.ones(len(values), dtype=bool)
        if not had_valid and valid is not None and not valid.all():
            self._valid = np.ones(self.num_entries, dtype=bool)
            had_valid = True
        self._values = np.concatenate([self._values, values])
        if self._valid is not None:
            appended = (
                np.ones(len(values), dtype=bool) if valid is None else valid.astype(bool)
            )
            self._valid = np.concatenate([self._valid, appended])
        # Rewrite the whole file: validity sits after the values, so an
        # append moves it.  Charge only the genuinely touched tail pages
        # for the values (the paper's cheap-append), plus the tiny
        # validity region when present.
        old_pages = self.num_pages
        body = self._serialize()
        self._write_body(body)
        first_touched = max(0, old_pages - 1)
        for page_no in range(first_touched, self.num_pages):
            self.pool.stats.page_writes += 1
            self.pool.invalidate(self.file_id, page_no)
        self._save_meta()

    def __repr__(self) -> str:
        return (
            f"SmaFile({os.path.basename(self.path)!r}, "
            f"entries={self.num_entries}, dtype={self._values.dtype}, "
            f"pages={self.num_pages})"
        )
