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

Writes: :meth:`SmaFile.write_entries` is the one way entries change (the
bulkload writes them all, DML maintenance those whose bytes moved), and
:meth:`SmaFile.flush` then writes the meta sidecar — geometry and a
CRC-32 over the body — once per batch, after the body bytes.
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
        #: Entries changed since the meta sidecar was last written.
        self._dirty = False

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
        values = np.ascontiguousarray(values)
        sma = cls(path, values[:0], None if valid is None else np.zeros(0, bool), pool, page_size)
        open(path, "wb").close()
        sma._dirty = True  # no meta sidecar yet, even for zero entries
        sma.write_entries(np.arange(len(values)), values, valid)
        sma.flush()
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
        valid_at = count * dtype.itemsize
        values = np.frombuffer(raw[:valid_at], dtype=dtype).copy()
        valid = None
        if meta["has_validity"]:
            valid = np.frombuffer(raw[valid_at : valid_at + count], np.bool_).copy()
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

    def flush(self) -> None:
        """Write the meta sidecar if entries changed since the last one.

        Called after the body writes, once per file per DML batch: the
        sidecar's CRC-32 covers the whole body, so a crash between the
        two leaves a mismatch that reopening detects.
        """
        if not self._dirty:
            return
        valid = b"" if self._valid is None else self._valid.tobytes()
        meta = {
            "dtype": self._values.dtype.str,
            "num_entries": int(len(self._values)),
            "has_validity": self._valid is not None,
            "page_size": self.page_size,
            "format_version": FORMAT_VERSION,
            "checksum_algo": ALGORITHM,
            "checksum": compute_checksum(self._values.tobytes() + valid),
        }
        # Atomic: a crash mid-write must never leave a garbled sidecar —
        # ``open`` has no tolerant path for those.
        write_atomic(self.path + _META_SUFFIX, json.dumps(meta).encode())
        self._dirty = False

    def delete_files(self) -> None:
        self.pool.invalidate(self.file_id)
        for suffix in ("", _META_SUFFIX):
            target = self.path + suffix
            if os.path.exists(target):
                os.remove(target)

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

    def ensure_readable(self) -> None:
        """Raise :class:`~repro.errors.SmaIntegrityError` if corrupt.

        Every value access and write checks this; the planner probes
        required SMA-files with it before binding a plan to them, so a
        damaged file causes heap fallback at planning time instead of a
        failure mid-execution.
        """
        if self.corrupt_reason is not None:
            raise SmaIntegrityError(
                f"SMA-file {self.path} failed verification: "
                f"{self.corrupt_reason}",
                path=self.path,
            )

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
        self.ensure_readable()
        if charge and self.num_pages:
            self._charge_pages(0, self.num_pages - 1)
            self.pool.stats.sma_entries_read += self.num_entries
        view = self._values.view()
        view.flags.writeable = False
        return view

    def valid_mask(self, *, charge: bool = False) -> np.ndarray | None:
        """Validity vector, or None when every entry is defined."""
        self.ensure_readable()
        if self._valid is None:
            return None
        if charge:
            self.pool.stats.sma_entries_read += self.num_entries
        view = self._valid.view()
        view.flags.writeable = False
        return view

    def value_at(self, index: int, *, charge: bool = True) -> object:
        """Random access to one entry (charges a single-page access)."""
        self.ensure_readable()
        if not 0 <= index < self.num_entries:
            raise SmaStateError(f"entry {index} out of range [0, {self.num_entries})")
        if charge:
            page_no = index * self.value_width // self.page_size
            self._charge_pages(page_no, page_no)
            self.pool.stats.sma_entries_read += 1
        return self._values[index]

    def read_range(self, first: int, last: int, *, charge: bool = True) -> np.ndarray:
        """Entries [first, last] inclusive (hierarchical SMAs drill down)."""
        self.ensure_readable()
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
        self.ensure_readable()
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
    # writes (Section 2.1: "At most one additional page access is needed
    # for an updated tuple.")
    # ------------------------------------------------------------------

    def write_entries(
        self, indices: np.ndarray, values: np.ndarray, valid: np.ndarray | None = None
    ) -> None:
        """Set entries *indices* (increasing) to *values* and *valid*.

        Indices at or past the end extend the file contiguously;
        ``valid=None`` means all defined.  The first undefined entry
        adds the validity vector, and growth moves it (it follows the
        values).  Memory changes first, then each contiguous run of
        changed body bytes is written in place through the fault
        injector's torn-write hook, charging one page write per page it
        covers.  The meta sidecar waits for :meth:`flush`.
        """
        self.ensure_readable()
        indices = np.asarray(indices, dtype=np.int64)
        if not len(indices):
            return
        if values.dtype != self._values.dtype:
            raise SmaStateError(f"entry dtype {values.dtype} != file dtype {self._values.dtype}")
        old_count = self.num_entries
        count = max(old_count, int(indices[-1]) + 1)
        grown = count - old_count
        increasing = (indices[1:] > indices[:-1]).all()
        if indices[0] < 0 or not increasing or (indices >= old_count).sum() != grown:
            raise SmaStateError(
                f"entries {indices[0]}..{indices[-1]} do not increase within "
                f"[0, {old_count}) or extend it contiguously"
            )
        # New arrays, published whole: a reader sees old or new entries.
        valid = np.ones(len(indices), dtype=bool) if valid is None else valid
        new_values = np.concatenate([self._values, np.zeros(grown, self._values.dtype)])
        new_values[indices] = values
        new_valid, placed = self._valid, grown > 0 and self._valid is not None
        if new_valid is None and not valid.all():
            new_valid, placed = np.ones(old_count, dtype=bool), True
        if new_valid is not None:
            new_valid = np.concatenate([new_valid, np.ones(grown, dtype=bool)])
            new_valid[indices] = valid
        self._values, self._valid, self._dirty = new_values, new_valid, True

        # One byte run per run of consecutive indices, for the values and
        # for the validity vector (whole when it is placed or moved).
        width, valid_at, size = self.value_width, count * self.value_width, self.page_size
        cuts = np.flatnonzero(np.diff(indices) != 1) + 1
        ends = (indices[np.concatenate((cuts - 1, [-1]))] + 1).tolist()
        spans = list(zip(indices[np.concatenate(([0], cuts))].tolist(), ends))
        pieces = [(a * width, new_values[a:b].tobytes()) for a, b in spans]
        if placed:
            pieces.append((valid_at, new_valid.tobytes()))
        elif new_valid is not None:
            pieces += [(valid_at + a, new_valid[a:b].tobytes()) for a, b in spans]
        runs: list[tuple[int, bytes]] = []  # adjacent pieces are one write
        for offset, data in pieces:
            if runs and runs[-1][0] + len(runs[-1][1]) == offset:
                offset, data = runs[-1][0], runs.pop()[1] + data
            runs.append((offset, data))
        pages = {p for a, d in runs for p in range(a // size, (a + len(d) - 1) // size + 1)}
        for page_no in sorted(pages):
            self.pool.stats.page_writes += 1
            self.pool.invalidate(self.file_id, page_no)
        injector = self.pool.fault_injector
        with open(self.path, "r+b") as f:

            def write_at(offset: int, data: bytes) -> None:
                f.seek(offset)
                f.write(data)

            for offset, data in runs:
                if injector is None:
                    write_at(offset, data)
                else:
                    injector.tear(self.path, offset // size, offset, data, write_at)

    def __repr__(self) -> str:
        return (
            f"SmaFile({os.path.basename(self.path)!r}, "
            f"entries={self.num_entries}, dtype={self._values.dtype}, "
            f"pages={self.num_pages})"
        )
