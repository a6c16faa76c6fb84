"""Write-ahead intent records for heap ingest (crash-consistent DML).

Every DML batch follows the same four-step protocol:

1. **intent append** — a JSON sidecar (``<table>.heap.intent.json``)
   records the operation, the heap's pre-image geometry (bucket count +
   trailing-bucket record count) and, for inserts, the raw bytes of the
   trailing bucket it is about to top up in place;
2. **data pages** — the heap pages are written/appended;
3. **SMA entry advancement** — the incremental maintainer updates or
   appends SMA-file entries;
4. **intent retire** — the heap sidecars flush, the ingest epoch bumps
   (persisted in the catalog manifest), and the intent file is removed
   last: while the intent exists it covers every not-yet-durable effect
   of the batch, including the epoch bump itself.

A crash anywhere between 1 and 4 leaves the intent on disk.  On the
next ``repro verify`` the intent is reported; ``--repair`` *resolves*
it: when every data page of the intended post-image landed intact
(checksums verify, geometry matches) the intent **replays** — the data
is kept, the counts sidecar is re-synced from the page headers and the
regular SMA verification pass rebuilds any entry drift; otherwise the
intent **rolls back** — the file truncates to its pre-image geometry
and the saved trailing-bucket pre-image is rewritten, undoing a torn
in-place top-up.  Either way the catalog lands on a clean epoch
boundary: zero torn buckets, zero quarantined SMAs after the SMA pass.

DML batches are serialized per table (the catalog's ingest lock), so at
most one intent per heap ever exists.
"""

from __future__ import annotations

import json
import os
import struct
from dataclasses import dataclass

import numpy as np

from repro.errors import ChecksumError, StorageError
from repro.storage.heapfile import HeapFile
from repro.storage.sidecar import write_atomic

#: Sidecar suffix: ``LINEITEM.heap`` -> ``LINEITEM.heap.intent.json``.
INTENT_SUFFIX = ".intent.json"

_COUNT_STRUCT = struct.Struct("<I")


@dataclass(frozen=True)
class IngestIntent:
    """One in-flight DML batch's write-ahead record."""

    op: str  # "insert" | "update" | "delete"
    table: str
    epoch: int  # the epoch this batch is producing
    before_buckets: int
    before_trailing: int  # record count of the last pre-image bucket
    after_buckets: int
    after_trailing: int
    rows: int  # batch size (insert) / matched rows bound (update/delete)
    #: Hex-encoded raw records of the trailing bucket about to be topped
    #: up in place (insert only): the rollback pre-image.
    preimage_hex: str | None = None

    def to_json(self) -> dict:
        return {
            "op": self.op,
            "table": self.table,
            "epoch": self.epoch,
            "before_buckets": self.before_buckets,
            "before_trailing": self.before_trailing,
            "after_buckets": self.after_buckets,
            "after_trailing": self.after_trailing,
            "rows": self.rows,
            "preimage_hex": self.preimage_hex,
        }

    @classmethod
    def from_json(cls, payload: dict) -> "IngestIntent":
        return cls(
            op=payload["op"],
            table=payload["table"],
            epoch=int(payload["epoch"]),
            before_buckets=int(payload["before_buckets"]),
            before_trailing=int(payload["before_trailing"]),
            after_buckets=int(payload["after_buckets"]),
            after_trailing=int(payload["after_trailing"]),
            rows=int(payload["rows"]),
            preimage_hex=payload.get("preimage_hex"),
        )


def intent_path(heap_path: str) -> str:
    return heap_path + INTENT_SUFFIX


def write_intent(heap: HeapFile, intent: IngestIntent) -> str:
    """Persist *intent* atomically before any data write."""
    path = intent_path(heap.path)
    write_atomic(path, json.dumps(intent.to_json()).encode())
    return path


def load_intent(heap_path: str) -> IngestIntent | None:
    """The pending intent of the heap at *heap_path*, or None."""
    path = intent_path(heap_path)
    if not os.path.exists(path):
        return None
    with open(path, "r", encoding="utf-8") as handle:
        return IngestIntent.from_json(json.load(handle))


def retire_intent(heap_path: str) -> None:
    """Remove the intent sidecar: the batch is fully durable."""
    path = intent_path(heap_path)
    if os.path.exists(path):
        os.remove(path)


def insert_intent(heap: HeapFile, table: str, epoch: int, batch_len: int) -> IngestIntent:
    """Build the pre-image intent for appending *batch_len* records."""
    per_bucket = heap.layout.tuples_per_bucket
    before_buckets = heap.num_buckets
    before_trailing = heap.bucket_count(before_buckets - 1) if before_buckets else 0
    preimage_hex = None
    if before_buckets and before_trailing < per_bucket:
        # The trailing bucket will be rewritten in place: save its bytes.
        preimage_hex = heap.read_bucket(before_buckets - 1).tobytes().hex()
    total = (before_buckets - 1) * per_bucket + before_trailing if before_buckets else 0
    total += batch_len
    after_buckets = max(1, -(-total // per_bucket)) if total else before_buckets
    after_trailing = total - (after_buckets - 1) * per_bucket if total else before_trailing
    return IngestIntent(
        op="insert",
        table=table,
        epoch=epoch,
        before_buckets=before_buckets,
        before_trailing=before_trailing,
        after_buckets=after_buckets,
        after_trailing=after_trailing,
        rows=batch_len,
        preimage_hex=preimage_hex,
    )


def mutation_intent(heap: HeapFile, table: str, epoch: int, op: str) -> IngestIntent:
    """Intent for an in-place rewrite (update/delete): geometry is kept.

    Updates and deletes rewrite existing buckets page-atomically; their
    recovery action is a counts re-sync from page headers plus the SMA
    verification pass — no heap rollback is possible (or needed: each
    page holds either the old or the new version, never a mix).
    """
    before_buckets = heap.num_buckets
    before_trailing = heap.bucket_count(before_buckets - 1) if before_buckets else 0
    return IngestIntent(
        op=op,
        table=table,
        epoch=epoch,
        before_buckets=before_buckets,
        before_trailing=before_trailing,
        after_buckets=before_buckets,
        after_trailing=before_trailing,
        rows=0,
    )


# ----------------------------------------------------------------------
# recovery (repro verify --repair)
# ----------------------------------------------------------------------


def _header_count(heap: HeapFile, page_no: int) -> int:
    """CRC-verified record count from one page's header (raises on damage)."""
    payload = heap._load_page(page_no)
    (count,) = _COUNT_STRUCT.unpack_from(payload, 0)
    return count


def _probe_roll_forward(heap: HeapFile, intent: IngestIntent) -> np.ndarray | None:
    """Post-image bucket counts from page headers, or None if damaged.

    Roll-forward is legal only when every page of the intended
    post-image region is physically present and checksum-clean and the
    header-derived geometry matches the intent exactly.
    """
    layout = heap.layout
    bucket_bytes = layout.pages_per_bucket * layout.page_size
    if os.path.getsize(heap.path) < intent.after_buckets * bucket_bytes:
        return None
    first_touched = max(0, intent.before_buckets - 1)
    counts = heap.bucket_counts()[:intent.after_buckets].copy() if (
        heap.num_buckets >= intent.after_buckets
    ) else np.concatenate([
        np.asarray(heap.bucket_counts(), dtype=np.int64),
        np.zeros(intent.after_buckets - heap.num_buckets, dtype=np.int64),
    ])
    try:
        for bucket_no in range(first_touched, intent.after_buckets):
            total = 0
            first_page = bucket_no * layout.pages_per_bucket
            for j in range(layout.pages_per_bucket):
                total += _header_count(heap, first_page + j)
            counts[bucket_no] = total
    except (ChecksumError, StorageError):
        return None
    if intent.after_buckets and counts[intent.after_buckets - 1] != intent.after_trailing:
        return None
    per_bucket = layout.tuples_per_bucket
    if any(
        counts[b] != per_bucket
        for b in range(first_touched, intent.after_buckets - 1)
    ):
        return None
    return counts


def resolve_intent(heap: HeapFile, intent: IngestIntent) -> str:
    """Replay or roll back one incomplete intent; returns the action.

    ``"replayed"`` — the post-image data pages all landed: the counts
    sidecar re-syncs from the page headers and the data is kept (the SMA
    verification pass then repairs any entry drift).

    ``"rolled_back"`` — the append did not complete (missing or torn
    pages): the heap truncates to the pre-image geometry and the saved
    trailing-bucket pre-image is rewritten.

    The intent sidecar is retired in both cases.
    """
    if intent.op in ("update", "delete"):
        # Geometry unchanged; re-sync counts from the (page-atomic)
        # headers so a crash between page write and sidecar flush cannot
        # leave stale per-bucket counts.
        for bucket_no in range(heap.num_buckets):
            first_page = bucket_no * heap.layout.pages_per_bucket
            total = 0
            for j in range(heap.layout.pages_per_bucket):
                total += _header_count(heap, first_page + j)
            heap._bucket_counts[bucket_no] = total
            heap.invalidate_decoded(bucket_no)
        heap.flush()
        retire_intent(heap.path)
        return "replayed"

    counts = _probe_roll_forward(heap, intent)
    if counts is not None:
        heap._bucket_counts = counts.astype(np.int64, copy=True)
        heap.drop_decode_cache()
        heap.pool.invalidate(heap.file_id)
        heap.flush()
        retire_intent(heap.path)
        return "replayed"

    preimage = None
    if intent.preimage_hex is not None:
        preimage = np.frombuffer(
            bytes.fromhex(intent.preimage_hex), dtype=heap.schema.record_dtype
        ).copy()
    # The counts sidecar was last flushed at the pre-image state, but be
    # defensive: clamp to the pre-image bucket count before truncating.
    if heap.num_buckets > intent.before_buckets:
        heap._bucket_counts = heap._bucket_counts[:intent.before_buckets].copy()
    elif heap.num_buckets < intent.before_buckets:
        raise StorageError(
            f"intent on {heap.path} predates a shorter heap "
            f"({heap.num_buckets} < {intent.before_buckets} buckets); "
            "refusing to roll back"
        )
    heap.truncate_to(intent.before_buckets, trailing=preimage)
    if intent.before_buckets:
        heap._bucket_counts[intent.before_buckets - 1] = intent.before_trailing
        heap.flush()
    retire_intent(heap.path)
    return "rolled_back"


__all__ = [
    "INTENT_SUFFIX",
    "IngestIntent",
    "insert_intent",
    "intent_path",
    "load_intent",
    "mutation_intent",
    "resolve_intent",
    "retire_intent",
    "write_intent",
]
