"""Incremental SMA maintenance (Section 2.1).

"Due to the direct correspondance between SMA-file entries and buckets
(via the order), SMA-files are easy to update.  The algorithms behind
are simple and very efficient.  At most one additional page access is
needed for an updated tuple."

:class:`SmaMaintainer` keeps one or more SMA sets in sync with their
table across inserts, updates and deletes, by one rule: after the heap
write, the touched buckets' entries are recomputed by the builder's own
kernel (:func:`~repro.core.builder.accumulate`), and each file gets one
:meth:`~repro.core.sma_file.SmaFile.write_entries` call with the
entries whose bytes or validity differ from the stored ones, plus any
past its end.  A maintained SMA-file therefore equals a fresh build of
the same heap because it is the same code, and each changed entry costs
one page write — the paper's "at most one additional page access".

* **insert** — new tuples top up the trailing bucket (time-of-creation
  clustering falls out of this) and then fill fresh buckets; the
  topped-up bucket and every new one are refreshed.  The append has just
  written them through the buffer pool, so re-reading them is a hit.
* **update / delete** — min/max are not subtractable, so each bucket
  the operation rewrites is refreshed right after it is written.

A group seen for the first time gets a new SMA-file, built once with
its final entries (absent outside the refreshed buckets), and its set's
manifest is saved at once.  Each batch ends by flushing — also when it
is cut short by an error — so every changed file writes its meta
sidecar once.
"""

from __future__ import annotations

import numpy as np

from repro.core.builder import (
    absent_entries,
    accumulate,
    build_group_file,
    changed_entries,
)
from repro.core.sma_set import SmaSet
from repro.errors import SmaStateError
from repro.lang.predicate import Predicate
from repro.storage.table import Table


class SmaMaintainer:
    """Keeps SMA sets consistent with their base table under DML."""

    def __init__(self, table: Table, sma_sets: list[SmaSet]):
        for sma_set in sma_sets:
            if sma_set.table is not table:
                raise SmaStateError(
                    f"SMA set {sma_set.name!r} does not index table {table.name!r}"
                )
        self.table = table
        self.sma_sets = list(sma_sets)

    def _before_mutation(self) -> None:
        """Hierarchies are derived from the first-level files; drop them
        before any DML so stale second levels can never mis-grade."""
        for sma_set in self.sma_sets:
            sma_set.invalidate_hierarchies()

    def _refresh(self, buckets: range) -> None:
        """Bring every SMA entry of *buckets* to what a fresh build holds:
        one :meth:`~repro.core.sma_file.SmaFile.write_entries` per file."""
        first = buckets.start
        for sma_set in self.sma_sets:
            fresh = accumulate(self.table, list(sma_set.definitions.values()), buckets)
            for name, accumulator in fresh.items():
                files = sma_set.files_of(name)
                for key in sorted(files.keys() | accumulator.groups.keys(), key=repr):
                    values, valid = accumulator.arrays_for(key)
                    sma = files.get(key)
                    if sma is None:  # a new group: absent outside *buckets*
                        definition = accumulator.definition
                        full_values, full_valid = absent_entries(
                            definition.aggregate.kind,
                            accumulator.value_dtype,
                            self.table.num_buckets,
                        )
                        full_values[first : first + len(values)] = values
                        full_valid[first : first + len(values)] = valid
                        files[key] = build_group_file(
                            sma_set, definition, key, full_values, full_valid,
                            self.table.layout.page_size,
                        )
                        sma_set.save()  # list it before anything else can fail
                        continue
                    offsets = changed_entries(sma, first, values, valid)
                    sma.write_entries(first + offsets, values[offsets], valid[offsets])

    def _flush(self) -> None:
        """End a batch, also one cut short by an error: each changed
        SMA-file writes its meta sidecar once (over the bytes it meant
        to write, so a torn file still fails its checksum on reopen)."""
        for sma_set in self.sma_sets:
            for sma in sma_set.all_files():
                sma.flush()

    def insert(self, records: np.ndarray) -> None:
        """Append *records* and refresh every bucket they landed in."""
        if len(records) == 0:
            return
        self._before_mutation()
        first = self.table.num_buckets
        if first and (
            self.table.heap.bucket_count(first - 1)
            < self.table.layout.tuples_per_bucket
        ):
            first -= 1  # the trailing bucket has room: it is topped up
        try:
            self.table.append_batch(records)
            self._refresh(range(first, self.table.num_buckets))
        finally:
            self._flush()

    def update_where(
        self, predicate: Predicate, assignments: dict[str, object]
    ) -> int:
        """SET col = value on every tuple matching *predicate*.

        Returns the number of updated tuples.  Buckets whose tuples
        change are rewritten and their SMA entries refreshed.
        """
        from repro.storage.types import coerce_value

        stored = {
            name: coerce_value(self.table.schema.dtype_of(name), value)
            for name, value in assignments.items()
        }

        def assign(records: np.ndarray, mask: np.ndarray) -> np.ndarray:
            updated = records.copy()
            for name, value in stored.items():
                updated[name][mask] = value
            return updated

        return self._rewrite_where(predicate, assign)

    def delete_where(self, predicate: Predicate) -> int:
        """Delete every tuple matching *predicate*; returns the count.

        Tuples are removed within their bucket (buckets never merge —
        the SMA entry order must keep mirroring the physical order).
        """
        return self._rewrite_where(
            predicate, lambda records, mask: records[~mask].copy()
        )

    def _rewrite_where(self, predicate: Predicate, rewrite) -> int:
        """Rewrite each bucket holding a tuple that matches *predicate*
        with ``rewrite(records, mask)``; returns the matching count."""
        self._before_mutation()
        bound = predicate.bind(self.table.schema)
        matched = 0
        try:
            for bucket_no in range(self.table.num_buckets):
                records = self.table.read_bucket(bucket_no)
                mask = bound.evaluate(records)
                hits = int(mask.sum())
                if not hits:
                    continue
                self.table.heap.write_bucket(bucket_no, rewrite(records, mask))
                self._refresh(range(bucket_no, bucket_no + 1))
                matched += hits
        finally:
            self._flush()
        return matched
