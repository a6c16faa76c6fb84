"""Incremental SMA maintenance (Section 2.1).

"Due to the direct correspondance between SMA-file entries and buckets
(via the order), SMA-files are easy to update.  The algorithms behind
are simple and very efficient.  At most one additional page access is
needed for an updated tuple."

:class:`SmaMaintainer` keeps one or more SMA sets in sync with their
table across inserts, updates and deletes:

* **insert** — new tuples append to the trailing bucket (time-of-creation
  clustering falls out of this) and then into fresh buckets.  Fresh
  buckets' entries come from the new tuples alone; the topped-up
  trailing bucket's entries are recomputed from the whole bucket, which
  the append has just written (a buffer-pool hit), so a float SUM entry
  is bit-identical to the heap fold of that bucket.  Each touched SMA
  entry costs one page write — the paper's "at most one additional
  page access".
* **update / delete** — min/max are not subtractable, so the affected
  bucket's aggregates are recomputed from the bucket the operation has
  already read and rewritten anyway; again one SMA page access per
  touched entry.
"""

from __future__ import annotations

import numpy as np

from repro.core.aggregates import AggregateKind
from repro.core.definition import SmaDefinition
from repro.core.grouping import GroupKey, bucket_groups
from repro.core.sma_file import SmaFile
from repro.core.sma_set import SmaSet
from repro.errors import SmaStateError
from repro.lang.predicate import Predicate
from repro.storage.table import Table


def compute_bucket_entry(
    definition: SmaDefinition,
    records: np.ndarray,
    schema,
) -> dict[GroupKey, tuple[object, bool]]:
    """Per-group ``(value, valid)`` of one definition over one bucket."""
    spec = definition.aggregate
    keys, inverse = bucket_groups(records, definition.group_by, schema)
    argument_values = (
        None if spec.argument is None else spec.argument.evaluate(records)
    )
    result: dict[GroupKey, tuple[object, bool]] = {}
    for j, key in enumerate(keys):
        if definition.group_by:
            mask = inverse == j
            values = None if argument_values is None else argument_values[mask]
            size = int(mask.sum())
        else:
            values = argument_values
            size = len(records)
        if spec.kind is AggregateKind.COUNT:
            result[key] = (size, True)
        elif size:
            assert values is not None
            result[key] = (spec.compute(values), True)
    return result


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

    # ------------------------------------------------------------------
    # inserts
    # ------------------------------------------------------------------

    def _before_mutation(self) -> None:
        """Hierarchies are derived from the first-level files; drop them
        before any DML so stale second levels can never mis-grade."""
        for sma_set in self.sma_sets:
            sma_set.invalidate_hierarchies()

    def insert(self, records: np.ndarray) -> None:
        """Append *records* and advance every SMA file incrementally."""
        if len(records) == 0:
            return
        self._before_mutation()
        schema = self.table.schema
        per_bucket = self.table.layout.tuples_per_bucket
        old_buckets = self.table.num_buckets
        trailing_room = 0
        if old_buckets:
            trailing_room = per_bucket - self.table.heap.bucket_count(
                old_buckets - 1
            )

        self.table.append_batch(records)

        # Split the inserted records by destination bucket.
        cursor = 0
        if trailing_room and old_buckets:
            self._refresh_trailing_bucket(
                old_buckets - 1, schema, file_length=old_buckets
            )
            cursor = min(trailing_room, len(records))
        new_entries_start = old_buckets
        bucket_no = new_entries_start
        per_definition_new: dict[tuple[str, str], list[dict]] = {}
        while cursor < len(records):
            chunk = records[cursor : cursor + per_bucket]
            for sma_set in self.sma_sets:
                for definition in sma_set.definitions.values():
                    entries = compute_bucket_entry(definition, chunk, schema)
                    key = (sma_set.name, definition.name)
                    per_definition_new.setdefault(key, []).append(entries)
            bucket_no += 1
            cursor += len(chunk)

        num_new = bucket_no - new_entries_start
        if num_new:
            self._append_new_entries(per_definition_new, num_new, old_buckets)

    def _refresh_trailing_bucket(
        self, bucket_no: int, schema, file_length: int
    ) -> None:
        """Recompute the topped-up trailing bucket's entries from all of it.

        Advancing a float SUM by the new tuples' partial sum rounds
        differently from the one-pass sum a heap fold of the bucket
        takes, so a later qualifying SMA answer would drift from the
        heap answer in the last bits.  The bucket was just written, so
        re-reading it hits the buffer pool.
        """
        records = self.table.read_bucket(bucket_no)
        for sma_set in self.sma_sets:
            for definition in sma_set.definitions.values():
                fresh = compute_bucket_entry(definition, records, schema)
                for key, (value, _) in fresh.items():
                    sma = self._ensure_group_file(
                        sma_set, definition, key, length=file_length
                    )
                    sma.set_entry(bucket_no, value, valid=True)

    def _append_new_entries(
        self,
        per_definition_new: dict[tuple[str, str], list[dict]],
        num_new: int,
        old_buckets: int,
    ) -> None:
        for sma_set in self.sma_sets:
            for definition in sma_set.definitions.values():
                key = (sma_set.name, definition.name)
                bucket_entries = per_definition_new.get(key, [])
                files = sma_set.files_of(definition.name)
                # Every known group (old or new) must get `num_new` entries.
                group_keys = set(files)
                for entries in bucket_entries:
                    group_keys.update(entries)
                for group_key in group_keys:
                    sma = self._ensure_group_file(
                        sma_set, definition, group_key, length=old_buckets
                    )
                    values = np.zeros(num_new, dtype=sma.values(charge=False).dtype)
                    valid = np.zeros(num_new, dtype=bool)
                    for offset, entries in enumerate(bucket_entries):
                        if group_key in entries:
                            values[offset], valid[offset] = entries[group_key]
                    if definition.aggregate.kind in (
                        AggregateKind.COUNT,
                        AggregateKind.SUM,
                    ):
                        valid = np.ones(num_new, dtype=bool)
                    sma.append_entries(values, valid)

    def _ensure_group_file(
        self,
        sma_set: SmaSet,
        definition: SmaDefinition,
        group_key: GroupKey,
        *,
        length: int | None = None,
    ) -> SmaFile:
        """Fetch (or create, for a never-seen group) the group's SMA-file.

        A fresh file gets *length* all-zero/invalid entries (default: the
        table's current bucket count; inserts pass the pre-append count
        because the new buckets' entries are appended separately).
        """
        files = sma_set.files_of(definition.name)
        sma = files.get(group_key)
        if sma is not None:
            return sma
        dtype = definition.aggregate.value_dtype(self.table.schema)
        existing = length if length is not None else self.table.num_buckets
        values = np.zeros(existing, dtype=dtype)
        if definition.aggregate.kind in (AggregateKind.COUNT, AggregateKind.SUM):
            valid = None
        else:
            valid = np.zeros(existing, dtype=bool)
        sma = SmaFile.build(
            sma_set.file_path(definition.name, group_key),
            values,
            self.table.heap.pool,
            valid=valid,
        )
        files[group_key] = sma
        sma_set.save()
        return sma

    # ------------------------------------------------------------------
    # updates and deletes
    # ------------------------------------------------------------------

    def _recompute_bucket(self, bucket_no: int, records: np.ndarray) -> None:
        """Recompute every SMA entry of one bucket from its new contents."""
        schema = self.table.schema
        for sma_set in self.sma_sets:
            for definition in sma_set.definitions.values():
                fresh = compute_bucket_entry(definition, records, schema)
                files = sma_set.files_of(definition.name)
                seen = set(fresh)
                for group_key, (value, _) in fresh.items():
                    sma = self._ensure_group_file(sma_set, definition, group_key)
                    sma.set_entry(bucket_no, value, valid=True)
                kind = definition.aggregate.kind
                for group_key, sma in files.items():
                    if group_key in seen:
                        continue
                    if kind in (AggregateKind.COUNT, AggregateKind.SUM):
                        zero = 0 if kind is AggregateKind.COUNT else sma.values(
                            charge=False
                        ).dtype.type(0)
                        sma.set_entry(bucket_no, zero, valid=True)
                    else:
                        sma.set_entry(
                            bucket_no,
                            sma.value_at(bucket_no, charge=False),
                            valid=False,
                        )

    def update_where(
        self, predicate: Predicate, assignments: dict[str, object]
    ) -> int:
        """SET col = value on every tuple matching *predicate*.

        Returns the number of updated tuples.  Buckets whose tuples
        change are rewritten and their SMA entries recomputed.
        """
        from repro.storage.types import coerce_value

        self._before_mutation()
        bound = predicate.bind(self.table.schema)
        stored = {
            name: coerce_value(self.table.schema.dtype_of(name), value)
            for name, value in assignments.items()
        }
        touched = 0
        for bucket_no in range(self.table.num_buckets):
            records = self.table.read_bucket(bucket_no)
            mask = bound.evaluate(records)
            hits = int(mask.sum())
            if not hits:
                continue
            updated = records.copy()
            for name, value in stored.items():
                updated[name][mask] = value
            self.table.heap.write_bucket(bucket_no, updated)
            self._recompute_bucket(bucket_no, updated)
            touched += hits
        return touched

    def delete_where(self, predicate: Predicate) -> int:
        """Delete every tuple matching *predicate*; returns the count.

        Tuples are removed within their bucket (buckets never merge —
        the SMA entry order must keep mirroring the physical order).
        """
        self._before_mutation()
        bound = predicate.bind(self.table.schema)
        removed = 0
        for bucket_no in range(self.table.num_buckets):
            records = self.table.read_bucket(bucket_no)
            mask = bound.evaluate(records)
            hits = int(mask.sum())
            if not hits:
                continue
            survivors = records[~mask].copy()
            self.table.heap.write_bucket(bucket_no, survivors)
            self._recompute_bucket(bucket_no, survivors)
            removed += hits
        return removed
