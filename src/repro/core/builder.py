"""Bulkloading SMA-files from a relation.

"For every bucket the aggregate can easily be computed and storing this
aggregate is cheap: only one page access is needed for 1000 pages of
tuples."  (Section 2.1)

The builder makes one sequential pass over the heap file, computes every
definition's per-bucket (per-group) aggregate, and materializes one
:class:`~repro.core.sma_file.SmaFile` per (definition, group).  Its
per-bucket kernel, :func:`accumulate`, is the only code that computes an
SMA entry: ``repro verify`` and DML maintenance call it too.  Two modes
exist:

* ``separate_scans=False`` (default): one shared pass builds all
  definitions — what a production system would do;
* ``separate_scans=True``: one pass *per definition*, mirroring how the
  paper reports per-SMA creation times in Section 2.4 (their eight SMAs
  each took ~100 s ≈ one scan of LINEITEM each).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.core.aggregates import AggregateKind
from repro.core.definition import SmaDefinition
from repro.core.grouping import GroupKey, bucket_groups
from repro.core.sma_file import SmaFile
from repro.core.sma_set import SmaSet
from repro.errors import SmaDefinitionError
from repro.storage.stats import IoStats
from repro.storage.table import Table


@dataclass
class SmaBuildReport:
    """Cost accounting for building one SMA definition."""

    definition_name: str
    wall_seconds: float
    stats: IoStats
    num_files: int
    pages: int
    size_bytes: int
    shared_scan: bool = False


def absent_entries(
    kind: AggregateKind, dtype: np.dtype, count: int
) -> tuple[np.ndarray, np.ndarray]:
    """*count* ``(values, valid)`` entries of a group with no tuple there.

    COUNT and SUM files carry no validity vector and read 0 for an
    absent group: 0 *is* the count of nothing, and the additive identity
    the aggregation phases rely on.  A MIN/MAX entry is undefined.
    """
    valid = np.full(count, kind in (AggregateKind.COUNT, AggregateKind.SUM))
    return np.zeros(count, dtype=dtype), valid


@dataclass
class Accumulator:
    """One definition's entries for a run of *count* buckets: a
    value/valid array pair per group."""

    definition: SmaDefinition
    value_dtype: np.dtype
    count: int
    groups: dict[GroupKey, tuple[np.ndarray, np.ndarray]] = field(default_factory=dict)

    def arrays_for(self, key: GroupKey) -> tuple[np.ndarray, np.ndarray]:
        arrays = self.groups.get(key)
        if arrays is None:
            arrays = absent_entries(
                self.definition.aggregate.kind, self.value_dtype, self.count
            )
            self.groups[key] = arrays
        return arrays

    def file_groups(self) -> dict[GroupKey, tuple[np.ndarray, np.ndarray]]:
        """The groups a build writes a file for: an empty table still
        gets the ``()`` group."""
        return self.groups or {(): self.arrays_for(())}


def accumulate(
    table: Table,
    definitions: list[SmaDefinition],
    buckets: range | None = None,
) -> dict[str, Accumulator]:
    """Every definition's entries for *buckets* (default: all of them).

    The one place an SMA entry is computed: the bulkload and ``repro
    verify`` pass the whole table, DML maintenance the buckets it
    touched, so a maintained entry is a fresh build's entry by
    construction.
    """
    schema = table.schema
    span = range(table.num_buckets) if buckets is None else buckets
    accumulators = {
        d.name: Accumulator(d, d.aggregate.value_dtype(schema), len(span))
        for d in definitions
    }
    by_grouping: dict[tuple[str, ...], list[SmaDefinition]] = {}
    for definition in definitions:
        by_grouping.setdefault(definition.group_by, []).append(definition)

    stats = table.heap.pool.stats
    for position, bucket_no in enumerate(span):
        records = table.read_bucket(bucket_no)
        stats.tuples_built += len(records)
        for group_by, group_defs in by_grouping.items():
            keys, inverse = bucket_groups(records, group_by, schema)
            masks = None
            if group_by and len(keys) > 1:
                masks = [inverse == j for j in range(len(keys))]
            for definition in group_defs:
                acc = accumulators[definition.name]
                spec = definition.aggregate
                arg_values = (
                    None
                    if spec.argument is None
                    else spec.argument.evaluate(records)
                )
                for j, key in enumerate(keys):
                    if masks is None:
                        group_values = arg_values
                        group_size = len(records)
                    else:
                        mask = masks[j]
                        group_values = None if arg_values is None else arg_values[mask]
                        group_size = int(mask.sum())
                    values, valid = acc.arrays_for(key)
                    if spec.kind is AggregateKind.COUNT:
                        values[position] = group_size
                        valid[position] = True
                    elif group_size:
                        assert group_values is not None
                        values[position] = spec.compute(group_values)
                        valid[position] = True
    return accumulators


def changed_entries(
    sma: SmaFile, first: int, values: np.ndarray, valid: np.ndarray
) -> np.ndarray:
    """Offsets into *values* whose entry *sma* stores differently.

    Compares the entries *sma* holds from index *first* on: validity
    everywhere, value bytes where valid.  A stale value behind an
    invalid flag counts as equal; an entry past the file's end differs.
    """
    stored = sma.values(charge=False)[first : first + len(values)]
    held = len(stored)
    mask = sma.valid_mask()
    if mask is None:
        stored_valid = np.ones(held, dtype=bool)
    else:
        stored_valid = mask[first : first + held]
    fresh, fresh_valid = values[:held], valid[:held]
    if stored.dtype != fresh.dtype:
        return np.arange(len(values))
    width = fresh.dtype.itemsize
    same = (
        stored.view(np.uint8).reshape(held, width)
        == fresh.view(np.uint8).reshape(held, width)
    ).all(axis=1)
    differs = (stored_valid != fresh_valid) | (fresh_valid & ~same)
    return np.concatenate([np.flatnonzero(differs), np.arange(held, len(values))])


def build_group_file(
    sma_set: SmaSet,
    definition: SmaDefinition,
    key: GroupKey,
    values: np.ndarray,
    valid: np.ndarray,
    page_size: int,
) -> SmaFile:
    """Write one group's entries to a new SMA-file.

    The validity vector is kept only when some entry is undefined, so
    COUNT/SUM files never carry one and file sizes match the paper's
    accounting.
    """
    return SmaFile.build(
        sma_set.file_path(definition.name, key),
        values,
        sma_set.table.heap.pool,
        valid=None if valid.all() else valid,
        page_size=page_size,
    )


def materialize(
    sma_set: SmaSet, accumulator: Accumulator, page_size: int
) -> dict[GroupKey, SmaFile]:
    """Write one definition's accumulated arrays to SMA-files."""
    groups = accumulator.file_groups()
    return {
        key: build_group_file(
            sma_set, accumulator.definition, key, *groups[key], page_size
        )
        for key in sorted(groups, key=repr)
    }


def build_sma_set(
    table: Table,
    definitions: list[SmaDefinition],
    *,
    directory: str,
    name: str = "default",
    separate_scans: bool = False,
    page_size: int | None = None,
) -> tuple[SmaSet, list[SmaBuildReport]]:
    """Build all *definitions* on *table* into a new :class:`SmaSet`.

    Returns the set plus one :class:`SmaBuildReport` per definition with
    wall-clock time and the I/O-counter delta attributable to it.
    """
    if not definitions:
        raise SmaDefinitionError("no SMA definitions given")
    names = [d.name for d in definitions]
    if len(set(names)) != len(names):
        raise SmaDefinitionError(f"duplicate SMA names in {names}")
    for definition in definitions:
        if definition.table_name != table.name:
            raise SmaDefinitionError(
                f"SMA {definition.name!r} is defined on "
                f"{definition.table_name!r}, not {table.name!r}"
            )
        if "__" in definition.name:  # file names put "__" before a group key
            raise SmaDefinitionError(f"SMA name {definition.name!r} contains '__'")
        definition.validate(table.schema)

    page_size = page_size if page_size is not None else table.layout.page_size
    sma_set = SmaSet(name, table, directory)
    reports: list[SmaBuildReport] = []
    stats = table.heap.pool.stats

    if separate_scans:
        for definition in definitions:
            before = stats.snapshot()
            started = time.perf_counter()
            accumulators = accumulate(table, [definition])
            files = materialize(sma_set, accumulators[definition.name], page_size)
            elapsed = time.perf_counter() - started
            sma_set.add_materialized(definition, files)
            reports.append(
                SmaBuildReport(
                    definition_name=definition.name,
                    wall_seconds=elapsed,
                    stats=stats.snapshot() - before,
                    num_files=len(files),
                    pages=sum(f.num_pages for f in files.values()),
                    size_bytes=sum(f.size_bytes for f in files.values()),
                )
            )
    else:
        before = stats.snapshot()
        started = time.perf_counter()
        accumulators = accumulate(table, definitions)
        scan_elapsed = time.perf_counter() - started
        scan_stats = stats.snapshot() - before
        for definition in definitions:
            before = stats.snapshot()
            started = time.perf_counter()
            files = materialize(sma_set, accumulators[definition.name], page_size)
            elapsed = time.perf_counter() - started
            sma_set.add_materialized(definition, files)
            # Attribute a proportional share of the shared scan to each
            # definition so report totals remain meaningful.
            share = 1.0 / len(definitions)
            scan_share = IoStats(
                **{
                    f: int(getattr(scan_stats, f) * share)
                    for f in (
                        "sequential_page_reads",
                        "skip_page_reads",
                        "random_page_reads",
                        "page_writes",
                        "buffer_hits",
                        "tuples_built",
                    )
                }
            )
            reports.append(
                SmaBuildReport(
                    definition_name=definition.name,
                    wall_seconds=elapsed + scan_elapsed * share,
                    stats=(stats.snapshot() - before) + scan_share,
                    num_files=len(files),
                    pages=sum(f.num_pages for f in files.values()),
                    size_bytes=sum(f.size_bytes for f in files.values()),
                    shared_scan=True,
                )
            )

    sma_set.save()
    return sma_set, reports
