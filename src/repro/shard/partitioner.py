"""Split a single-node catalog into N shard catalogs.

The partitioner assigns each table's buckets to shards in contiguous
ranges — shard *k* owns buckets ``[k*B//N, (k+1)*B//N)`` — and copies
them bucket-for-bucket: every source bucket becomes exactly one shard
bucket (via :meth:`~repro.storage.heapfile.HeapFile.append_bucket`,
which never merges a partial bucket into its neighbour).  SMA-files are
not rebuilt but *sliced*: entry ``b`` of a source SMA is entry ``b-lo``
of shard ``k``'s SMA, so per-shard grading and SMA_GAggr advancement
read exactly the values the single-node plan would have read for those
buckets.

Contiguity is what buys byte-identical scatter-gather: each shard's
result partial covers one range of the source contribution order, and
merging partials in shard order reconstructs the single-node order.
"""

from __future__ import annotations

import os

from repro.core.sma_file import SmaFile
from repro.core.sma_set import SmaSet
from repro.errors import ShardError
from repro.shard.manifest import ShardManifest
from repro.storage.catalog import Catalog


def shard_ranges(num_buckets: int, num_shards: int) -> list[tuple[int, int]]:
    """Contiguous, balanced half-open bucket ranges (may be empty)."""
    if num_shards < 1:
        raise ShardError(f"need at least one shard, got {num_shards}")
    return [
        (k * num_buckets // num_shards, (k + 1) * num_buckets // num_shards)
        for k in range(num_shards)
    ]


def _copy_bucket_range(source_table, shard_table, lo: int, hi: int) -> int:
    tuples = 0
    for bucket_no in range(lo, hi):
        records = source_table.read_bucket(bucket_no)
        shard_table.append_bucket(records)
        tuples += len(records)
    return tuples


def _slice_sma_set(
    source_set: SmaSet, shard_catalog: Catalog, shard_table, lo: int, hi: int
) -> None:
    directory = os.path.join(
        shard_catalog.sma_dir(shard_table.name), source_set.name
    )
    shard_set = SmaSet(source_set.name, shard_table, directory)
    pool = shard_catalog.pool
    for name, definition in source_set.definitions.items():
        files = {}
        for group_key, sma in source_set.files_of(name).items():
            values = sma.values(charge=False)[lo:hi]
            mask = sma.valid_mask()
            valid = None if mask is None else mask[lo:hi]
            files[group_key] = SmaFile.build(
                shard_set.file_path(name, group_key),
                values,
                pool,
                valid=valid,
                page_size=sma.page_size,
            )
        shard_set.add_materialized(definition, files)
    shard_set.save()
    shard_catalog.register_sma_set(shard_table.name, shard_set)


def shard_init(
    source_dir: str,
    out_dir: str,
    num_shards: int,
    *,
    buffer_pages: int = 2048,
) -> ShardManifest:
    """Partition the catalog at *source_dir* into *num_shards* catalogs.

    Creates ``out_dir/shard-0000 .. shard-NNNN`` (each a complete,
    independently openable catalog) plus the ``shards.json`` manifest.
    Refuses to overwrite an already initialised sharded root.
    """
    if ShardManifest.exists(out_dir):
        raise ShardError(
            f"{out_dir} already holds a shard manifest; refusing to re-init"
        )
    os.makedirs(out_dir, exist_ok=True)
    shard_dirs = tuple(f"shard-{k:04d}" for k in range(num_shards))

    with Catalog.discover(source_dir, buffer_pages=buffer_pages) as source:
        tables = list(source.tables())
        if not tables:
            raise ShardError(f"catalog at {source_dir} has no tables")
        ranges: dict[str, tuple[tuple[int, int], ...]] = {
            table.name: tuple(shard_ranges(table.num_buckets, num_shards))
            for table in tables
        }
        for k, rel in enumerate(shard_dirs):
            with Catalog(
                os.path.join(out_dir, rel), buffer_pages=buffer_pages
            ) as shard_catalog:
                for table in tables:
                    layout = table.heap.layout
                    shard_table = shard_catalog.create_table(
                        table.name,
                        table.schema,
                        page_size=layout.page_size,
                        pages_per_bucket=layout.pages_per_bucket,
                        clustered_on=table.clustered_on,
                    )
                    lo, hi = ranges[table.name][k]
                    _copy_bucket_range(table, shard_table, lo, hi)
                    for source_set in source.sma_sets(table.name):
                        _slice_sma_set(
                            source_set, shard_catalog, shard_table, lo, hi
                        )

    manifest = ShardManifest(
        num_shards=num_shards,
        shard_dirs=shard_dirs,
        tables=ranges,
        source=os.path.abspath(source_dir),
    )
    manifest.save(out_dir)
    return manifest


__all__ = ["shard_init", "shard_ranges"]
