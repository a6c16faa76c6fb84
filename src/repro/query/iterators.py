"""Physical operators: the iterator concept over record batches.

The paper's operators implement the classic open/next/close iterator
concept [Graefe 7]; a Python reproduction that called ``next()`` per
tuple would drown the measurement in interpreter overhead, so operators
here iterate *bucket-sized record batches* (vectorised Volcano).  The
per-tuple accounting still happens — through the
:class:`~repro.storage.stats.IoStats` counters — so simulated times are
per-tuple faithful even though control flow is per batch.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.core.partition import BucketPartitioning
from repro.core.sma_set import SmaSet
from repro.errors import ExecutionError
from repro.lang.predicate import Predicate
from repro.obs.trace import NO_TRACER
from repro.query.morsel import ScanTask, dispatch
from repro.query.parallel import ScanParallelism, make_morsels
from repro.storage.schema import Schema
from repro.storage.table import Table


class Operator:
    """Base class: an iterable of numpy record batches."""

    @property
    def schema(self) -> Schema:
        raise NotImplementedError

    def batches(self) -> Iterator[np.ndarray]:
        raise NotImplementedError

    def rows(self) -> Iterator[tuple]:
        """Per-tuple convenience used by tests and small examples."""
        for batch in self.batches():
            for record in batch:
                yield tuple(record)


class SeqScan(Operator):
    """Plain sequential scan of every bucket — the paper's baseline.

    Charges one per-tuple CPU unit for every tuple delivered (downstream
    predicate evaluation/aggregation is included in that charge; see the
    calibration notes in :mod:`repro.storage.disk`).
    """

    def __init__(self, table: Table):
        self.table = table

    @property
    def schema(self) -> Schema:
        return self.table.schema

    def batches(self) -> Iterator[np.ndarray]:
        stats = self.table.heap.pool.stats
        for _, records in self.table.iter_buckets():
            stats.tuples_scanned += len(records)
            stats.buckets_fetched += 1
            yield records


class Filter(Operator):
    """Apply a predicate to the child's batches (no extra CPU charge —
    the scan's per-tuple charge already covers predicate evaluation)."""

    def __init__(self, child: Operator, predicate: Predicate):
        self.child = child
        self.predicate = predicate.bind(child.schema)

    @property
    def schema(self) -> Schema:
        return self.child.schema

    def batches(self) -> Iterator[np.ndarray]:
        for batch in self.child.batches():
            mask = self.predicate.evaluate(batch)
            if mask.all():
                yield batch
            else:
                yield batch[mask]


class Project(Operator):
    """Keep only the named columns, in order."""

    def __init__(self, child: Operator, columns: tuple[str, ...]):
        if not columns:
            raise ExecutionError("projection needs at least one column")
        self.child = child
        self.columns = columns
        self._schema = child.schema.project(columns)

    @property
    def schema(self) -> Schema:
        return self._schema

    def batches(self) -> Iterator[np.ndarray]:
        names = list(self.columns)
        for batch in self.child.batches():
            projected = np.zeros(len(batch), dtype=self._schema.record_dtype)
            for name in names:
                projected[name] = batch[name]
            yield projected


class SmaScan(Operator):
    """The SMA_Scan operator of Figure 6.

    Partitions the buckets via the selection SMAs, then iterates:
    disqualifying buckets are skipped entirely, qualifying buckets are
    returned without evaluating the predicate, ambivalent buckets are
    fetched and filtered tuple-wise.  The relation and all SMA-files are
    scanned "in sync" — the partitioning is computed once up front from
    the sequentially read SMA-files, which is I/O-equivalent.
    """

    def __init__(
        self,
        table: Table,
        predicate: Predicate,
        sma_set: SmaSet,
        partitioning: BucketPartitioning | None = None,
    ):
        self.table = table
        self.predicate = predicate.bind(table.schema)
        self.sma_set = sma_set
        self._partitioning = partitioning

    @property
    def schema(self) -> Schema:
        return self.table.schema

    @property
    def partitioning(self) -> BucketPartitioning:
        if self._partitioning is None:
            self._partitioning = self.sma_set.partition(self.predicate)
        return self._partitioning

    def batches(self) -> Iterator[np.ndarray]:
        partitioning = self.partitioning
        stats = self.table.heap.pool.stats
        qualifying = partitioning.qualifying
        disqualifying = partitioning.disqualifying
        for bucket_no in range(self.table.num_buckets):
            if disqualifying[bucket_no]:
                stats.buckets_skipped += 1
                continue
            records = self.table.read_bucket(bucket_no)
            stats.buckets_fetched += 1
            stats.tuples_scanned += len(records)
            if qualifying[bucket_no]:
                yield records
            else:
                mask = self.predicate.evaluate(records)
                yield records[mask]


class MorselScan(Operator):
    """Morsel-parallel selection scan, batch-equivalent to the serial plans.

    Covers both shapes the planner builds for tuple-returning queries:
    without a partitioning it behaves like ``Filter(SeqScan(table))``;
    with one it behaves like :class:`SmaScan` (disqualifying buckets
    skipped, qualifying buckets returned unfiltered, ambivalent buckets
    filtered tuple-wise).  The bucket list is chunked into morsels that
    scan workers fetch and filter concurrently; batches are yielded in
    bucket order, so downstream results are byte-identical to serial.
    """

    def __init__(
        self,
        table: Table,
        predicate: Predicate,
        parallelism: ScanParallelism,
        partitioning: BucketPartitioning | None = None,
        tracer=NO_TRACER,
    ):
        self.table = table
        self.predicate = predicate.bind(table.schema)
        self.parallelism = parallelism
        self.partitioning = partitioning
        self.tracer = tracer

    @property
    def schema(self) -> Schema:
        return self.table.schema

    def batches(self) -> Iterator[np.ndarray]:
        pool = self.table.heap.pool
        if self.partitioning is None:
            bucket_nos = list(range(self.table.num_buckets))
            qualifying = np.zeros(self.table.num_buckets, dtype=bool)
        else:
            qualifying = self.partitioning.qualifying
            fetched = ~self.partitioning.disqualifying
            # The skip charge lands on the calling thread, so it needs
            # its own io-carrying span (worker spans only see fetches).
            with self.tracer.span(
                "bucket_select",
                stats=pool.stats,
                attrs={"skipped": self.partitioning.num_disqualifying},
            ):
                pool.stats.buckets_skipped += self.partitioning.num_disqualifying
            bucket_nos = [int(b) for b in np.flatnonzero(fetched)]
        tasks = [
            ScanTask(morsel, qualifying[morsel].tolist(), self.predicate)
            for morsel in make_morsels(bucket_nos, self.parallelism.morsel_buckets)
        ]
        for part in dispatch(
            self.table, tasks, self.parallelism, self.tracer, "scan_morsel"
        ):
            yield from part
