"""Physical operators: the iterator concept over record batches.

The paper's operators implement the classic open/next/close iterator
concept [Graefe 7]; a Python reproduction that called ``next()`` per
tuple would drown the measurement in interpreter overhead, so operators
here iterate *bucket-sized record batches* (vectorised Volcano).  The
per-tuple accounting still happens — through the
:class:`~repro.storage.stats.IoStats` counters — so simulated times are
per-tuple faithful even though control flow is per batch.

Every tuple-returning heap access path is one :class:`Scan`: it builds
:class:`~repro.query.morsel.ScanTask`\\ s and hands them to
:func:`~repro.query.morsel.dispatch`.  A serial plan is one task over
the whole bucket list, a morsel plan one task per morsel.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.core.partition import BucketPartitioning
from repro.errors import ExecutionError
from repro.lang.predicate import Predicate
from repro.obs.trace import NO_TRACER
from repro.query.morsel import ScanTask, dispatch
from repro.query.parallel import ScanParallelism
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
        """The operator's tuples, one per record: what every range scan's
        result rows are built from."""
        for batch in self.batches():
            for record in batch:
                yield tuple(record)


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


class Scan(Operator):
    """Selection over the heap: the SMA_Scan operator of Figure 6.

    With a *partitioning* (the selection SMAs' grading), disqualifying
    buckets are skipped entirely, qualifying buckets are returned
    without evaluating the predicate and ambivalent buckets are fetched
    and filtered tuple-wise.  Without one it is the paper's baseline
    sequential scan: every bucket is fetched and filtered.  Batches come
    back in bucket order whatever the *parallelism*.

    Each fetched bucket charges one per-tuple CPU unit per tuple (the
    predicate evaluation is included in that charge; see the
    calibration notes in :mod:`repro.storage.disk`).
    """

    def __init__(
        self,
        table: Table,
        predicate: Predicate,
        partitioning: BucketPartitioning | None = None,
        parallelism: ScanParallelism = ScanParallelism(),
        tracer=NO_TRACER,
    ):
        self.table = table
        self.predicate = predicate.bind(table.schema)
        self.partitioning = partitioning
        self.parallelism = parallelism
        self.tracer = tracer

    @property
    def schema(self) -> Schema:
        return self.table.schema

    def batches(self) -> Iterator[np.ndarray]:
        partitioning = self.partitioning
        if partitioning is None:
            bucket_nos = range(self.table.num_buckets)
            qualifying = np.zeros(self.table.num_buckets, dtype=bool)
        else:
            qualifying = partitioning.qualifying
            pool = self.table.heap.pool
            # The skip charge lands on the calling thread, so it needs
            # its own io-carrying span (task spans only see fetches).
            with self.tracer.span(
                "bucket_select",
                stats=pool.stats,
                attrs={"skipped": partitioning.num_disqualifying},
            ):
                pool.stats.buckets_skipped += partitioning.num_disqualifying
            bucket_nos = np.flatnonzero(~partitioning.disqualifying)
        tasks = [
            ScanTask(buckets, qualifying[buckets].tolist(), self.predicate)
            for buckets in self.parallelism.split(bucket_nos)
        ]
        for part in dispatch(
            self.table, tasks, self.parallelism, self.tracer, "scan_morsel"
        ):
            yield from part
