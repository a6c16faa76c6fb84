"""SMA_GAggr — the operator of Figure 7.

Computes a grouping-aggregation query using two kinds of SMAs:

* *selection SMAs* grade every bucket against the predicate (through
  :meth:`SmaSet.partition`, Section 3.1);
* *aggregate SMAs* supply ready-made per-bucket per-group aggregate
  values, so qualifying buckets never touch the base relation — only
  ambivalent buckets are fetched and their tuples inspected.

The scan of the relation's ambivalent buckets proceeds in bucket order,
"in sync" with the (fully sequentially read) SMA-files, exactly as
Section 2.3 describes.  Averages are derived as sum/count in the final
phase.
"""

from __future__ import annotations

import numpy as np

from repro.core.aggregates import AggregateKind, AggregateSpec, count_star
from repro.core.partition import BucketPartitioning
from repro.core.sma_set import SmaSet
from repro.errors import PlanningError
from repro.lang.predicate import Predicate
from repro.obs.trace import NO_TRACER
from repro.query.aggregation import AggregationState
from repro.query.morsel import FoldSpec, SmaRangeTask, dispatch_fold
from repro.query.parallel import ScanParallelism, make_morsels
from repro.query.query import OutputAggregate, QueryRows
from repro.storage.table import Table


def sma_requirements(
    aggregates: tuple[OutputAggregate, ...],
) -> list[AggregateSpec]:
    """The materialized specs SMA_GAggr needs for a set of query aggregates.

    ``avg(e)`` requires ``sum(e)``; every query additionally requires
    ``count(*)`` (group presence + average denominators).
    """
    required: list[AggregateSpec] = [count_star()]
    for aggregate in aggregates:
        spec = aggregate.spec
        if spec.kind is AggregateKind.AVG:
            required.append(AggregateSpec(AggregateKind.SUM, spec.argument))
        elif spec.kind is not AggregateKind.COUNT:
            required.append(spec)
    return required


def sma_covers(
    sma_set: SmaSet,
    aggregates: tuple[OutputAggregate, ...],
    group_by: tuple[str, ...],
) -> bool:
    """True when *sma_set* materializes everything the query aggregates
    need — exactly grouped or finer (roll-up, Section 2.3)."""
    return all(
        sma_set.rollup_aggregate_files(spec, group_by) is not None
        for spec in sma_requirements(aggregates)
    )


class SmaGAggr:
    """The SMA_GAggr pipeline breaker (Figure 7)."""

    def __init__(
        self,
        table: Table,
        predicate: Predicate,
        group_by: tuple[str, ...],
        aggregates: tuple[OutputAggregate, ...],
        sma_set: SmaSet,
        partitioning: BucketPartitioning | None = None,
        parallelism: ScanParallelism | None = None,
        tracer=NO_TRACER,
    ):
        self.table = table
        self.predicate = predicate.bind(table.schema)
        self.group_by = group_by
        self.aggregates = aggregates
        self.sma_set = sma_set
        self._partitioning = partitioning
        self.parallelism = parallelism
        self.tracer = tracer
        if not sma_covers(sma_set, aggregates, group_by):
            raise PlanningError(
                f"SMA set {sma_set.name!r} does not materialize all "
                f"aggregates needed by this query"
            )

    @property
    def partitioning(self) -> BucketPartitioning:
        if self._partitioning is None:
            self._partitioning = self.sma_set.partition(self.predicate)
        return self._partitioning

    def collect_state(self) -> AggregationState:
        """Advance a full :class:`AggregationState` without finalizing.

        Contributions advance in strict bucket order — bucket ``b``'s
        SMA entries (qualifying) or filtered tuples (ambivalent) land
        before anything of bucket ``b+1``.  That makes the per-group
        contribution sequence a pure function of the bucket range, so
        any contiguous split of the range (morsels here, shard workers
        in :mod:`repro.shard`) merges back byte-identically.
        """
        tracer = self.tracer
        partitioning = self.partitioning
        stats = self.table.heap.pool.stats

        # Phase: read every aggregate SMA-file exactly once into the
        # per-bucket advancement table.  The span also covers the
        # disqualifying-skip charge, so the operator's io-carrying spans
        # jointly cover its whole window.
        with tracer.span(
            "sma_rollup",
            stats=stats,
            attrs={
                "qualifying": partitioning.num_qualifying,
                "disqualifying": partitioning.num_disqualifying,
            },
        ):
            entries = (
                self._load_sma_entries()
                if partitioning.qualifying.any()
                else _SmaEntries([], [])
            )
            stats.buckets_skipped += partitioning.num_disqualifying

        # Phase: walk buckets in physical order — qualifying buckets
        # advance from the SMA entries, ambivalent buckets are fetched,
        # filtered and consumed (:class:`SmaRangeTask`).  Only ambivalent
        # buckets cost heap I/O, so with parallelism enabled the bucket
        # range splits into contiguous sub-ranges balanced by
        # ambivalent-bucket count; partials merge in range order.
        spec = FoldSpec(self.predicate, self.group_by, self.aggregates)
        qualifying_mask = partitioning.qualifying
        ambivalent_mask = partitioning.ambivalent

        def range_task(lo: int, hi: int) -> SmaRangeTask:
            return SmaRangeTask(
                lo,
                hi,
                qualifying_mask[lo:hi],
                ambivalent_mask[lo:hi],
                entries.slice(lo, hi),
                spec,
            )

        ambivalent = [int(b) for b in np.flatnonzero(ambivalent_mask)]
        if (
            self.parallelism is not None
            and self.parallelism.enabled
            and len(ambivalent) > 1
        ):
            tasks = []
            start = 0
            for chunk in make_morsels(ambivalent, self.parallelism.morsel_buckets):
                tasks.append(range_task(start, chunk[-1] + 1))
                start = chunk[-1] + 1
            if start < self.table.num_buckets:
                tasks.append(range_task(start, self.table.num_buckets))
            return dispatch_fold(
                self.table, spec, tasks, self.parallelism, tracer, "sma_range"
            )
        with tracer.span(
            "sma_range",
            stats=stats,
            attrs={"buckets": len(ambivalent), "mode": "serial"},
        ):
            return range_task(0, self.table.num_buckets).run(self.table)

    def execute(self) -> QueryRows:
        """Compute the full result (the operator's init phase).

        Post-processing (averages) happens inside ``finalize()``.
        """
        return self.collect_state().finalize()

    def _load_sma_entries(self) -> "_SmaEntries":
        """Read every needed SMA-file once into per-bucket value arrays."""
        value_cache: dict[int, np.ndarray] = {}
        valid_cache: dict[int, np.ndarray | None] = {}

        def read(sma) -> tuple[np.ndarray, np.ndarray | None]:
            if id(sma) not in value_cache:
                value_cache[id(sma)] = sma.values()
                valid_cache[id(sma)] = sma.valid_mask()
            return value_cache[id(sma)], valid_cache[id(sma)]

        found = self.sma_set.rollup_aggregate_files(count_star(), self.group_by)
        assert found is not None  # guaranteed by sma_covers
        count_files, projection = found
        counts = []
        for key, sma in count_files.items():
            values, _ = read(sma)
            counts.append(
                (self.sma_set.project_group_key(key, projection), values)
            )

        aggs = []
        for index, aggregate in enumerate(self.aggregates):
            spec = aggregate.spec
            if spec.kind is AggregateKind.COUNT:
                continue  # served by the shared per-group count
            lookup = spec
            if spec.kind is AggregateKind.AVG:
                lookup = AggregateSpec(AggregateKind.SUM, spec.argument)
            found = self.sma_set.rollup_aggregate_files(lookup, self.group_by)
            assert found is not None  # guaranteed by sma_covers
            files, projection = found
            for key, sma in files.items():
                values, valid = read(sma)
                coarse = self.sma_set.project_group_key(key, projection)
                aggs.append((index, lookup.kind, coarse, values, valid))
        return _SmaEntries(counts, aggs)


class _SmaEntries:
    """Per-bucket advancement table for qualifying buckets.

    ``counts`` holds ``(group_key, per-bucket counts)`` pairs; ``aggs``
    holds ``(output index, kind, group_key, values, valid)`` tuples.
    :meth:`advance` applies one bucket's entries — per-bucket
    granularity keeps contributions bit-identical to a heap scan of the
    same (fully qualifying) bucket, whatever strategy other shards or
    morsels pick.
    """

    __slots__ = ("counts", "aggs")

    def __init__(self, counts: list, aggs: list):
        self.counts = counts
        self.aggs = aggs

    def slice(self, lo: int, hi: int) -> "_SmaEntries":
        """Entries of buckets ``[lo, hi)``, re-indexed from 0 (views)."""
        return _SmaEntries(
            [(key, counts[lo:hi]) for key, counts in self.counts],
            [
                (index, kind, key, values[lo:hi],
                 None if valid is None else valid[lo:hi])
                for index, kind, key, values, valid in self.aggs
            ],
        )

    def advance(self, state: AggregationState, bucket_no: int) -> None:
        for key, counts in self.counts:
            count = counts[bucket_no]
            if count:
                state.advance_count(key, int(count))
        for index, kind, key, values, valid in self.aggs:
            if valid is not None and not valid[bucket_no]:
                continue
            value = values[bucket_no]
            if kind is AggregateKind.SUM:
                state.advance_sum(key, index, value)
            elif kind is AggregateKind.MIN:
                state.advance_min(key, index, value)
            elif kind is AggregateKind.MAX:
                state.advance_max(key, index, value)
