"""GAggr — grouping with aggregation, after Dayal [4].

The plain (SMA-less) pipeline breaker over a heap scan: fetch every
bucket, filter, group tuples, advance aggregates, finalize averages.
Used as the baseline side of every runtime experiment.  The scan is
:class:`~repro.query.morsel.FoldTask`\\ s handed to
:func:`~repro.query.morsel.dispatch_fold`: a serial plan is one task
over every bucket, a morsel plan one task per morsel whose partial
:class:`AggregationState`\\ s merge in morsel order, so the result is
byte-identical to the serial fold.
"""

from __future__ import annotations

from repro.lang.predicate import Predicate
from repro.obs.trace import NO_TRACER
from repro.query.aggregation import AggregationState
from repro.query.morsel import FoldSpec, FoldTask, dispatch_fold
from repro.query.parallel import ScanParallelism
from repro.query.query import OutputAggregate, QueryRows
from repro.storage.table import Table


class GAggr:
    """Hash grouping-aggregation over a filtered full-table scan."""

    def __init__(
        self,
        table: Table,
        predicate: Predicate,
        group_by: tuple[str, ...],
        aggregates: tuple[OutputAggregate, ...],
        parallelism: ScanParallelism = ScanParallelism(),
        tracer=NO_TRACER,
    ):
        self.table = table
        self.predicate = predicate.bind(table.schema)
        self.group_by = group_by
        self.aggregates = aggregates
        self.parallelism = parallelism
        self.tracer = tracer

    def collect_state(self) -> AggregationState:
        """Advance a full :class:`AggregationState` without finalizing."""
        spec = FoldSpec(self.predicate, self.group_by, self.aggregates)
        tasks = [
            FoldTask(buckets, spec)
            for buckets in self.parallelism.split(range(self.table.num_buckets))
        ]
        return dispatch_fold(
            self.table, spec, tasks, self.parallelism, self.tracer, "scan_morsel"
        )

    def execute(self) -> QueryRows:
        """Compute the full result (the operator's init phase)."""
        return self.collect_state().finalize()
