"""GAggr — grouping with aggregation, after Dayal [4].

The plain (SMA-less) pipeline breaker: consume the child operator fully,
group tuples, advance aggregates, finalize averages.  Used as the
baseline side of every runtime experiment.  :class:`ParallelGAggr` is
the morsel-driven variant the planner builds when scan parallelism is
enabled: workers fold disjoint bucket ranges into partial
:class:`AggregationState` instances that merge deterministically, so the
result is byte-identical to the serial fold.  Each morsel is one
:class:`~repro.query.morsel.FoldTask`.
"""

from __future__ import annotations

from repro.lang.predicate import Predicate
from repro.obs.trace import NO_TRACER
from repro.query.aggregation import AggregationState
from repro.query.iterators import Operator
from repro.query.morsel import FoldSpec, FoldTask, dispatch_fold
from repro.query.parallel import ScanParallelism, make_morsels
from repro.query.query import OutputAggregate, QueryRows
from repro.storage.table import Table


class GAggr:
    """Hash grouping-aggregation over a child operator."""

    def __init__(
        self,
        child: Operator,
        group_by: tuple[str, ...],
        aggregates: tuple[OutputAggregate, ...],
    ):
        self.child = child
        self.group_by = group_by
        self.aggregates = aggregates

    def collect_state(self) -> AggregationState:
        """Advance a full :class:`AggregationState` without finalizing."""
        state = AggregationState(self.child.schema, self.group_by, self.aggregates)
        for batch in self.child.batches():
            state.consume_batch(batch)
        return state

    def execute(self) -> QueryRows:
        """Compute the full result (the operator's init phase)."""
        return self.collect_state().finalize()


class ParallelGAggr:
    """Morsel-parallel grouping-aggregation over a full-table scan.

    Result-equivalent to ``GAggr(Filter(SeqScan(table), predicate))``:
    each worker scans a morsel of buckets in order, filters, and folds
    into a partial state; partials merge in morsel order (see
    :meth:`AggregationState.merge` for why that is byte-exact).
    """

    def __init__(
        self,
        table: Table,
        predicate: Predicate,
        group_by: tuple[str, ...],
        aggregates: tuple[OutputAggregate, ...],
        parallelism: ScanParallelism,
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
            FoldTask(morsel, spec)
            for morsel in make_morsels(
                range(self.table.num_buckets), self.parallelism.morsel_buckets
            )
        ]
        return dispatch_fold(
            self.table, spec, tasks, self.parallelism, self.tracer, "scan_morsel"
        )

    def execute(self) -> QueryRows:
        return self.collect_state().finalize()
