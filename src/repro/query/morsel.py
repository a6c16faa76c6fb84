"""Morsel tasks and their one dispatcher.

The paper states its per-bucket rule once per operator — disqualifying:
skip; qualifying: pass unfiltered (Figure 6) or advance from the
SMA-files (Figure 7); ambivalent: fetch, filter, advance.  This module
states it once per *task shape*:

* :class:`FoldTask` — a bucket list filtered and folded into one
  partial :class:`~repro.query.aggregation.AggregationState`
  (``GAggr``'s task);
* :class:`SmaRangeTask` — a contiguous bucket range of SMA_GAggr:
  qualifying buckets advance from SMA entries, ambivalent ones are
  fetched and filtered.  The serial plan runs the same task over the
  whole table;
* :class:`ScanTask` — a bucket list turned into filtered batches.

A task is plain picklable data with one ``run(table)``.  The thread
backend runs it in-process on the parent's table (or pinned
:class:`~repro.storage.table.TableView`); a process worker unpickles it
and runs it on its own pinned view — same code, so the two backends
cannot drift.  :func:`dispatch` is the only place that chooses a
backend and the only place a broken worker pool turns into a thread
re-run.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import NamedTuple

import numpy as np

from repro.lang.predicate import Predicate
from repro.obs.trace import NO_TRACER
from repro.query.aggregation import AggregationState
from repro.query.parallel import ScanParallelism, run_morsels
from repro.query.query import OutputAggregate


class FoldSpec(NamedTuple):
    """One aggregation riding a task: bound predicate + grouping plan."""

    predicate: Predicate
    group_by: tuple[str, ...]
    aggregates: tuple[OutputAggregate, ...]

    def new_state(self, schema) -> AggregationState:
        return AggregationState(schema, self.group_by, self.aggregates)


@dataclass
class FoldTask:
    """Fetch each bucket; filter it and fold it into one partial state."""

    buckets: list[int]
    spec: FoldSpec

    def run(self, table) -> AggregationState:
        # pool.stats must resolve on the *running* thread: under the
        # dispatcher it is that worker's private child window.
        stats = table.heap.pool.stats
        state = self.spec.new_state(table.schema)
        predicate = self.spec.predicate
        for bucket_no in self.buckets:
            records = table.read_bucket(bucket_no)
            stats.buckets_fetched += 1
            stats.tuples_scanned += len(records)
            mask = predicate.evaluate(records)
            state.consume_batch(records if mask.all() else records[mask])
        return state


@dataclass
class SmaRangeTask:
    """Buckets ``[lo, hi)`` of an SMA_GAggr plan, advanced in bucket order.

    ``qualifying``, ``ambivalent`` and ``entries`` are indexed relative
    to ``lo`` (sliced to the range; numpy slices are views, and pickle
    ships only the slice), so bucket ``lo + i``'s SMA entries or filtered
    tuples land before anything of bucket ``lo + i + 1`` — any contiguous
    split of a range merges back byte-identically.
    """

    lo: int
    hi: int
    qualifying: np.ndarray
    ambivalent: np.ndarray
    entries: object  # repro.query.sma_gaggr._SmaEntries
    spec: FoldSpec

    def run(self, table) -> AggregationState:
        stats = table.heap.pool.stats  # caller's (or worker's) window
        state = self.spec.new_state(table.schema)
        lo = self.lo
        qualifying = self.qualifying
        ambivalent = self.ambivalent
        entries = self.entries
        predicate = self.spec.predicate
        for i in range(self.hi - lo):
            if qualifying[i]:
                entries.advance(state, i)
            elif ambivalent[i]:
                records = table.read_bucket(lo + i)
                stats.buckets_fetched += 1
                stats.tuples_scanned += len(records)
                mask = predicate.evaluate(records)
                state.consume_batch(records[mask])
        return state


@dataclass
class ScanTask:
    """Fetch buckets; pass qualifying ones unfiltered, filter the rest."""

    buckets: list[int]
    qualifying: list[bool]
    predicate: Predicate

    def run(self, table) -> list[np.ndarray]:
        stats = table.heap.pool.stats
        out: list[np.ndarray] = []
        for bucket_no, qualifying in zip(self.buckets, self.qualifying):
            records = table.read_bucket(bucket_no)
            stats.buckets_fetched += 1
            stats.tuples_scanned += len(records)
            if qualifying:
                out.append(records)
            else:
                mask = self.predicate.evaluate(records)
                out.append(records if mask.all() else records[mask])
        return out


def dispatch(
    table,
    tasks: list,
    parallelism: ScanParallelism,
    tracer=NO_TRACER,
    span_name: str = "scan_morsel",
) -> list:
    """Run *tasks* on the configured backend; results in task order.

    Either backend runs every task inside its own I/O window, merges the
    windows into the calling thread's window in task order, opens one
    ``span_name`` span per task under an enabled *tracer*, and re-raises
    the first exception in task order once every task has settled.  A
    worker-process pool that dies mid-dispatch is counted as one
    fallback and the whole task list re-runs on threads: tasks are pure
    functions of the pinned table, so the re-run is byte-identical.
    """
    if parallelism.use_processes and len(tasks) > 1:
        # Imported on first use: serial and thread-backend processes
        # (shard workers included) never load the multiprocessing stack.
        from repro.query import procpool

        try:
            return procpool.run_process_morsels(
                table, tasks, parallelism.workers,
                tracer=tracer, span_name=span_name,
            )
        except procpool.ProcPoolBrokenError:
            procpool.note_fallback()
    return run_morsels(
        table.heap.pool,
        [partial(task.run, table) for task in tasks],
        parallelism.workers,
        tracer=tracer,
        span_name=span_name,
    )


def dispatch_fold(
    table,
    spec: FoldSpec,
    tasks: list,
    parallelism: ScanParallelism,
    tracer=NO_TRACER,
    span_name: str = "scan_morsel",
) -> AggregationState:
    """:func:`dispatch` aggregating *tasks* into one merged state.

    Every task returns one partial; partials merge in task order, which
    rebuilds the serial contribution sequence (see
    :meth:`AggregationState.merge`).  ``merge`` refuses a partial whose
    plan differs from its target's, so partials that crossed a process
    boundary are checked against the parent's plan here.  A lone partial
    (a serial plan's one task) ran in this process and is returned as is.
    """
    partials = dispatch(table, tasks, parallelism, tracer, span_name)
    if len(partials) == 1:
        return partials[0]
    state = spec.new_state(table.schema)
    with tracer.span("merge", attrs={"partials": len(partials)}):
        for part in partials:
            state.merge(part)
    return state
