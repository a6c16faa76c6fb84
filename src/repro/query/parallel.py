"""Morsel-driven intra-query scan parallelism.

A query's bucket list — *after* SMA grading, so disqualifying buckets
are already gone and qualifying buckets never touch the heap — is split
into fixed-size *morsels* (contiguous runs of bucket numbers) dispatched
to a small worker pool, in the spirit of morsel-driven parallelism
(Leis et al., SIGMOD 2014) adapted to this engine's bucket-batch
iterators.  A serial plan is the same operator with one task over the
whole bucket list (:meth:`ScanParallelism.split`), which
:func:`run_morsels` runs inline on the caller's window.

Determinism is the design constraint: every morsel produces a *partial*
result (filtered batches, or partial per-group aggregates) and the
dispatcher merges partials **in morsel order**, so the parallel plan is
byte-identical to the serial plan — same rows, same floating-point
aggregate bits (see :meth:`AggregationState.merge`).

Accounting: each worker runs inside its own
:meth:`~repro.storage.buffer.BufferPool.query_context` child window
carrying the parent query's cancel event and deadline.  After all
morsels settle, the dispatcher merges every child window into the
calling thread's window in morsel order — the per-query
:class:`~repro.storage.stats.IoStats` delta stays exact, and windows of
concurrent queries keep partitioning the pool's cumulative counters.
Sequential/skip/random classification runs per worker context, which
models each worker as its own disk stream: a morsel's first page costs
one positioning access, the rest of the morsel streams.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Sequence, TypeVar

from repro.errors import ExecutionError
from repro.obs.trace import NO_TRACER
from repro.storage.buffer import BufferPool
from repro.storage.stats import IoStats

T = TypeVar("T")

#: Buckets per morsel.  Small enough to load-balance skewed bucket
#: costs across workers, large enough that each worker's page stream
#: is mostly sequential.
DEFAULT_MORSEL_BUCKETS = 8

#: Supported scan backends: "thread" dispatches morsels to an in-process
#: thread pool; "process" ships them to a persistent worker-process pool
#: (see :mod:`repro.query.procpool`) that sidesteps the GIL.
SCAN_BACKENDS = ("thread", "process")


@dataclass(frozen=True)
class ScanParallelism:
    """Knobs for morsel-driven scans: workers, morsel size, backend."""

    workers: int = 1
    morsel_buckets: int = DEFAULT_MORSEL_BUCKETS
    backend: str = "thread"

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ExecutionError(f"scan workers must be >= 1, got {self.workers}")
        if self.morsel_buckets < 1:
            raise ExecutionError(
                f"morsel_buckets must be >= 1, got {self.morsel_buckets}"
            )
        if self.backend not in SCAN_BACKENDS:
            raise ExecutionError(
                f"scan backend must be one of {SCAN_BACKENDS}, got {self.backend!r}"
            )

    @property
    def enabled(self) -> bool:
        return self.workers > 1

    @property
    def use_processes(self) -> bool:
        return self.enabled and self.backend == "process"

    @property
    def mode(self) -> str:
        """EXPLAIN's label: ``"serial"``, ``"morsel(workers=N)"`` or
        ``"morsel(workers=N, backend=process)"``."""
        if not self.enabled:
            return "serial"
        backend = "" if self.backend == "thread" else f", backend={self.backend}"
        return f"morsel(workers={self.workers}{backend})"

    def split(self, bucket_nos: Sequence[int]) -> list[list[int]]:
        """The task bucket lists: the whole list once when serial, else
        one morsel each."""
        if not self.enabled:
            return [[int(b) for b in bucket_nos]]
        return make_morsels(bucket_nos, self.morsel_buckets)


def make_morsels(
    bucket_nos: Sequence[int], morsel_buckets: int = DEFAULT_MORSEL_BUCKETS
) -> list[list[int]]:
    """Chunk *bucket_nos* (already in scan order) into fixed-size morsels."""
    buckets = [int(b) for b in bucket_nos]
    return [
        buckets[start : start + morsel_buckets]
        for start in range(0, len(buckets), morsel_buckets)
    ]


def run_morsels(
    pool: BufferPool,
    tasks: Sequence[Callable[[], T]],
    workers: int,
    *,
    tracer=NO_TRACER,
    span_name: str = "morsel",
) -> list[T]:
    """Run *tasks* (one per morsel) on *workers* threads; results in order.

    Each task executes inside its own buffer-pool query context (a fresh
    :class:`IoStats` child window, inheriting the calling context's
    cancel event and deadline).  Once every task has settled, the child
    windows are merged into the calling thread's window **in task
    order** — including windows of failed tasks, whose physical reads
    already reached the pool's cumulative counters and must not escape
    the query's delta.  The first exception in task order is re-raised.

    With an enabled *tracer*, every task gets a ``span_name`` span
    parented to the span current on the *calling* thread at dispatch
    time — this is the cross-thread propagation seam for the scan pool.
    A parallel task's span takes its private child window as its I/O
    delta (exact: nobody else charges that window), so the dispatcher
    itself must never be wrapped in an io-carrying span — the merge
    below would double-count.
    """
    if not tasks:
        return []
    parent_span = tracer.current() if tracer.enabled else None
    if workers <= 1 or len(tasks) == 1:
        # Serial degenerate case: run inline on the caller's own window.
        if parent_span is None:
            return [task() for task in tasks]
        out = []
        for index, task in enumerate(tasks):
            with tracer.span(
                span_name,
                parent=parent_span,
                stats=pool.stats,
                attrs={"morsel": index, "mode": "serial"},
            ):
                out.append(task())
        return out

    cancel_event, deadline = pool.binding_controls()
    parent = pool.stats
    windows = [IoStats() for _ in tasks]
    results: list[T | None] = [None] * len(tasks)
    errors: list[BaseException | None] = [None] * len(tasks)

    def run_one(index: int) -> None:
        task = tasks[index]
        try:
            with pool.query_context(
                windows[index], cancel_event=cancel_event, deadline=deadline
            ):
                if parent_span is not None:
                    with tracer.span(
                        span_name,
                        parent=parent_span,
                        stats=windows[index],
                        attrs={"morsel": index},
                    ):
                        results[index] = task()
                else:
                    results[index] = task()
        except BaseException as exc:  # noqa: BLE001 - re-raised in order below
            errors[index] = exc

    with ThreadPoolExecutor(
        max_workers=min(workers, len(tasks)), thread_name_prefix="repro-scan"
    ) as executor:
        futures = [executor.submit(run_one, i) for i in range(len(tasks))]
        for future in futures:
            future.result()  # run_one never raises; this is just a join

    for window in windows:
        parent.merge(window)
    for error in errors:
        if error is not None:
            raise error
    return [result for result in results]  # all set: no error, every task ran
