"""Process-based scan backend: morsels executed in worker processes.

Thread morsels (:mod:`repro.query.parallel`) keep every byte of work
under the parent's GIL, so CPU-bound bucket work (page decode, predicate
evaluation, grouping) does not actually overlap.  This module ships the
same :mod:`repro.query.morsel` task objects to a persistent
:class:`ProcessPoolExecutor` whose workers re-open the catalog read-only
via ``os.pread`` (each worker holds its own
:class:`~repro.storage.catalog.Catalog`, buffer pool and fault
injector), call ``task.run`` on their own pinned view of the table, and
return whatever it returns — **un-finalized**
:class:`~repro.query.aggregation.AggregationState` partials or filtered
batches — for the same order-preserving merge as thread morsels, so
results stay byte-identical to the serial fold.

Tasks and results cross the process boundary as the objects themselves:
the executor pickles what it is handed, and bound predicates, aggregate
specs, numpy arrays and partial states round-trip through pickle
bit-exactly.  This module knows nothing about task shapes; SMA plans
carry their pre-sliced per-bucket SMA entries inside the task, so
workers never re-read SMA files the parent already rolled up.

Accounting contract (see :mod:`repro.storage.stats`): every worker task
runs inside its *own* pool's ``query_context`` window and returns the
window with its result; the dispatcher merges worker windows into
the calling thread's window **in task order**, exactly once.  Physical
reads performed by a worker process land in that worker's cumulative
pool counters, never the parent's — the parent sees them only as the
merged per-query delta.

Worker pools are keyed by (catalog root, buffer pages, fault-injector
signature) and persist across queries; ``go_cold`` bumps a cold epoch
that makes workers drop their caches before the next task.  A crashed
worker (``BrokenProcessPool``) disposes the pool and raises
:class:`ProcPoolBrokenError`; :func:`repro.query.morsel.dispatch`
catches it and re-runs the query's tasks on the thread backend.
"""

from __future__ import annotations

import atexit
import multiprocessing
import os
import threading
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool

from repro.errors import ExecutionError, QueryCancelledError, QueryTimeoutError
from repro.obs.collect import graft_remote_trace
from repro.obs.trace import NO_TRACER, Tracer
from repro.storage.stats import IoStats

#: Worker processes per pool.  Under the spawn context the executor
#: starts a worker only when a task is submitted and none is idle, and
#: :meth:`ProcScanPool.dispatch` caps in-flight tasks at the query's
#: ``workers`` — so this is a ceiling, not a spawn count.
MAX_PROCESSES = 16


class ProcPoolBrokenError(ExecutionError):
    """The worker-process pool died mid-dispatch (worker crash/kill)."""


# ----------------------------------------------------------------------
# worker side (runs in the spawned process)
# ----------------------------------------------------------------------

_WORKER_CATALOG = None
_WORKER_EPOCH: int | None = None
#: Highest ingest epoch this worker has seen per table.  A task pinned
#: at a newer epoch means the parent retired DML batches after this
#: worker opened (or last refreshed) the heap: reload the counts sidecar
#: and drop stale cached pages before serving the snapshot.
_WORKER_TABLE_EPOCHS: dict[str, int] = {}


def _worker_init(root_dir: str, buffer_pages: int, fault_seed, fault_specs) -> None:
    """Process initializer: re-open the catalog read-only via ``pread``.

    The worker gets its own buffer pool (same capacity as the parent's)
    and, when the parent runs under fault injection, an injector rebuilt
    from the same (seed, specs) so simulated-device schedules apply to
    worker reads too.
    """
    global _WORKER_CATALOG
    from repro.storage.catalog import Catalog
    from repro.storage.faults import FaultInjector

    injector = None
    if fault_specs:
        injector = FaultInjector(seed=fault_seed, specs=tuple(fault_specs))
    _WORKER_CATALOG = Catalog.discover(
        root_dir,
        buffer_pages=buffer_pages,
        fault_injector=injector,
        read_only=True,
    )


def _worker_run(table_name: str, pin, cold_epoch: int, trace_ctx, task):
    """Run one shipped morsel task; return (result, window, wall_s, trace)."""
    global _WORKER_EPOCH
    catalog = _WORKER_CATALOG
    assert catalog is not None, "worker initializer did not run"
    if cold_epoch != _WORKER_EPOCH:
        # The parent went cold since our last task: drop page + decode
        # caches so this task's reads hit "disk" like the parent's would.
        catalog.go_cold()
        _WORKER_EPOCH = cold_epoch
    tracer = span = None
    if trace_ctx is not None:
        # Traced dispatch: open a local root span over this task's whole
        # window.  Ids/timestamps are process-local; the parent grafts
        # the exported tree (re-id + rebase) via obs.collect.
        tracer = Tracer(keep=1)
        span = tracer.begin(str(trace_ctx.get("span_name", "scan_task")), root=True)
        span.annotate(
            kind=type(task).__name__,
            table=table_name,
            pid=os.getpid(),
            remote_trace_id=trace_ctx.get("trace_id"),
            remote_parent_span_id=trace_ctx.get("parent_span_id"),
        )
    window = IoStats()
    started = time.perf_counter()
    with catalog.pool.query_context(window):
        table = _pinned_table(catalog, catalog.table(table_name), pin)
        result = task.run(table)
    wall_s = time.perf_counter() - started
    trace = None
    if span is not None:
        # The span's io IS the task window: the exported leaf delta and
        # the stats the parent merges are the same counters, so the
        # distributed reconciliation stays byte-exact.
        span.io = window.snapshot()
        tracer.finish(span)
        trace = span.to_dict()
    return result, window, wall_s, trace


def _pinned_table(catalog, table, pin):
    """Apply a shipped epoch-snapshot pin to the worker's table handle.

    The returned :class:`~repro.storage.table.TableView` bounds every
    bucket read to the parent's admission-time geometry, so a worker
    whose on-disk bytes are fresher (a concurrent batch already retired)
    still produces exactly the pinned snapshot.
    """
    if not pin:
        return table
    from repro.storage.table import TableView

    known = _WORKER_TABLE_EPOCHS.get(table.name)
    if known is None:
        known = catalog.ingest_epoch(table.name)
    epoch = int(pin["epoch"])
    if epoch > known:
        table.heap.refresh_from_disk()
    _WORKER_TABLE_EPOCHS[table.name] = max(epoch, known)
    return TableView.from_pin(table, pin)


# ----------------------------------------------------------------------
# pool registry (parent side)
# ----------------------------------------------------------------------


class ProcScanPool:
    """One persistent worker-process pool for one (catalog, faults) pair."""

    def __init__(self, key, root_dir, buffer_pages, fault_seed, fault_specs):
        self.key = key
        self.root_dir = root_dir
        self.buffer_pages = buffer_pages
        self.fault_seed = fault_seed
        self.fault_specs = fault_specs
        self.cold_epoch = 0
        self.tasks_dispatched = 0
        self._executor: ProcessPoolExecutor | None = None
        self._lock = threading.Lock()

    def _ensure(self) -> ProcessPoolExecutor:
        # Built once, never resized: replacing a live executor would
        # cancel the futures of every query dispatching on it.
        with self._lock:
            if self._executor is None:
                self._executor = ProcessPoolExecutor(
                    max_workers=MAX_PROCESSES,
                    mp_context=multiprocessing.get_context("spawn"),
                    initializer=_worker_init,
                    initargs=(
                        self.root_dir,
                        self.buffer_pages,
                        self.fault_seed,
                        self.fault_specs,
                    ),
                )
            return self._executor

    @property
    def spawned_workers(self) -> int:
        """Worker processes alive right now (0 before the first task)."""
        with self._lock:
            executor = self._executor
        # A shut-down executor sets ``_processes`` to None.
        return len(getattr(executor, "_processes", None) or ())

    def dispatch(
        self,
        table_name: str,
        pin,
        trace_ctx,
        tasks: list,
        workers: int,
        *,
        cancel_event=None,
        deadline=None,
    ) -> list[tuple]:
        """Run *tasks* with at most *workers* in flight; results in order.

        Each result is the worker's ``(result, window, wall_s, trace)``.
        Worker crashes raise :class:`ProcPoolBrokenError` (after the pool
        is disposed, so the next query respawns it); task-level errors
        re-raise in task order after every submitted task settles —
        matching :func:`repro.query.parallel.run_morsels` semantics.
        """
        executor = self._ensure()
        cold_epoch = self.cold_epoch
        results: list[tuple | None] = [None] * len(tasks)
        errors: list[BaseException | None] = [None] * len(tasks)
        pending: dict = {}
        next_index = 0

        def submit_next() -> None:
            nonlocal next_index
            if next_index < len(tasks):
                future = executor.submit(
                    _worker_run, table_name, pin, cold_epoch, trace_ctx,
                    tasks[next_index],
                )
                pending[future] = next_index
                next_index += 1

        try:
            for _ in range(min(max(workers, 1), len(tasks))):
                submit_next()
            while pending:
                if cancel_event is not None and cancel_event.is_set():
                    for future in pending:
                        future.cancel()
                    raise QueryCancelledError(
                        "query cancelled during process scan"
                    )
                if deadline is not None and time.monotonic() > deadline:
                    for future in pending:
                        future.cancel()
                    raise QueryTimeoutError(
                        "query deadline passed during process scan"
                    )
                done, _ = wait(pending, timeout=0.25, return_when=FIRST_COMPLETED)
                for future in done:
                    index = pending.pop(future)
                    try:
                        results[index] = future.result()
                    except BrokenProcessPool:
                        raise
                    except BaseException as exc:  # noqa: BLE001 - reordered below
                        errors[index] = exc
                    else:
                        self.tasks_dispatched += 1
                    submit_next()
        except BrokenProcessPool as exc:
            # Submission and result retrieval can both surface a dead
            # worker; either way the executor is unusable — dispose it so
            # the next query respawns, and let the dispatcher fall back.
            self.dispose()
            raise ProcPoolBrokenError(
                "scan worker process died; falling back to threads"
            ) from exc
        for error in errors:
            if error is not None:
                raise error
        return [result for result in results if result is not None]

    def go_cold(self) -> None:
        """Make workers drop page/decode caches before their next task."""
        self.cold_epoch += 1

    def dispose(self) -> None:
        with self._lock:
            executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=False, cancel_futures=True)
        with _REGISTRY_LOCK:
            _POOLS.pop(self.key, None)


_POOLS: dict[tuple, ProcScanPool] = {}
_REGISTRY_LOCK = threading.Lock()
_FALLBACKS = 0


def _injector_signature(injector) -> tuple | None:
    if injector is None:
        return None
    return (injector.seed, tuple(injector.specs))


def get_pool(root_dir: str, buffer_pages: int, injector=None) -> ProcScanPool:
    """The persistent pool for a catalog root (created on first use)."""
    root = os.path.abspath(root_dir)
    key = (root, int(buffer_pages), _injector_signature(injector))
    with _REGISTRY_LOCK:
        pool = _POOLS.get(key)
        if pool is None:
            seed = injector.seed if injector is not None else 0
            specs = tuple(injector.specs) if injector is not None else ()
            pool = ProcScanPool(key, root, int(buffer_pages), seed, specs)
            _POOLS[key] = pool
        return pool


def go_cold(root_dir: str) -> None:
    """Advance the cold epoch of every pool attached to *root_dir*."""
    root = os.path.abspath(root_dir)
    with _REGISTRY_LOCK:
        pools = [pool for key, pool in _POOLS.items() if key[0] == root]
    for pool in pools:
        pool.go_cold()


def dispose_pools(root_dir: str) -> None:
    """Dispose every pool attached to *root_dir* (catalog teardown)."""
    root = os.path.abspath(root_dir)
    with _REGISTRY_LOCK:
        pools = [pool for key, pool in _POOLS.items() if key[0] == root]
    for pool in pools:
        pool.dispose()


def note_fallback() -> None:
    """Record one process → thread backend fallback (worker crash)."""
    global _FALLBACKS
    with _REGISTRY_LOCK:
        _FALLBACKS += 1


def pool_gauges(root_dir: str | None = None) -> dict:
    """Live worker-pool gauges for /metrics and the snapshot endpoint."""
    root = os.path.abspath(root_dir) if root_dir is not None else None
    with _REGISTRY_LOCK:
        pools = [
            pool
            for key, pool in _POOLS.items()
            if root is None or key[0] == root
        ]
        fallbacks = _FALLBACKS
    return {
        "pools": len(pools),
        "workers_spawned": sum(pool.spawned_workers for pool in pools),
        "tasks_dispatched": sum(pool.tasks_dispatched for pool in pools),
        "fallbacks": fallbacks,
    }


def shutdown_pools() -> None:
    """Dispose every pool (atexit / test teardown)."""
    with _REGISTRY_LOCK:
        pools = list(_POOLS.values())
    for pool in pools:
        pool.dispose()


atexit.register(shutdown_pools)


# ----------------------------------------------------------------------
# operator-facing dispatcher
# ----------------------------------------------------------------------


def run_process_morsels(
    table,
    tasks: list,
    workers: int,
    *,
    tracer=NO_TRACER,
    span_name: str = "scan_morsel",
) -> list:
    """Run morsel *tasks* in worker processes; their results in task order.

    Each worker's IoStats window is merged into the calling thread's
    per-query window exactly once, in task order, and — under an enabled
    tracer — exposed as one io-carrying ``span_name`` span per morsel so
    PR 4's leaf-sum reconciliation stays exact.  The dispatcher itself
    must never run inside an io-carrying span (that would double-count
    the merge).

    Raises :class:`ProcPoolBrokenError` when the pool died.
    """
    pool = table.heap.pool
    # Workers attach to the *on-disk* heap via pread: persist the data
    # handle and metadata sidecars first, so a freshly-loaded table is
    # visible to them.  A no-op-sized write when the heap is clean.
    table.heap.flush()
    root_dir = os.path.dirname(os.path.abspath(table.heap.path))
    proc = get_pool(root_dir, pool.capacity_pages, pool.fault_injector)
    cancel_event, deadline = pool.binding_controls()
    parent_span = tracer.current() if tracer.enabled else None
    trace_ctx = None
    if parent_span is not None:
        # Traced dispatch: ship trace context so each worker opens its
        # task span as a child of this query instead of a fresh root.
        trace_ctx = {
            "trace_id": parent_span.trace_id,
            "parent_span_id": parent_span.span_id,
            "span_name": span_name,
        }
    with tracer.span(
        "process_dispatch",
        attrs={"tasks": len(tasks), "workers": workers, "backend": "process"},
    ) as dispatch_span:
        replies = proc.dispatch(
            table.name,
            getattr(table, "pin", None),
            trace_ctx,
            tasks,
            workers,
            cancel_event=cancel_event,
            deadline=deadline,
        )
    parent = pool.stats
    results = []
    for index, (result, window, wall_s, remote) in enumerate(replies):
        if remote is not None:
            # The worker's exported span carries the task window as its
            # io delta; graft it (re-id, rebase into the dispatch
            # interval) and merge the same counters into the caller's
            # window — the grafted leaf and the merge agree exactly.
            graft_remote_trace(
                tracer,
                parent_span,
                remote,
                anchor=dispatch_span,
                name=span_name,
                attrs={
                    "morsel": index,
                    "backend": "process",
                    "worker_wall_s": wall_s,
                },
            )
        parent.merge(window)
        results.append(result)
    return results
