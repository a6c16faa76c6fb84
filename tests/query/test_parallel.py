"""Unit tests for morsel-driven scan parallelism (ISSUE PR 2 tentpole).

The dispatcher contract: results come back in morsel order, worker
windows merge into the parent query's window (failed tasks included —
their physical reads already hit the pool counters), errors re-raise in
task order, and the parent's cancel event reaches every worker.
"""

import threading

import pytest

from repro.errors import ExecutionError, QueryCancelledError
from repro.query.parallel import (
    DEFAULT_MORSEL_BUCKETS,
    ScanParallelism,
    make_morsels,
    run_morsels,
)
from repro.storage.buffer import BufferPool
from repro.storage.stats import IoStats


class TestScanParallelism:
    def test_defaults_are_serial(self):
        p = ScanParallelism()
        assert p.workers == 1
        assert p.morsel_buckets == DEFAULT_MORSEL_BUCKETS
        assert not p.enabled
        assert ScanParallelism(workers=4).enabled

    def test_validation(self):
        with pytest.raises(ExecutionError):
            ScanParallelism(workers=0)
        with pytest.raises(ExecutionError):
            ScanParallelism(workers=2, morsel_buckets=0)

    def test_serial_is_one_task_over_every_bucket(self):
        assert ScanParallelism(morsel_buckets=2).split(range(5)) == [
            [0, 1, 2, 3, 4]
        ]
        assert ScanParallelism().split([]) == [[]]
        assert ScanParallelism(workers=3, morsel_buckets=2).split(range(5)) == [
            [0, 1], [2, 3], [4]
        ]

    def test_mode_labels(self):
        assert ScanParallelism().mode == "serial"
        assert ScanParallelism(backend="process").mode == "serial"
        assert ScanParallelism(workers=4).mode == "morsel(workers=4)"
        assert (
            ScanParallelism(workers=2, backend="process").mode
            == "morsel(workers=2, backend=process)"
        )


class TestMakeMorsels:
    def test_chunks_preserve_order(self):
        assert make_morsels([3, 1, 4, 1, 5], 2) == [[3, 1], [4, 1], [5]]
        assert make_morsels(range(4), 8) == [[0, 1, 2, 3]]
        assert make_morsels([], 4) == []


class TestRunMorsels:
    def test_results_in_task_order(self):
        pool = BufferPool(capacity_pages=8)
        start = threading.Barrier(4)

        def task(i):
            def run():
                start.wait(timeout=10)  # all four run truly concurrently
                return i * 10

            return run

        assert run_morsels(pool, [task(i) for i in range(4)], 4) == [0, 10, 20, 30]

    def test_serial_fallback_runs_inline(self):
        pool = BufferPool(capacity_pages=8)
        main = threading.current_thread()
        ran_on = []
        tasks = [lambda: ran_on.append(threading.current_thread()) or 1] * 3
        assert run_morsels(pool, tasks, 1) == [1, 1, 1]
        assert all(t is main for t in ran_on)
        assert run_morsels(pool, [], 8) == []

    def test_worker_windows_merge_into_parent(self):
        pool = BufferPool(capacity_pages=32)

        def task(pages):
            def run():
                for page in pages:
                    pool.read_page("f", page, lambda p=page: b"x%d" % p)

            return run

        parent = IoStats()
        with pool.query_context(parent):
            run_morsels(pool, [task([0, 1]), task([2, 3, 4])], 2)
            assert parent.page_reads == 5
        # Nothing leaked onto the default window.
        assert pool.default_stats.page_reads == 0
        counters = pool.counters()
        assert counters.misses == 5

    def test_failed_task_window_still_merges(self):
        """A task that dies after doing I/O must not lose its charges —
        the partition invariant (windows sum == counter growth) survives
        failures."""
        pool = BufferPool(capacity_pages=32)

        def good():
            pool.read_page("f", 0, lambda: b"a")

        def bad():
            pool.read_page("f", 1, lambda: b"b")
            raise ExecutionError("morsel exploded")

        parent = IoStats()
        with pool.query_context(parent):
            with pytest.raises(ExecutionError, match="morsel exploded"):
                run_morsels(pool, [good, bad], 2)
            assert parent.page_reads == 2  # the failed task's read included
        assert pool.counters().misses == 2

    def test_first_error_in_task_order_wins(self):
        pool = BufferPool(capacity_pages=8)
        gate = threading.Barrier(2)

        def fail(tag):
            def run():
                gate.wait(timeout=10)
                raise ExecutionError(tag)

            return run

        with pytest.raises(ExecutionError, match="first"):
            run_morsels(pool, [fail("first"), fail("second")], 2)

    def test_parent_cancel_event_reaches_workers(self):
        pool = BufferPool(capacity_pages=8)
        cancel = threading.Event()
        cancel.set()

        def task():
            return pool.read_page("f", 0, lambda: b"x")

        with pool.query_context(cancel_event=cancel):
            with pytest.raises(QueryCancelledError):
                run_morsels(pool, [task, task], 2)
