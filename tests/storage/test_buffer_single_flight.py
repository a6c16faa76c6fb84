"""Buffer pool: one LRU, single-flight loads, races.

Covers the pool's concurrency contract:

* one LRU — the whole capacity is usable by any access pattern, and hit
  counts depend only on the access sequence, never on file ids;
* single-flight — concurrent readers of one missing page coalesce onto
  exactly one physical load: one miss charged to the leader, a buffer
  hit to every follower, and the loader runs once;
* per-query IoStats windows *partition* the cumulative counters under
  16 threads (property-tested over random access patterns);
* eviction pressure — capacity far below the working set deadlocks
  nothing and the pool stays within its capacity;
* invalidate/note_write racing an in-flight load can never resurrect
  stale bytes (the generation guard).
"""

import random
import threading

from hypothesis import given, settings, strategies as st

from repro.errors import StorageError
from repro.storage.buffer import BufferPool
from repro.storage.stats import IoStats


def payload_for(file_id, page_no) -> bytes:
    return f"{file_id}:{page_no}".encode()


def loader_for(file_id, page_no):
    return lambda: payload_for(file_id, page_no)


def read_all(pool, accesses) -> int:
    """Read every ``(file_id, page_no)`` of *accesses*; return the hits."""
    before = pool.counters().hits
    for file_id, page in accesses:
        pool.read_page(file_id, page, loader_for(file_id, page))
    return pool.counters().hits - before


class TestOneLru:
    def test_strided_reads_use_the_whole_capacity(self):
        pool = BufferPool(capacity_pages=256)
        strided = [("f", page) for page in range(0, 512, 2)]
        assert read_all(pool, strided) == 0
        assert len(pool) == 256
        assert read_all(pool, strided) == 256

    def test_hit_count_does_not_depend_on_file_ids(self):
        # 128 even pages of each of two files, read twice: 256 distinct
        # pages fit a 256-page pool whatever the two files are called.
        hits = []
        for ids in [(0, 1), (0, 2)]:
            pool = BufferPool(capacity_pages=256)
            sequence = [(f, page) for f in ids for page in range(0, 256, 2)]
            hits.append(read_all(pool, sequence * 2))
        assert hits == [256, 256]

    def test_contains_len_and_counters(self):
        pool = BufferPool(capacity_pages=64)
        for page in range(6):
            pool.read_page("f", page, loader_for("f", page))
        pool.read_page("f", 0, loader_for("f", 0))
        assert len(pool) == 6
        assert ("f", 3) in pool and ("f", 99) not in pool
        counters = pool.counters()
        assert (counters.hits, counters.misses) == (1, 6)


class TestSingleFlight:
    THREADS = 8

    def test_concurrent_readers_coalesce_onto_one_load(self):
        """ISSUE satellite: exactly one miss + one physical load is
        charged for N concurrent readers of one missing page; the other
        N-1 accesses are buffer hits."""
        pool = BufferPool(capacity_pages=64)
        load_calls = []
        started = threading.Event()
        release = threading.Event()

        def slow_loader():
            load_calls.append(threading.current_thread().name)
            started.set()
            assert release.wait(timeout=30)
            return b"the-page"

        windows = [IoStats() for _ in range(self.THREADS)]
        results = [None] * self.THREADS

        def reader(i):
            with pool.query_context(windows[i]):
                results[i] = pool.read_page("f", 7, slow_loader)

        threads = [
            threading.Thread(target=reader, args=(i,)) for i in range(self.THREADS)
        ]
        for t in threads:
            t.start()
        assert started.wait(timeout=30)
        # Give the remaining readers time to coalesce as followers, then
        # let the leader finish.  (Late arrivals hit the cache instead —
        # either way the loader must run exactly once.)
        release.set()
        for t in threads:
            t.join(timeout=30)
            assert not t.is_alive()

        assert results == [b"the-page"] * self.THREADS
        assert len(load_calls) == 1
        counters = pool.counters()
        assert counters.misses == 1
        assert counters.hits == self.THREADS - 1
        # The one physical read landed on exactly one window; every other
        # window saw a pure hit.
        assert sum(w.page_reads for w in windows) == 1
        assert sum(w.buffer_hits for w in windows) == self.THREADS - 1
        assert all(w.page_reads + w.buffer_hits == 1 for w in windows)

    def test_follower_retries_after_leader_failure(self):
        pool = BufferPool(capacity_pages=8)
        started = threading.Event()
        release = threading.Event()
        follower_ready = threading.Event()

        def failing_loader():
            started.set()
            assert release.wait(timeout=30)
            raise StorageError("disk fell over")

        leader_error = []

        def leader():
            try:
                pool.read_page("f", 0, failing_loader)
            except StorageError as exc:
                leader_error.append(exc)

        follower_result = []

        def follower():
            follower_ready.set()
            follower_result.append(pool.read_page("f", 0, loader_for("f", 0)))

        a = threading.Thread(target=leader)
        a.start()
        assert started.wait(timeout=30)  # leader owns the in-flight load
        b = threading.Thread(target=follower)
        b.start()
        assert follower_ready.wait(timeout=30)
        release.set()
        a.join(timeout=30)
        b.join(timeout=30)
        assert not a.is_alive() and not b.is_alive()

        # The leader surfaced its error; the follower retried the load
        # itself (possibly becoming the new leader) and succeeded.
        assert len(leader_error) == 1
        assert follower_result == [payload_for("f", 0)]
        assert ("f", 0) in pool

    @settings(max_examples=5, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_sixteen_thread_partition_property(self, seed):
        """Property (ISSUE satellite): under 16 threads with random page
        access patterns, the per-query window deltas partition the
        cumulative counters exactly."""
        threads_n, accesses = 16, 60
        pool = BufferPool(capacity_pages=48)
        rng = random.Random(seed)
        patterns = [
            [
                (f"file-{rng.randrange(4)}", rng.randrange(24))
                for _ in range(accesses)
            ]
            for _ in range(threads_n)
        ]
        before = pool.counters()
        barrier = threading.Barrier(threads_n)
        windows = [IoStats() for _ in range(threads_n)]
        bad: list = []

        def worker(i):
            with pool.query_context(windows[i]):
                barrier.wait()
                for file_id, page in patterns[i]:
                    got = pool.read_page(file_id, page, loader_for(file_id, page))
                    if got != payload_for(file_id, page):
                        bad.append((file_id, page, got))

        threads = [
            threading.Thread(target=worker, args=(i,)) for i in range(threads_n)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
            assert not t.is_alive(), "worker deadlocked"

        assert not bad, bad[:5]
        delta = pool.counters() - before
        assert sum(w.buffer_hits for w in windows) == delta.hits
        assert sum(w.page_reads for w in windows) == delta.misses
        assert delta.hits + delta.misses == threads_n * accesses
        assert len(pool) <= pool.capacity_pages


class TestEvictionPressure:
    def test_capacity_below_working_set_no_deadlock(self):
        """ISSUE satellite: 8 threads stream working sets far larger
        than the pool; nothing deadlocks, payloads stay correct, and
        the pool respects its capacity throughout."""
        pool = BufferPool(capacity_pages=16)
        threads_n, pages = 8, 120
        barrier = threading.Barrier(threads_n)
        bad: list = []
        bounds_violations: list = []

        def worker(i):
            own = f"file-{i}"
            barrier.wait()
            for page in range(pages):
                got = pool.read_page(own, page, loader_for(own, page))
                if got != payload_for(own, page):
                    bad.append((own, page))
                # Shared pages keep the lock contended.
                pool.read_page("shared", page % 8, loader_for("shared", page % 8))
                held = len(pool)
                if held > pool.capacity_pages:
                    bounds_violations.append((page, held))

        threads = [
            threading.Thread(target=worker, args=(i,)) for i in range(threads_n)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
            assert not t.is_alive(), "eviction-pressure worker deadlocked"

        assert not bad, bad[:5]
        assert not bounds_violations, bounds_violations[:3]
        assert len(pool) <= pool.capacity_pages
        counters = pool.counters()
        assert counters.evictions > 0  # pressure actually happened
        assert counters.accesses == threads_n * pages * 2


class TestInvalidationRaces:
    def test_invalidate_during_inflight_load_is_not_resurrected(self):
        """ISSUE satellite: an invalidate that lands while a load is in
        flight wins — the loaded payload is returned to the reader but
        never installed in the cache."""
        pool = BufferPool(capacity_pages=8)
        started = threading.Event()
        release = threading.Event()

        def slow_loader():
            started.set()
            assert release.wait(timeout=30)
            return b"stale"

        result = []
        t = threading.Thread(
            target=lambda: result.append(pool.read_page("f", 0, slow_loader))
        )
        t.start()
        assert started.wait(timeout=30)
        pool.invalidate("f", 0)  # races the in-flight load
        release.set()
        t.join(timeout=30)
        assert not t.is_alive()

        assert result == [b"stale"]  # the reader still gets its bytes...
        assert ("f", 0) not in pool  # ...but the cache was not repopulated
        # The next read goes back to disk and sees the new contents.
        assert pool.read_page("f", 0, lambda: b"fresh") == b"fresh"
        assert pool.read_page("f", 0, loader_for("f", 0)) == b"fresh"

    def test_write_during_inflight_load_keeps_written_bytes(self):
        pool = BufferPool(capacity_pages=8)
        started = threading.Event()
        release = threading.Event()

        def slow_loader():
            started.set()
            assert release.wait(timeout=30)
            return b"pre-write"

        result = []
        t = threading.Thread(
            target=lambda: result.append(pool.read_page("f", 0, slow_loader))
        )
        t.start()
        assert started.wait(timeout=30)
        pool.note_write("f", 0, b"post-write")
        release.set()
        t.join(timeout=30)
        assert not t.is_alive()

        assert result == [b"pre-write"]
        # The write-through contents survive; the stale load never
        # overwrote them.
        assert pool.read_page("f", 0, lambda: b"unexpected-io") == b"post-write"

    def test_clear_during_inflight_load(self):
        pool = BufferPool(capacity_pages=8)
        pool.read_page("g", 0, loader_for("g", 0))
        started = threading.Event()
        release = threading.Event()

        def slow_loader():
            started.set()
            assert release.wait(timeout=30)
            return b"stale"

        t = threading.Thread(target=lambda: pool.read_page("f", 0, slow_loader))
        t.start()
        assert started.wait(timeout=30)
        pool.clear()
        release.set()
        t.join(timeout=30)
        assert not t.is_alive()
        assert len(pool) == 0  # cold means cold: nothing reappeared
