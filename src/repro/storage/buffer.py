"""Thread-safe LRU buffer pool with single-flight page loads.

All page traffic in the system goes through a :class:`BufferPool`.  The
pool serves four purposes:

* it is the *warm vs cold* switch — the paper's Section 2.4 reports both
  cold and warm runs of Query 1, which we reproduce by clearing the pool;
* it classifies every physical read as sequential or random (a read is
  sequential when it targets the page directly after the previous
  physical read of the same file), feeding the simulated disk model;
* it caps memory like the paper's 8 MB intertransaction buffer: one LRU
  list over ``capacity_pages`` pages, so which page is evicted depends
  only on the access sequence;
* it is the concurrency core of the query service: one lock guards the
  page map, physical loads run outside it behind per-page single-flight
  latches, and per-thread *query contexts* give each in-flight query its
  own :class:`IoStats` window and its own sequential-read tracker so
  concurrent queries cannot corrupt each other's cost accounting.

Concurrency model
-----------------
Disk reads never happen under the pool lock.  On a miss the reading
thread becomes the page's *load leader*: it publishes a latch in the
in-flight table, drops the lock, runs ``loader()``, then re-acquires the
lock to install the page and wake any *followers* that arrived while the
load was in progress.  Followers block on the latch (holding no locks),
so concurrent readers of one missing page coalesce onto a single
physical read instead of duplicating I/O — and readers of *other* pages
are never serialized behind it.

Counter semantics under single-flight (see also
:mod:`repro.storage.stats`): the leader charges the one physical read
(miss, classified sequential/skip/random against its own tracker); every
follower charges a buffer hit, because its bytes came from memory.  Per
logical access exactly one charge is made, so per-query windows still
partition the cumulative :meth:`counters` exactly.

``invalidate``/``clear``/``note_write`` bump the pool's *generation*; a
leader only installs its payload if the generation is unchanged since
the load began, so an invalidated page can never be resurrected by an
in-flight read that started before the invalidation.

``pool.stats`` is a property.  Outside a query context it resolves to
the pool's default :class:`IoStats` (the catalog-wide counters; charges
to it are serialized on the pool lock).  Inside
``with pool.query_context(stats):`` it resolves, *for the current
thread only*, to the bound per-query stats.  All charging code in the
system reads ``pool.stats`` at operation time, so the whole execution
stack is per-query isolated without touching any operator.

A query context may also carry a cancellation event and a monotonic
deadline; :meth:`read_page` checks them on every call, so a running
query is cancelled cooperatively at its next page access — the natural
quantum, since all I/O funnels through here.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Hashable, Iterator

from repro.errors import (
    QueryCancelledError,
    QueryTimeoutError,
    StorageError,
    TransientIOError,
)
from repro.storage.faults import RetryPolicy
from repro.storage.stats import IoStats

PageKey = tuple[Hashable, int]


@dataclass
class BufferCounters:
    """Cumulative pool-lifetime counters (snapshot; see :meth:`BufferPool.counters`).

    Unlike :class:`IoStats` windows, these accrue across *all* queries and
    threads — the per-query deltas of every context-bound execution sum
    exactly to the growth of these counters.  Under single-flight loading
    a coalesced follower counts as a *hit* (its bytes came from memory);
    only the load leader counts the miss.
    """

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    writes: int = 0
    #: transient-fault read retries performed by load leaders; grows in
    #: lockstep with the summed ``read_retries`` of all stats windows.
    retries: int = 0

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of logical reads served from the pool (0.0 when idle)."""
        accesses = self.accesses
        return self.hits / accesses if accesses else 0.0

    def __sub__(self, other: "BufferCounters") -> "BufferCounters":
        if not isinstance(other, BufferCounters):
            return NotImplemented
        return BufferCounters(
            hits=self.hits - other.hits,
            misses=self.misses - other.misses,
            evictions=self.evictions - other.evictions,
            writes=self.writes - other.writes,
            retries=self.retries - other.retries,
        )


class _QueryBinding:
    """Thread-local accounting window for one in-flight query."""

    __slots__ = ("stats", "last_physical", "cancel_event", "deadline")

    def __init__(
        self,
        stats: IoStats,
        cancel_event: threading.Event | None,
        deadline: float | None,
    ):
        self.stats = stats
        self.last_physical: dict[Hashable, int] = {}
        self.cancel_event = cancel_event
        self.deadline = deadline


class _PageLoad:
    """Single-flight latch for one in-flight physical page load."""

    __slots__ = ("event", "payload", "error")

    def __init__(self) -> None:
        self.event = threading.Event()
        self.payload: bytes | None = None
        self.error: BaseException | None = None


class BufferPool:
    """A fixed-capacity, thread-safe LRU cache of page payloads.

    Parameters
    ----------
    capacity_pages:
        Maximum number of pages held.  The paper configured AODB with an
        8 MB intertransaction buffer — 2048 4 KB pages — which is the
        default here.
    stats:
        The default :class:`IoStats` instance charged for traffic through
        this pool when no query context is bound.  Callers typically
        snapshot/diff it around a query.
    """

    def __init__(self, capacity_pages: int = 2048, stats: IoStats | None = None):
        if capacity_pages <= 0:
            raise StorageError(f"capacity_pages must be positive, got {capacity_pages}")
        self.capacity_pages = capacity_pages
        # Guards the page map, the in-flight table, the generation, the
        # cumulative counters, the default window and its sequential-read
        # tracker.  Per-context windows and trackers are thread-private.
        self._lock = threading.Lock()
        self._cache: OrderedDict[PageKey, bytes] = OrderedDict()
        self._loads: dict[PageKey, _PageLoad] = {}
        self._generation = 0
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        self._writes = 0
        self._retries = 0
        self._default_stats = stats if stats is not None else IoStats()
        self._last_physical: dict[Hashable, int] = {}
        self._local = threading.local()
        #: Optional :class:`~repro.storage.faults.FaultInjector` consulted
        #: by HeapFile/SmaFile on every physical read/write through this
        #: pool.  None in production; set by tests, ``--faults``, and the
        #: workload driver.
        self.fault_injector = None
        #: Backoff schedule for transient read faults inside the
        #: single-flight leader (and SmaFile's open-time body read).
        self.retry_policy = RetryPolicy()
        #: Optional callback ``(file_id, page_no, attempt, error)`` fired
        #: on each retry — the serve CLI wires this to the event log.
        self.on_retry: Callable[[Hashable, int, int, BaseException], None] | None = None

    # ------------------------------------------------------------------
    # per-query contexts
    # ------------------------------------------------------------------

    def _binding(self) -> _QueryBinding | None:
        return getattr(self._local, "binding", None)

    @property
    def stats(self) -> IoStats:
        """The stats window charged by the current thread.

        The bound per-query :class:`IoStats` inside a
        :meth:`query_context`, the pool-default instance otherwise.
        """
        binding = self._binding()
        return binding.stats if binding is not None else self._default_stats

    @property
    def default_stats(self) -> IoStats:
        """The context-independent default window (the catalog's counters)."""
        return self._default_stats

    @contextmanager
    def query_context(
        self,
        stats: IoStats | None = None,
        *,
        cancel_event: threading.Event | None = None,
        deadline: float | None = None,
    ) -> Iterator[IoStats]:
        """Bind a per-query accounting window to the current thread.

        While active, every charge made from this thread lands on
        *stats* (a fresh :class:`IoStats` when omitted) and
        sequential/random classification runs against a private
        tracker, so interleaved page reads of concurrent queries do not
        turn each other's streams into phantom random I/O.

        *cancel_event* and *deadline* (``time.monotonic()`` scale) make
        the query cooperatively cancellable: the next
        :meth:`read_page` after the event is set / the deadline passes
        raises :class:`~repro.errors.QueryCancelledError` /
        :class:`~repro.errors.QueryTimeoutError`.

        Contexts nest per thread; the previous binding is restored on
        exit.  Morsel scan workers bind their *own* window (merged into
        the parent query's window by the dispatcher) with the parent's
        cancel event and deadline — see :meth:`binding_controls`.
        """
        binding = _QueryBinding(
            stats if stats is not None else IoStats(), cancel_event, deadline
        )
        previous = self._binding()
        self._local.binding = binding
        try:
            yield binding.stats
        finally:
            self._local.binding = previous

    def binding_controls(self) -> tuple[threading.Event | None, float | None]:
        """The (cancel_event, deadline) of the current thread's context.

        ``(None, None)`` outside any context.  Scan-parallel dispatchers
        propagate these to worker threads so a cancelled or timed-out
        query stops all its morsel workers at their next page access.
        """
        binding = self._binding()
        if binding is None:
            return None, None
        return binding.cancel_event, binding.deadline

    @staticmethod
    def _check_live(binding: _QueryBinding) -> None:
        if binding.cancel_event is not None and binding.cancel_event.is_set():
            raise QueryCancelledError("query cancelled during page access")
        if binding.deadline is not None and time.monotonic() > binding.deadline:
            raise QueryTimeoutError("query deadline exceeded during page access")

    # ------------------------------------------------------------------
    # charging (window side; cumulative counters sit beside the cache)
    # ------------------------------------------------------------------

    @staticmethod
    def _classify_into(
        stats: IoStats,
        tracker: dict[Hashable, int],
        file_id: Hashable,
        page_no: int,
        kind: str,
    ) -> None:
        last = tracker.get(file_id)
        if last is not None and page_no == last + 1:
            stats.sequential_page_reads += 1
        elif last is not None and page_no > last + 1:
            # A forward gap in an otherwise ordered scan: the head skips
            # over unread pages.  Cheaper than a full random access but
            # far dearer than streaming — this is what makes the paper's
            # Figure 5 break-even shape emerge (scattered ambivalent
            # buckets cost skip latency each).
            stats.skip_page_reads += 1
        else:
            stats.random_page_reads += 1
        if kind == "sma":
            stats.sma_page_reads += 1
        else:
            stats.heap_page_reads += 1
        tracker[file_id] = page_no

    # ------------------------------------------------------------------
    # page traffic
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        with self._lock:
            return len(self._cache)

    def __contains__(self, key: PageKey) -> bool:
        with self._lock:
            return key in self._cache

    def _install(self, key: PageKey, payload: bytes) -> None:
        """Put *payload* at the MRU end, evicting LRU pages (lock held)."""
        cache = self._cache
        cache[key] = payload
        cache.move_to_end(key)
        while len(cache) > self.capacity_pages:
            cache.popitem(last=False)
            self._evictions += 1

    def read_page(
        self,
        file_id: Hashable,
        page_no: int,
        loader: Callable[[], bytes],
        *,
        kind: str = "heap",
    ) -> bytes:
        """Return the payload of page *page_no* of file *file_id*.

        On a hit the page moves to the MRU end and a buffer hit is
        charged.  On a miss, the calling thread either becomes the page's
        load leader — running *loader* outside the lock, then installing
        the page (evicting the LRU page if the pool is full) — or
        coalesces onto an in-flight load of the same page and charges a
        buffer hit once the leader's bytes arrive.

        *kind* labels the backing file (``"heap"`` or ``"sma"``) so
        physical reads split into ``heap_page_reads``/``sma_page_reads``
        — the paper's "SMA pages vs relation pages" ratio.
        """
        binding = self._binding()
        if binding is not None:
            self._check_live(binding)
            stats = binding.stats
            tracker = binding.last_physical
        else:
            stats = self._default_stats
            tracker = self._last_physical
        key: PageKey = (file_id, page_no)

        while True:
            with self._lock:
                cached = self._cache.get(key)
                if cached is not None:
                    self._cache.move_to_end(key)
                    self._hits += 1
                    stats.buffer_hits += 1
                    return cached
                load = self._loads.get(key)
                if load is None:
                    load = _PageLoad()
                    self._loads[key] = load
                    generation = self._generation
                    leader = True
                else:
                    leader = False

            if not leader:
                # Follower: wait latch-only (no locks held), then account
                # the access as a hit — the bytes came from memory.
                load.event.wait()
                if load.error is not None:
                    # The leader's load failed; retry from the top (this
                    # thread may become the new leader).
                    continue
                with self._lock:
                    self._hits += 1
                    stats.buffer_hits += 1
                    if key in self._cache:
                        self._cache.move_to_end(key)
                payload = load.payload
                assert payload is not None
                return payload

            # Leader: physical load outside the lock, with bounded
            # retry-with-backoff for transient faults.  Followers wait on
            # the latch and never double-charge — retries are the
            # leader's alone.
            try:
                payload = self._run_loader(loader, file_id, page_no)
            except BaseException as exc:
                with self._lock:
                    if self._loads.get(key) is load:
                        del self._loads[key]
                    load.error = exc
                    load.event.set()
                raise

            with self._lock:
                self._misses += 1
                self._classify_into(stats, tracker, file_id, page_no, kind)
                if self._loads.get(key) is load:
                    del self._loads[key]
                if self._generation == generation:
                    # Install only if no invalidate/clear/write raced the
                    # load — a stale payload must not resurrect.
                    self._install(key, payload)
                load.payload = payload
                load.event.set()
            return payload

    def _run_loader(
        self, loader: Callable[[], bytes], file_id: Hashable, page_no: int
    ) -> bytes:
        """Run a physical load, retrying transient faults with backoff.

        Each retry is charged to the caller's window *immediately* (and
        to the pool's cumulative retry counter), so accounting reconciles
        exactly even when the load ultimately fails.
        """
        policy = self.retry_policy
        attempt = 1
        while True:
            try:
                return loader()
            except TransientIOError as exc:
                if attempt >= policy.max_attempts:
                    raise
                self.note_retry()
                if self.on_retry is not None:
                    try:
                        self.on_retry(file_id, page_no, attempt, exc)
                    except Exception:
                        pass  # observability must never fail the read
                time.sleep(policy.backoff_s(attempt))
                attempt += 1

    def note_retry(self) -> None:
        """Charge one transient-read retry to the current window.

        Also bumps the pool's cumulative retry counter, keeping the
        window-partitioning invariant: summed window ``read_retries``
        always equal the growth of ``counters().retries``.
        """
        with self._lock:
            self.stats.read_retries += 1
            self._retries += 1

    def note_write(self, file_id: Hashable, page_no: int, payload: bytes) -> None:
        """Record a page write: charge the write and refresh the cache.

        The freshly written page is installed in the pool (write-through)
        so a subsequent read is a hit, as it would be in a real system.
        Every in-flight load is denied installation (its payload may
        predate the write).
        """
        stats = self.stats
        with self._lock:
            stats.page_writes += 1
            self._writes += 1
            self._generation += 1
            self._install((file_id, page_no), payload)

    # ------------------------------------------------------------------
    # cumulative counters
    # ------------------------------------------------------------------

    def counters(self) -> BufferCounters:
        """Snapshot the cumulative hit/miss/eviction/write counters.

        These accrue across every thread and query context for the
        lifetime of the pool; diff two snapshots to get the traffic of a
        window.  Per-query :class:`IoStats` deltas partition this total:
        the sum of all bound windows' ``buffer_hits`` equals the growth
        of ``hits``, and their physical ``page_reads`` the growth of
        ``misses``.
        """
        with self._lock:
            return BufferCounters(
                hits=self._hits,
                misses=self._misses,
                evictions=self._evictions,
                writes=self._writes,
                retries=self._retries,
            )

    # ------------------------------------------------------------------
    # maintenance
    # ------------------------------------------------------------------

    def invalidate(self, file_id: Hashable, page_no: int | None = None) -> None:
        """Drop one page, or every page of a file when *page_no* is None.

        Bumps the generation so concurrent loads that started before the
        invalidation cannot install stale bytes.
        """
        with self._lock:
            self._generation += 1
            if page_no is not None:
                self._cache.pop((file_id, page_no), None)
                return
            for key in [key for key in self._cache if key[0] == file_id]:
                del self._cache[key]
            self._last_physical.pop(file_id, None)

    def clear(self) -> None:
        """Empty the pool — the 'cold' switch for cold/warm experiments."""
        with self._lock:
            self._cache.clear()
            self._generation += 1
            self._last_physical.clear()

    def reset_sequence_tracking(self) -> None:
        """Forget read positions so the next read of each file is random.

        Used between queries: the first page a fresh scan touches costs a
        seek even if the previous query happened to end right before it.
        Inside a query context only the context's private tracker is
        reset.
        """
        binding = self._binding()
        if binding is not None:
            binding.last_physical.clear()
            return
        with self._lock:
            self._last_physical.clear()
