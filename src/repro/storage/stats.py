"""I/O and CPU accounting.

Every page access in the system flows through an :class:`IoStats`
instance, classified as sequential or random (a read is sequential when
it targets the page immediately after the previous read of the same
file).  The simulated-disk cost model (:mod:`repro.storage.disk`)
converts these counters into 1998-era seconds, which is how we reproduce
the paper's absolute-scale numbers on modern hardware.

Counter semantics under concurrency
-----------------------------------
The buffer pool loads missing pages *single-flight*: when several
threads miss the same page at once, exactly one of them (the load
leader) performs the physical read and charges it — one of
``sequential_page_reads`` / ``skip_page_reads`` / ``random_page_reads``
in its window, one miss in the pool's cumulative counters.  Every
coalesced *follower* charges ``buffer_hits`` instead, because its bytes
were served from memory.  Each logical access therefore produces exactly
one charge, never zero or two, and the per-query windows of concurrent
executions always *partition* the pool's cumulative
:meth:`~repro.storage.buffer.BufferPool.counters` growth: summed window
``buffer_hits`` equal the hit growth and summed window ``page_reads``
equal the miss growth.  Morsel-parallel scans preserve the same
invariant by giving each scan worker a private window that the
dispatcher merges into the query's window, in morsel order, before the
query settles.

*Process* scan workers (``scan_backend="process"``) extend the same
contract across process boundaries.  Each worker process owns a private
buffer pool and opens a fresh :class:`IoStats` window per task; the
window travels back with the task's result and the dispatching
thread merges it into the parent query's window exactly once, in task
order — the leader never re-charges a read a worker already charged,
and a worker's physical reads never appear in the parent pool's
cumulative counters (they happened against the worker's own pool).
Consequently per-query windows still sum to exactly the trace's leaf
spans, but the *parent* pool's hit/miss counters only cover parent-side
accesses; worker-side physical I/O is visible solely through the query
windows and span attribution.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields


@dataclass
class IoStats:
    """Mutable counters for one measurement window."""

    sequential_page_reads: int = 0
    skip_page_reads: int = 0
    random_page_reads: int = 0
    #: physical reads split by *file kind* — SMA-files vs relation heap
    #: files.  Each physical read increments exactly one access-class
    #: counter above AND exactly one of these two, so
    #: ``sma_page_reads + heap_page_reads == page_reads`` always holds;
    #: ``page_reads`` stays the access-class sum for compatibility.
    sma_page_reads: int = 0
    heap_page_reads: int = 0
    page_writes: int = 0
    buffer_hits: int = 0
    #: transient-fault read retries performed by the single-flight load
    #: leader on this window's behalf.  Retries are charged immediately
    #: (even when the load ultimately fails), so summed window
    #: ``read_retries`` always equal the pool's cumulative retry growth.
    read_retries: int = 0
    tuples_scanned: int = 0
    tuples_built: int = 0
    sma_entries_read: int = 0
    buckets_fetched: int = 0
    buckets_skipped: int = 0

    @property
    def page_reads(self) -> int:
        """Total physical page reads (sequential + skip + random)."""
        return (
            self.sequential_page_reads
            + self.skip_page_reads
            + self.random_page_reads
        )

    @property
    def page_accesses(self) -> int:
        """Logical page accesses: physical reads plus buffer hits."""
        return self.page_reads + self.buffer_hits

    def reset(self) -> None:
        """Zero every counter in place."""
        for f in fields(self):
            setattr(self, f.name, 0)

    def snapshot(self) -> "IoStats":
        """An immutable-by-convention copy of the current counters."""
        return IoStats(**{f.name: getattr(self, f.name) for f in fields(self)})

    def __add__(self, other: "IoStats") -> "IoStats":
        if not isinstance(other, IoStats):
            return NotImplemented
        return IoStats(
            **{
                f.name: getattr(self, f.name) + getattr(other, f.name)
                for f in fields(self)
            }
        )

    def __sub__(self, other: "IoStats") -> "IoStats":
        """Counter delta — used to isolate one query's cost via snapshots."""
        if not isinstance(other, IoStats):
            return NotImplemented
        return IoStats(
            **{
                f.name: getattr(self, f.name) - getattr(other, f.name)
                for f in fields(self)
            }
        )

    def merge(self, other: "IoStats") -> None:
        """Accumulate *other* into this instance in place."""
        for f in fields(self):
            setattr(self, f.name, getattr(self, f.name) + getattr(other, f.name))

    def as_dict(self) -> dict[str, int]:
        """Plain-dict view of every counter plus the derived totals.

        The metrics registry and the ``repro serve --report`` dump use
        this so snapshots stay JSON-friendly.
        """
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        out["page_reads"] = self.page_reads
        out["page_accesses"] = self.page_accesses
        return out

    @property
    def buffer_hit_rate(self) -> float:
        """Fraction of logical page accesses served from the pool."""
        accesses = self.page_accesses
        return self.buffer_hits / accesses if accesses else 0.0

    @property
    def bucket_skip_rate(self) -> float:
        """Fraction of examined buckets skipped thanks to SMA grading."""
        examined = self.buckets_fetched + self.buckets_skipped
        return self.buckets_skipped / examined if examined else 0.0


@dataclass
class CostBreakdown:
    """Simulated-time decomposition of one measurement window (seconds)."""

    sequential_io_s: float = 0.0
    skip_io_s: float = 0.0
    random_io_s: float = 0.0
    write_io_s: float = 0.0
    cpu_s: float = 0.0
    stats: IoStats = field(default_factory=IoStats)

    @property
    def total_s(self) -> float:
        return (
            self.sequential_io_s
            + self.skip_io_s
            + self.random_io_s
            + self.write_io_s
            + self.cpu_s
        )

    def __str__(self) -> str:
        return (
            f"{self.total_s:.3f}s "
            f"(seq {self.sequential_io_s:.3f}, skip {self.skip_io_s:.3f}, "
            f"rnd {self.random_io_s:.3f}, wr {self.write_io_s:.3f}, "
            f"cpu {self.cpu_s:.3f})"
        )
