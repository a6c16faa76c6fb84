"""One workload, one process: set up, verify, warm up, measure.

Phases of a run (``--trace 0``, the end-to-end numbers):

  set-up x3 (timed) -> verify every distinct operation -> warm-up pass
  -> counted pass (call and I/O counts) -> timed window of whole passes

The counted pass sits *before* the window so that it always runs at the
same point of the same sequence of operations: its counts are then exact
functions of (code, seed) however many passes the window fits in.

``--trace 1`` replaces the window with the layer-probe run in
:mod:`perf.layers`.  The load is generated from this process: one
closed-loop reader (the next operation is sent when the previous one
returns), plus on ``serve_rw`` one open-loop paced writer thread.
"""

from __future__ import annotations

import gc
import glob
import itertools
import os
import resource
import shutil
import sys
import tempfile
import threading
import time
import traceback
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from multiprocessing import resource_tracker

from repro import Session
from repro.query.session import assert_same_result

from perf import OUT
from perf.metrics import median, percentile
from perf.ops import TABLE, Insert, insert_batch, read_ops
from perf.oracle import Oracle, rows_match
from perf.workloads import WORKLOADS, Workload

SETUP_REPEATS = 3
MIN_PASSES = 3
_CLOCK_TICK = os.sysconf("SC_CLK_TCK")


class Tally:
    """Operations attempted and failed over the whole run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def fail(self, note: str) -> None:
        self.failed += 1
        if len(self.notes) < 20:
            self.notes.append(note)


@dataclass
class PassStats:
    wall: float
    cpu: float
    latencies: list[float]  # of the reads that returned a result
    #: (op, strategy, IoStats, fraction of buckets qualifying) per such read
    summaries: list[tuple]


def cpu_seconds(pids: list[int]) -> float:
    """User + system CPU of this process, its reaped children and the
    live worker processes *pids* (read from /proc)."""
    total = time.process_time() + sum(os.times()[2:4])
    for pid in pids:
        try:
            with open(f"/proc/{pid}/stat", encoding="ascii") as stat:
                fields = stat.read().rpartition(")")[2].split()
        except OSError:
            continue
        total += (int(fields[11]) + int(fields[12])) / _CLOCK_TICK
    return total


def live_children() -> list[int]:
    pids: list[int] = []
    for path in glob.glob("/proc/self/task/*/children"):
        try:
            with open(path, encoding="ascii") as children:
                pids.extend(int(pid) for pid in children.read().split())
        except OSError:
            pass
    return pids


def stop_process_pools() -> list[int]:
    """Dispose the engine's scan-worker pools, then multiprocessing's
    resource tracker (which a spawn-context pool leaves running until
    interpreter exit), waiting for each; returns the children still alive."""
    from repro.query import procpool

    procpool.shutdown_pools()
    tracker = resource_tracker._resource_tracker
    tracker_pid = getattr(tracker, "_pid", None)

    def others() -> list[int]:
        return [pid for pid in live_children() if pid != tracker_pid]

    deadline = time.monotonic() + 10.0
    while others() and time.monotonic() < deadline:  # disposed workers exit on their own
        time.sleep(0.05)
    if tracker_pid is not None and not others():
        gc.collect()  # drop the pools' semaphores before their tracker goes
        tracker._stop()
    return live_children()


def count_calls(function):
    """Run *function* counting ``call`` + ``c_call`` events on this thread
    and on every thread started meanwhile; returns (result, count)."""
    counter = itertools.count()

    def hook(_frame, event, _arg):
        if event == "call" or event == "c_call":
            next(counter)  # atomic under the GIL, unlike ``n += 1``

    threading.setprofile(hook)
    sys.setprofile(hook)
    try:
        result = function()
    finally:
        sys.setprofile(None)
        threading.setprofile(None)
    return result, next(counter)


class Writer(threading.Thread):
    """Open-loop paced INSERT writer: batch *n* is due at ``t0 + n/rate``
    whether or not the previous one has finished being late."""

    def __init__(self, run: "Run", rate: float):
        super().__init__(name="perf-writer", daemon=True)
        self.owner = run
        self.rate = rate
        self.halt = threading.Event()
        self.latencies: list[float] = []
        self.lateness: list[float] = []
        self.page_writes: list[int] = []

    def run(self) -> None:
        run = self.owner
        origin = time.perf_counter()
        for number in itertools.count():
            batch = run.next_batch()
            due = origin + number / self.rate
            delay = due - time.perf_counter()
            if self.halt.wait(max(0.0, delay)):
                run.unsend()
                return
            started = time.perf_counter()
            result = run.send("write", batch)
            done = time.perf_counter()
            if result is not None:
                self.lateness.append(started - due)
                self.latencies.append(done - due)
                self.page_writes.append(result.stats.page_writes)

    def stop(self) -> None:
        self.halt.set()
        self.join()


class Run:
    """State of one workload run, shared by the phases."""

    def __init__(self, workload: Workload, seed: int):
        self.workload = workload
        self.seed = seed
        self.recorder = None  # a perf.trace.Recorder while probes are installed
        self.tally = Tally()
        self.ops = read_ops(workload.name, seed)  # the distinct operations
        self.pass_ops = self.ops * workload.rounds
        self.oracle: Oracle | None = None
        self.expected: dict = {}
        self.epoch0 = 0
        self._batches_sent = 0
        self.writes_on = workload.write_rate > 0

    # -- sending --------------------------------------------------------

    def send(self, kind: str, op, client=None):
        """Send one operation; a raised error is a failed operation."""
        self.tally.attempted += 1
        span = self.recorder.operation(kind) if self.recorder else nullcontext()
        try:
            with span:
                return self.workload.send(client or self.workload.client, op)
        except Exception:  # noqa: BLE001 - the benchmark must keep running
            self.tally.fail(f"{kind} raised: {traceback.format_exc(limit=3)}")
            return None

    def next_batch(self) -> Insert:
        batch = insert_batch(self.seed, self._batches_sent)
        # known to the oracle before it is sent: a read may see the batch
        # the moment it lands
        self.oracle.batches.append(batch.records)
        self._batches_sent += 1
        batch.sql()  # rendered ahead of the due time, not inside the latency
        return batch

    def unsend(self) -> None:
        """Take back the batch ``next_batch`` prepared but never sent."""
        self.oracle.batches.pop()
        self._batches_sent -= 1

    def check(self, op, result) -> None:
        """Count a wrong result as a failed operation."""
        if self.writes_on:
            applied = (result.epoch or self.epoch0) - self.epoch0
            ok = rows_match(result.rows, self.oracle.rows(op, applied))
        else:
            ok = repr(result.rows) == repr(self.expected[op])
        if not ok:
            self.tally.fail(f"wrong result for {op}")

    # -- phases ---------------------------------------------------------

    def setup(self, directory: str, repeats: int) -> list[float]:
        times = []
        for number in range(repeats):
            self.workload.teardown()
            target = os.path.join(directory, f"setup{number}")
            started = time.perf_counter()
            self.workload.setup(target)
            times.append(time.perf_counter() - started)
            if number:
                shutil.rmtree(os.path.join(directory, f"setup{number - 1}"))
        self.oracle = Oracle(self.workload.scale_factor, self.workload.clustering)
        catalog = self.workload.reference_catalog()
        self.epoch0 = catalog.ingest_epoch(TABLE)
        return times

    def verify(self) -> None:
        """Every distinct operation against the oracle *and* bit-identical
        to a serial single-node forced scan."""
        reference = Session(self.workload.reference_catalog())
        for op in self.ops:
            scan = reference.execute(op.query(), mode="scan")
            self.expected[op] = scan.rows
            result = self.send("read", op)
            if result is None:
                continue
            if not rows_match(result.rows, self.oracle.rows(op)):
                self.tally.fail(f"oracle mismatch for {op}")
                continue
            try:
                assert_same_result(result, scan)
            except AssertionError as exc:
                self.tally.fail(f"not bit-identical to the scan for {op}: {exc}")

    def checked_pass(self, client=None) -> PassStats:
        """Send every operation of a pass, then check every result —
        after the pass, outside its wall and CPU time."""
        pids = self.workload.child_pids()
        results = []
        latencies = []
        cpu = cpu_seconds(pids)
        started = time.perf_counter()
        for op in self.pass_ops:
            sent = time.perf_counter()
            result = self.send("read", op, client)
            if result is not None:
                latencies.append(time.perf_counter() - sent)
                results.append((op, result))
        wall = time.perf_counter() - started
        cpu = cpu_seconds(pids) - cpu
        summaries = []
        for op, result in results:
            self.check(op, result)
            plan = result.plan
            summaries.append((op, plan.strategy, result.stats, plan.fraction_qualifying))
        return PassStats(wall, cpu, latencies, summaries)

    def window(self, seconds: float) -> list[PassStats]:
        """Whole passes until *seconds* have gone by (results are checked
        between passes, outside every pass's wall time)."""
        passes = []
        deadline = time.perf_counter() + seconds
        while len(passes) < MIN_PASSES or time.perf_counter() < deadline:
            passes.append(self.checked_pass())
        return passes

    @contextmanager
    def writing(self):
        """The paced writer running beside whatever the body does; yields
        it, or None on a read-only workload."""
        if not self.writes_on:
            yield None
            return
        writer = Writer(self, self.workload.write_rate)
        writer.start()
        try:
            yield writer
        finally:
            writer.stop()

    def counted_pass(self) -> tuple[float, float]:
        """(calls per operation, simulated seconds per operation) over one
        pass, through a front end started under the counter so its worker
        threads are counted too.  The writer is off."""
        ops = self.ops

        def body() -> list:
            client = self.workload.open_client()
            try:
                return [(op, self.send("read", op, client)) for op in ops]
            finally:
                self.workload.close_client(client)

        results, calls = count_calls(body)
        good = [(op, result) for op, result in results if result is not None]
        for op, result in good:
            self.check(op, result)
        simulated = sum(result.simulated_seconds for _, result in good)
        return calls / len(ops), simulated / max(1, len(good))

    def settle_check(self) -> None:
        """After ingest: the SMA answer over everything that was written
        still equals a forced scan, bit for bit, and the oracle."""
        if not self.writes_on:
            return
        session = Session(self.workload.reference_catalog())
        op = max(
            (op for op in self.ops if op.kind == "q1"), key=lambda op: op.cutoff
        )
        self.tally.attempted += 1
        via_sma = session.execute(op.query(), mode="sma")
        via_scan = session.execute(op.query(), mode="scan")
        try:
            assert_same_result(via_sma, via_scan)
        except AssertionError as exc:
            self.tally.fail(f"SMA/scan divergence after ingest: {exc}")
            return
        if not rows_match(via_sma.rows, self.oracle.rows(op, self._batches_sent)):
            self.tally.fail("row set after ingest differs from the oracle")


def end_to_end(run: Run, setups: list[float], seconds: float) -> tuple[dict, dict]:
    """The ``--trace 0`` phases; returns (metrics, details)."""
    marks = [time.perf_counter()]

    def phase(function):
        result = function()
        marks.append(time.perf_counter())
        return result

    phase(run.verify)
    phase(run.checked_pass)  # warm-up
    calls_per_op, sim_per_op = phase(run.counted_pass)
    gc.collect()
    gc.freeze()
    with run.writing() as writer:
        passes = phase(lambda: run.window(seconds))
    phase(run.settle_check)
    good = [stats for stats in passes if stats.latencies]
    if not good:
        raise RuntimeError(f"no read succeeded: {run.tally.notes[:1]}")
    # Neighbours on this shared box only ever slow a pass down, in bursts
    # that can cover most of a run (per-pass p50 of 40 ms and 70 ms seen
    # side by side in one window), so the across-pass statistic is the
    # undisturbed end: the fastest pass for throughput, p50 and CPU, the
    # fastest fifth of the passes pooled for p90 (the faster half still
    # held disturbed passes and spread up to three times as wide).
    # Medians over passes are kept in the details for whoever wants the
    # disturbed view.
    ops_s = [len(s.latencies) / s.wall for s in good]
    p50_ms = [1e3 * median(s.latencies) for s in good]
    cpu_ms = [1e3 * s.cpu / len(s.latencies) for s in good]
    by_speed = sorted(good, key=lambda s: s.wall / len(s.latencies))
    calm = [lat for s in by_speed[: -(-len(good) // 5)] for lat in s.latencies]
    metrics = {
        "setup_s": median(setups),
        "throughput_ops_s": max(ops_s),
        "latency_p50_ms": min(p50_ms),
        "latency_p90_ms": 1e3 * percentile(calm, 0.90),
        "cpu_ms_per_op": min(cpu_ms),
        "py_calls_per_op": calls_per_op,
        "sim1998_s_per_op": sim_per_op,
        "sma_space_frac": run.workload.sma_space_frac(),
    }
    details = {
        "passes": len(passes),
        "latency_samples": sum(len(s.latencies) for s in good),
        "latency_p90_samples": len(calm),
        "setup_s_each": setups,
        "phase_s": dict(zip(
            ("verify", "warm_up", "counted", "window", "settle"),
            (round(b - a, 3) for a, b in zip(marks, marks[1:])),
        )),
        "median_pass_ops_s": median(ops_s),
        "median_pass_p50_ms": median(p50_ms),
        "median_pass_cpu_ms": median(cpu_ms),
        "pass_p50_ms": [round(value, 2) for value in p50_ms],
    }
    if writer is not None and writer.latencies:
        details["writes"] = len(writer.latencies)
        details["write_latency_p50_ms"] = 1e3 * median(writer.latencies)
        details["writer_lateness_ms_p50"] = 1e3 * median(writer.lateness)
    return metrics, details


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its largest reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def run_once(name: str, seed: int, seconds: float, trace: bool, scale: float) -> dict:
    """Run one workload in this process and return its result record."""
    workload = WORKLOADS[name](scale)
    os.makedirs(os.path.join(OUT, "tmp"), exist_ok=True)
    directory = tempfile.mkdtemp(prefix=f"{name}-", dir=os.path.join(OUT, "tmp"))
    run = Run(workload, seed)
    try:
        if trace:
            from perf.layers import per_layer

            metrics, details = per_layer(run, directory, seconds)
        else:
            setups = run.setup(directory, SETUP_REPEATS)
            metrics, details = end_to_end(run, setups, seconds)
    finally:
        workload.teardown()
        survivors = stop_process_pools()
        shutil.rmtree(directory, ignore_errors=True)
    if survivors:
        raise RuntimeError(f"child processes survived the workload: {survivors}")
    if not trace:
        metrics["peak_rss_mb"] = peak_rss_mb()
    return {
        "workload": name,
        "seed": seed,
        "correct": run.tally.failed == 0,
        "attempted": run.tally.attempted,
        "failed": run.tally.failed,
        "metrics": metrics,
        "details": details,
        "notes": run.tally.notes,
    }
