"""The traced run (``--trace 1``): per-layer numbers for one workload.

  set-up x1 with the probes on -> verify -> warm-up -> untraced and
  traced passes in turn -> the workload's extra measurements

Everything is measured from out here, around calls into public
functions (:mod:`perf.probes`).  ``*_ms_per_op`` is the summed time of
the named callable(s) over the traced window divided by the reads in it;
``*_self_ms_per_op`` subtracts what the callable's own child spans
cover.  A layer the workload never crosses reads 0; a metric whose probe
target is gone, or that belongs to another workload, reads ``None``.
"""

from __future__ import annotations

import gc
import json
import os
import time
from collections import defaultdict

from repro import Catalog, Session
from repro.obs import Tracer
from repro.query import procpool
from repro.shard.state_serde import state_to_wire

from perf import OUT
from perf.metrics import PER_LAYER, median
from perf.ops import TABLE
from perf.probes import PROBES
from perf.runner import MIN_PASSES, PassStats, Run
from perf.trace import OP_LAYER, Recorder, Span, self_times, write_jsonl

# public names of the probed callables, as the tables below use them
_GENERATE = ("repro.tpcd.dbgen.generate_tables", "repro.tpcd.distributions.physical_order")
_LOAD = ("repro.tpcd.loader.load_table",)
_BUILD = ("repro.core.builder.build_sma_set",)
_SHARD_INIT = ("repro.shard.partitioner.shard_init",)
_LAUNCH = ("repro.shard.router.launch_local_shards",)
_SERVICE = ("repro.server.service.QueryService.execute",)
_SESSION_SQL = ("repro.query.session.Session.sql",)
_SESSION = _SESSION_SQL + (
    "repro.query.session.Session.execute",
    "repro.query.session.Session.execute_partial",
)
_PARSE = ("repro.sql.parser.parse_statement",)
_PLAN = ("repro.query.planner.Planner.plan",)
_PARTITION = ("repro.core.sma_set.SmaSet.partition",)
_SMA_READ = (
    "repro.core.sma_file.SmaFile.values",
    "repro.core.sma_file.SmaFile.valid_mask",
    "repro.core.sma_file.SmaFile.read_range",
)
_FOLD = ("repro.query.sma_gaggr.SmaGAggr.collect_state",)
_GAGGR = ("repro.query.gaggr.GAggr.collect_state",)
_ROWS = ("repro.query.iterators.Operator.rows",)
_READ_BUCKET = ("repro.storage.heapfile.HeapFile.read_bucket",)
_READ_PAGE = ("repro.storage.buffer.BufferPool.read_page",)
_EVALUATE = ("repro.lang.predicate.Predicate.evaluate",)
_CONSUME = ("repro.query.aggregation.AggregationState.consume_batch",)
_MERGE = ("repro.query.aggregation.AggregationState.merge",)
_FINALIZE = ("repro.query.aggregation.AggregationState.finalize",)
_APPLY_DML = ("repro.core.ingest.apply_dml",)
_MAINTAIN = ("repro.core.maintenance.SmaMaintainer.insert",)
_INTENT = ("repro.storage.intents.write_intent", "repro.storage.intents.retire_intent")
_REQUEST = ("repro.shard.router.ShardClient.request",)
_RECV = ("repro.shard.protocol.recv_message",)
_FROM_WIRE = ("repro.shard.state_serde.state_from_wire",)
_OP_READ = (f"{OP_LAYER}.read",)

STRATEGIES = ("sma_gaggr", "gaggr", "sma_scan", "seq_scan", "scatter_gather")


class SpanTable:
    """Sums over the spans of one traced window, by probe and kind."""

    def __init__(self, spans: list[Span], op_kinds: dict[int, str], missing: list[str]):
        self.missing = set(missing)
        self.known = {probe.name for probe in PROBES} | set(_OP_READ)
        selfs = self_times(spans)
        self._total: dict[tuple[str, str], float] = defaultdict(float)
        self._self: dict[tuple[str, str], float] = defaultdict(float)
        self._each: dict[tuple[str, str], list[float]] = defaultdict(list)
        for span in spans:
            key = (span.name, op_kinds.get(span.op, "setup"))
            self._total[key] += span.duration
            self._self[key] += selfs[span.id]
            self._each[key].append(span.duration)

    def _known(self, names: tuple[str, ...]) -> bool:
        """False when a probe behind *names* found no target; a name the
        probe table does not have is a typo here, not a zero."""
        unknown = set(names) - self.known
        if unknown:
            raise KeyError(f"no such probe: {sorted(unknown)}")
        return not self.missing.intersection(names)

    def total(self, names: tuple[str, ...], kind: str = "read") -> float | None:
        if not self._known(names):
            return None
        return sum(self._total[name, kind] for name in names)

    def self_total(self, names: tuple[str, ...], kind: str = "read") -> float | None:
        if not self._known(names):
            return None
        return sum(self._self[name, kind] for name in names)

    def each(self, names: tuple[str, ...], kind: str) -> list[float] | None:
        if not self._known(names):
            return None
        return [d for name in names for d in self._each[name, kind]]


def _per(value: float | None, count: int, factor: float = 1e3) -> float | None:
    return None if value is None else factor * value / max(1, count)


def _p50_ms(values: list[float] | None) -> float | None:
    if values is None:
        return None
    return 1e3 * median(values) if values else 0.0


def _op_ms(passes: list[PassStats]) -> float:
    """Median over passes of the per-pass median read latency."""
    return 1e3 * median(median(s.latencies) for s in passes if s.latencies)


def per_layer(run: Run, directory: str, seconds: float) -> tuple[dict, dict]:
    workload = run.workload
    recorder = Recorder(PROBES)

    def traced(function):
        recorder.install()
        run.recorder = recorder
        try:
            return function()
        finally:
            run.recorder = None
            recorder.uninstall()

    traced(lambda: run.setup(directory, 1))
    setup_spans = recorder.spans()
    recorder.clear()
    setup = SpanTable(setup_spans, {}, recorder.missing)

    run.verify()
    run.checked_pass()  # warm-up
    gc.collect()
    gc.freeze()
    # untraced and traced passes alternate, so a burst of neighbour noise
    # lands on both sides of the overhead ratio
    plain: list[PassStats] = []
    window: list[PassStats] = []
    decode_before = _decode_stats(workload)
    deadline = time.perf_counter() + 2 * seconds / 3
    with run.writing() as writer:
        while len(window) < MIN_PASSES or time.perf_counter() < deadline:
            plain.append(run.checked_pass())
            window.append(traced(run.checked_pass))
    decode_after = _decode_stats(workload)
    spans = recorder.spans()
    recorder.clear()
    os.makedirs(OUT, exist_ok=True)
    write_jsonl(setup_spans + spans, os.path.join(OUT, f"trace_{workload.name}.jsonl"))

    table = SpanTable(spans, recorder.op_kinds, recorder.missing)
    summaries = [s for stats in window for s in stats.summaries]
    reads = len(summaries)
    writes = sum(kind == "write" for kind in recorder.op_kinds.values())
    io = defaultdict(int)
    for _, _, stats, _ in summaries:
        for counter, value in stats.as_dict().items():
            io[counter] += value
    strategies = defaultdict(int)
    for _, strategy, _, _ in window[0].summaries:
        family = strategy.split("[")[0]
        strategies[family] += 1
    qualifying = [
        q for op, _, _, q in summaries if op.kind == "q1" and q is not None
    ]
    decode_hits = decode_after[0] - decode_before[0]
    decode_lookups = decode_hits + decode_after[1] - decode_before[1]

    plain_ms, traced_ms = _op_ms(plain), _op_ms(window)
    gather_self = table.self_total(_OP_READ + _REQUEST)
    m: dict[str, float | None] = {
        "tpcd.dbgen.generate_s": setup.total(_GENERATE, "setup"),
        "storage.heapfile.load_s": setup.total(_LOAD, "setup"),
        "core.builder.build_s": setup.total(_BUILD, "setup"),
        "shard.partitioner.init_s": setup.total(_SHARD_INIT, "setup"),
        "shard.router.launch_s": setup.total(_LAUNCH, "setup"),
        "sql.parser.parse_ms_per_op": _per(table.total(_PARSE), reads),
        "query.planner.plan_self_ms_per_op": _per(table.self_total(_PLAN), reads),
        "core.grade.partition_ms_per_op": _per(table.total(_PARTITION), reads),
        "core.sma_file.read_ms_per_op": _per(table.total(_SMA_READ), reads),
        "core.sma_file.entries_read_per_op": io["sma_entries_read"] / max(1, reads),
        "query.sma_gaggr.fold_self_ms_per_op": _per(table.self_total(_FOLD), reads),
        "query.sma_gaggr.qualifying_frac": (
            sum(qualifying) / len(qualifying) if qualifying else None
        ),
        "query.gaggr.scan_self_ms_per_op": _per(table.self_total(_GAGGR), reads),
        "query.aggregation.finalize_ms_per_op": _per(table.total(_FINALIZE), reads),
        "query.aggregation.consume_ms_per_op": _per(table.total(_CONSUME), reads),
        "query.aggregation.merge_ms_per_op": _per(table.total(_MERGE), reads),
        "storage.heapfile.read_bucket_self_ms_per_op": _per(
            table.self_total(_READ_BUCKET), reads
        ),
        "storage.heapfile.decode_hit_rate": (
            decode_hits / decode_lookups if decode_lookups else 0.0
        ),
        "storage.buffer.read_page_self_ms_per_op": _per(
            table.self_total(_READ_PAGE), reads
        ),
        "storage.buffer.hit_rate": (
            io["buffer_hits"] / io["page_accesses"] if io["page_accesses"] else 0.0
        ),
        "storage.buffer.page_reads_per_op": io["page_reads"] / max(1, reads),
        "lang.predicate.evaluate_ms_per_op": _per(table.self_total(_EVALUATE), reads),
        "query.iterators.rows_ms_per_op": _per(table.total(_ROWS), reads),
        "query.iterators.tuples_built_per_op": io["tuples_built"] / max(1, reads),
        "server.service.overhead_ms_per_op": _per(
            _minus(table.total(_SERVICE), table.total(_SESSION_SQL)),
            reads,
        ),
        "core.ingest.apply_dml_ms_p50": _p50_ms(table.each(_APPLY_DML, "write")),
        "core.maintenance.insert_ms_per_write": _per(
            table.total(_MAINTAIN, "write"), writes
        ),
        "storage.intents.intent_ms_per_write": _per(table.total(_INTENT, "write"), writes),
        "shard.state_serde.from_wire_ms_per_op": _per(table.total(_FROM_WIRE), reads),
        "shard.router.leg_wait_ms_per_op": _per(table.total(_RECV), reads),
        "shard.router.gather_self_ms_per_op": _per(gather_self, reads),
        "query.session.unattributed_ms_per_op": _per(table.self_total(_SESSION), reads),
        "perf.trace.traced_ms_per_op": traced_ms,
        "perf.trace.overhead_frac": traced_ms / plain_ms - 1.0,
        "perf.trace.probes_missing": float(len(recorder.missing)),
    }
    for family in STRATEGIES:
        m[f"query.planner.strategy_counts.{family}"] = float(strategies[family])
    if writer is not None:
        m["write_latency_p50_ms"] = _p50_ms(writer.latencies)
        m["perf.load.writer_lateness_ms_p50"] = _p50_ms(writer.lateness)
        m["storage.buffer.page_writes_per_write"] = sum(writer.page_writes) / max(
            1, len(writer.page_writes)
        )
    m.update(_EXTRAS[workload.name](run, plain_ms, directory))
    run.settle_check()
    metrics = {metric.name: m.get(metric.name) for metric in PER_LAYER}
    details = {
        "reads_traced": reads,
        "writes_traced": writes,
        "spans": len(spans),
        "untraced_ms_per_op": plain_ms,
        "probes_missing": sorted(recorder.missing),
    }
    return metrics, details


def _minus(a: float | None, b: float | None) -> float | None:
    return None if a is None or b is None else a - b


def _decode_stats(workload) -> tuple[int, int]:
    if workload.catalog is None:
        return 0, 0
    return workload.catalog.table(TABLE).decode_cache_stats


# ----------------------------------------------------------------------
# per-workload extras (all untraced)
# ----------------------------------------------------------------------


def _extras_qualifying(run: Run, plain_ms: float, _directory: str) -> dict:
    session = Session(run.workload.catalog)
    query = run.ops[0].query()
    cold = []
    for _ in range(5):
        started = time.perf_counter()
        result = session.execute(query, cold=True)
        cold.append(time.perf_counter() - started)
        run.tally.attempted += 1
        run.check(run.ops[0], result)
    # the program's own tracer on against off, passes interleaved so a
    # burst of neighbour noise lands on both sides
    instrumented = Session(run.workload.catalog, tracer=Tracer())
    on, off = [], []
    for _ in range(3):
        off.append(run.checked_pass())
        on.append(run.checked_pass(instrumented))
    return {
        "storage.buffer.cold_q1_ms": 1e3 * median(cold),
        "obs.trace.tracer_overhead_frac": _op_ms(on) / _op_ms(off) - 1.0,
    }


def _extras_unclustered(run: Run, _plain_ms: float, _directory: str) -> dict:
    """One forced full scan per scan backend at two workers — a guard on
    the two backends, not a target."""
    catalog = run.workload.catalog
    op = run.ops[0]
    walls = {}
    try:
        for backend in ("thread", "process"):
            session = Session(catalog, scan_workers=2, scan_backend=backend)
            started = time.perf_counter()
            result = session.execute(op.query(), mode="scan")
            walls[backend] = time.perf_counter() - started
            run.tally.attempted += 1
            run.check(op, result)
        fallbacks = procpool.pool_gauges()["fallbacks"]
    finally:
        procpool.dispose_pools(catalog.root_dir)
    return {
        "query.parallel.scan_sw2_thread_ms": 1e3 * walls["thread"],
        "query.procpool.scan_sw2_process_ms": 1e3 * walls["process"],
        "query.procpool.fallbacks": float(fallbacks),
    }


def _extras_serve(run: Run, with_writer_ms: float, _directory: str) -> dict:
    workload = run.workload
    queue_wait = workload.client.metrics.snapshot()["queue_wait_s"]
    quiet = [run.checked_pass() for _ in range(3)]  # the writer is off now
    cached = workload.open_client(result_cache=True)
    try:
        run.checked_pass(cached)  # fills the cache
        hits = [run.checked_pass(cached) for _ in range(2)]
        cache = cached.result_cache.snapshot()
    finally:
        workload.close_client(cached)
    return {
        "server.executor.queue_wait_ms_p50": 1e3 * queue_wait.get("p50_s", 0.0),
        "core.ingest.read_slowdown_under_ingest": with_writer_ms / _op_ms(quiet),
        "query.cache.hit_rate": cache["hit_rate"],
        "query.cache.hit_ms_p50": _op_ms(hits),
    }


def _extras_shard(run: Run, _plain_ms: float, directory: str) -> dict:
    """Worker-side serde cannot be wrapped from outside the worker
    process, so the same partial is rebuilt in-process from shard 0's
    catalog and serialized here."""
    shard0 = os.path.join(directory, "setup0", "sharded", "shard-0000")
    to_wire, sizes = [], []
    with Catalog.discover(shard0, buffer_pages=run.workload.buffer_pages) as catalog:
        session = Session(catalog)
        for op in (op for op in run.ops if op.kind == "q1"):
            partial = session.execute_partial(op.query())
            started = time.perf_counter()
            payload = json.dumps(state_to_wire(partial.state), separators=(",", ":"))
            to_wire.append(time.perf_counter() - started)
            sizes.append(len(payload))
    return {
        "shard.state_serde.to_wire_ms_per_q1": 1e3 * sum(to_wire) / len(to_wire),
        "shard.state_serde.state_bytes_per_q1": sum(sizes) / len(sizes),
    }


_EXTRAS = {
    "q1_qualifying": _extras_qualifying,
    "q1_unclustered": _extras_unclustered,
    "serve_rw": _extras_serve,
    "shard2_q1": _extras_shard,
}
