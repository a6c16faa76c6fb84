"""The metric catalogue: names, units, direction and regression bounds.

``BENCHMARK.json`` at the repo root lists the same names (a self-test
holds the two together).  Bounds are the share of the base median by
which a metric may get worse before a change counts as a regression.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str  # "lower" | "higher"
    bound: float | None = None  # end-to-end metrics only


END_TO_END: tuple[Metric, ...] = (
    # generate + load + SMA build (+ shard init, worker launch, service
    # start) until the first operation can be sent; median of 3 set-ups
    Metric("setup_s", "s", "lower", 0.25),
    # correct reads per second of pass wall time; fastest pass
    Metric("throughput_ops_s", "ops/s", "higher", 0.25),
    # client-side wall per read; median within a pass, fastest pass
    Metric("latency_p50_ms", "ms", "lower", 0.25),
    # p90 of the read latencies of the fastest fifth of the passes, pooled
    Metric("latency_p90_ms", "ms", "lower", 0.25),
    # process CPU (user+sys, this process and its workers) per read;
    # cheapest pass
    Metric("cpu_ms_per_op", "ms", "lower", 0.25),
    # Python call + c_call events per read in the counted pass, all
    # threads of this process
    Metric("py_calls_per_op", "count", "lower", 0.02),
    # mean QueryResult.simulated_seconds in the counted pass: the paper's
    # clock, a pure function of the I/O counters
    Metric("sim1998_s_per_op", "sim_s", "lower", 0.02),
    # bytes of all SMA-files / bytes of the heap, after the run
    Metric("sma_space_frac", "fraction", "lower", 0.02),
    # ru_maxrss of this process plus the largest of its workers
    Metric("peak_rss_mb", "MB", "lower", 0.10),
)

#: exact functions of (code, seed) on the workloads that declare
#: ``exact_counts``: there they may not differ at all between two runs
COUNT_METRICS = ("py_calls_per_op", "sim1998_s_per_op", "sma_space_frac")

PER_LAYER: tuple[Metric, ...] = (
    Metric("tpcd.dbgen.generate_s", "s", "lower"),
    Metric("storage.heapfile.load_s", "s", "lower"),
    Metric("core.builder.build_s", "s", "lower"),
    Metric("shard.partitioner.init_s", "s", "lower"),
    Metric("shard.router.launch_s", "s", "lower"),
    Metric("sql.parser.parse_ms_per_op", "ms", "lower"),
    Metric("query.planner.plan_self_ms_per_op", "ms", "lower"),
    Metric("core.grade.partition_ms_per_op", "ms", "lower"),
    Metric("core.sma_file.read_ms_per_op", "ms", "lower"),
    Metric("core.sma_file.entries_read_per_op", "count", "lower"),
    Metric("query.sma_gaggr.fold_self_ms_per_op", "ms", "lower"),
    Metric("query.sma_gaggr.qualifying_frac", "fraction", "higher"),
    Metric("query.gaggr.scan_self_ms_per_op", "ms", "lower"),
    Metric("query.planner.strategy_counts.sma_gaggr", "count", "higher"),
    Metric("query.planner.strategy_counts.gaggr", "count", "higher"),
    Metric("query.planner.strategy_counts.sma_scan", "count", "higher"),
    Metric("query.planner.strategy_counts.seq_scan", "count", "higher"),
    Metric("query.planner.strategy_counts.scatter_gather", "count", "higher"),
    Metric("query.aggregation.finalize_ms_per_op", "ms", "lower"),
    Metric("query.aggregation.consume_ms_per_op", "ms", "lower"),
    Metric("query.aggregation.merge_ms_per_op", "ms", "lower"),
    Metric("storage.heapfile.read_bucket_self_ms_per_op", "ms", "lower"),
    Metric("storage.heapfile.decode_hit_rate", "fraction", "higher"),
    Metric("storage.buffer.read_page_self_ms_per_op", "ms", "lower"),
    Metric("storage.buffer.hit_rate", "fraction", "higher"),
    Metric("storage.buffer.page_reads_per_op", "count", "lower"),
    Metric("storage.buffer.cold_q1_ms", "ms", "lower"),
    Metric("lang.predicate.evaluate_ms_per_op", "ms", "lower"),
    Metric("query.iterators.rows_ms_per_op", "ms", "lower"),
    Metric("query.iterators.tuples_built_per_op", "count", "lower"),
    Metric("query.parallel.scan_sw2_thread_ms", "ms", "lower"),
    Metric("query.procpool.scan_sw2_process_ms", "ms", "lower"),
    Metric("query.procpool.fallbacks", "count", "lower"),
    Metric("server.executor.queue_wait_ms_p50", "ms", "lower"),
    Metric("server.service.overhead_ms_per_op", "ms", "lower"),
    Metric("write_latency_p50_ms", "ms", "lower"),
    Metric("core.ingest.apply_dml_ms_p50", "ms", "lower"),
    Metric("core.maintenance.insert_ms_per_write", "ms", "lower"),
    Metric("storage.intents.intent_ms_per_write", "ms", "lower"),
    Metric("storage.buffer.page_writes_per_write", "count", "lower"),
    Metric("core.ingest.read_slowdown_under_ingest", "ratio", "lower"),
    Metric("perf.load.writer_lateness_ms_p50", "ms", "lower"),
    Metric("shard.state_serde.to_wire_ms_per_q1", "ms", "lower"),
    Metric("shard.state_serde.from_wire_ms_per_op", "ms", "lower"),
    Metric("shard.state_serde.state_bytes_per_q1", "count", "lower"),
    Metric("shard.router.leg_wait_ms_per_op", "ms", "lower"),
    Metric("shard.router.gather_self_ms_per_op", "ms", "lower"),
    Metric("query.cache.hit_rate", "fraction", "higher"),
    Metric("query.cache.hit_ms_p50", "ms", "lower"),
    Metric("obs.trace.tracer_overhead_frac", "fraction", "lower"),
    Metric("query.session.unattributed_ms_per_op", "ms", "lower"),
    Metric("perf.trace.traced_ms_per_op", "ms", "lower"),
    Metric("perf.trace.overhead_frac", "fraction", "lower"),
    Metric("perf.trace.probes_missing", "count", "lower"),
)


def median(values) -> float:
    return float(statistics.median(values))


def percentile(values, q: float) -> float:
    """Nearest-rank percentile of a non-empty sample."""
    ordered = sorted(values)
    rank = max(0, min(len(ordered) - 1, round(q * (len(ordered) - 1))))
    return float(ordered[rank])


def spread(values) -> float:
    """Inter-quartile distance as a share of the median (the driver's
    steadiness measure); 0 for fewer than two values."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return abs(q3 - q1) / abs(mid) if mid else 0.0
