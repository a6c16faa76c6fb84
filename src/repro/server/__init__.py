"""Concurrent query service over one shared catalog.

The serving layer of the reproduction: a thread-safe buffer pool (in
:mod:`repro.storage.buffer`) under an admission-controlled worker pool,
with per-query I/O isolation, cooperative timeout/cancellation and a
metrics registry.  See README.md § "Concurrent query service".

:mod:`repro.server.pipeline` holds the one serving pipeline (admit →
cache → execute → observe); :class:`QueryService` is its local-session
backend and :class:`repro.shard.ShardRouter` its scatter-gather backend.

Quickstart::

    from repro import Catalog
    from repro.server import QueryService, WorkloadDriver, default_mix

    catalog = Catalog.discover("./db")
    with QueryService(catalog, workers=4, queue_depth=32) as service:
        driver = WorkloadDriver(service, default_mix())
        result = driver.run_closed_loop(clients=8, queries_per_client=8)
        print(result.throughput_qps)
"""

from repro.errors import (
    QueryCancelledError,
    QueryTimeoutError,
    ServerError,
    ServerOverloadedError,
    ServerShutdownError,
)
from repro.server.executor import (
    QueryExecutor,
    QueryTicket,
    TicketState,
)
from repro.server.metrics import (
    DEFAULT_AMBIVALENT_BREAK_EVEN,
    FixedHistogram,
    GradingGauges,
    LatencyRecorder,
    MetricsRegistry,
)
from repro.server.report import render_metrics, render_workload
from repro.server.pipeline import QueryJob, ServingPipeline
from repro.server.service import QueryService
from repro.server.workload import (
    WorkloadDriver,
    WorkloadOutcome,
    WorkloadQuery,
    WorkloadResult,
    default_mix,
    expand_mix,
)

__all__ = [
    "DEFAULT_AMBIVALENT_BREAK_EVEN",
    "FixedHistogram",
    "GradingGauges",
    "LatencyRecorder",
    "MetricsRegistry",
    "QueryCancelledError",
    "QueryExecutor",
    "QueryJob",
    "QueryService",
    "QueryTicket",
    "QueryTimeoutError",
    "ServerError",
    "ServerOverloadedError",
    "ServerShutdownError",
    "ServingPipeline",
    "TicketState",
    "WorkloadDriver",
    "WorkloadOutcome",
    "WorkloadQuery",
    "WorkloadResult",
    "default_mix",
    "expand_mix",
    "render_metrics",
    "render_workload",
]
