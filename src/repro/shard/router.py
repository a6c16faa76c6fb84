"""Scatter-gather router over a fleet of shard workers.

:class:`ShardRouter` fronts N shard workers with the same
:class:`~repro.server.pipeline.ServingPipeline` that
:class:`~repro.server.service.QueryService` runs on — ``submit`` with
admission control, tickets, a metrics registry, the result cache — so
workload drivers and the serve CLI run unchanged against it; this module
is the pipeline's *scatter-gather* execution backend.  Each admitted
query is scattered to every shard concurrently; the gathered per-shard
partials merge **in shard order**, which (shards own contiguous bucket
ranges in that same order) reconstructs the single-node contribution
order exactly and finalizes to byte-identical results.

Failure policy: a scatter-gathered relation is all-or-nothing.  If any
shard cannot answer — even after
:class:`~repro.storage.faults.RetryPolicy` connection retries — the
whole query fails with a typed error instead of silently returning the
surviving shards' partial relation.
"""

from __future__ import annotations

import os
import re
import socket
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import repro.errors as errors_module
from repro.errors import (
    PlanningError,
    ReproError,
    ShardError,
    ShardProtocolError,
    ShardUnavailableError,
)
from repro.lang.serde import query_to_json
from repro.obs.collect import graft_remote_trace
from repro.obs.events import EventLog
from repro.obs.trace import Span
from repro.query.planner import PlanInfo
from repro.query.query import (
    AggregateQuery,
    DmlStatement,
    ExplainQuery,
    InsertStatement,
    ScanQuery,
)
from repro.query.session import QueryResult, _sort_rows
from repro.server.executor import QueryTicket
from repro.server.metrics import LatencyRecorder, MetricsRegistry
from repro.server.pipeline import QueryJob, ServingPipeline
from repro.shard.manifest import ShardManifest
from repro.shard.protocol import execute_dml_frame, recv_message, send_message
from repro.shard.state_serde import rows_from_wire, state_from_wire, stats_from_wire
from repro.storage.disk import PAPER_DISK, DiskModel
from repro.storage.faults import RetryPolicy


def _map_remote_error(info: dict, shard_id: int) -> ReproError:
    """Rebuild a worker-side error as the matching typed exception."""
    type_name = info.get("type", "ShardError")
    message = f"shard {shard_id}: {info.get('message', 'unknown error')}"
    cls = getattr(errors_module, type_name, None)
    if isinstance(cls, type) and issubclass(cls, ReproError):
        try:
            return cls(message)
        except TypeError:  # pragma: no cover - odd constructor signature
            pass
    return ShardError(message)


@dataclass(frozen=True)
class ShardEndpoint:
    shard_id: int
    host: str
    port: int


class ShardClient:
    """Pooled framed-JSON client for one shard worker.

    Connections are pooled per client; each in-flight request checks one
    out (so concurrent subqueries to the same shard use separate
    sockets).  Connection-level failures — refused connects, resets,
    torn frames — retry under the shard *retry policy*: served queries
    are read-only, so a replay is always safe.  Application-level errors
    from the worker are typed and raise immediately, no retry.
    """

    def __init__(
        self,
        endpoint: ShardEndpoint,
        *,
        retry_policy: RetryPolicy | None = None,
        connect_timeout_s: float = 5.0,
    ):
        self.endpoint = endpoint
        self.retry_policy = retry_policy or RetryPolicy()
        self.connect_timeout_s = connect_timeout_s
        self._idle: list[socket.socket] = []
        self._lock = threading.Lock()
        self._closed = False

    @property
    def shard_id(self) -> int:
        return self.endpoint.shard_id

    def _connect(self) -> socket.socket:
        sock = socket.create_connection(
            (self.endpoint.host, self.endpoint.port),
            timeout=self.connect_timeout_s,
        )
        sock.settimeout(None)  # request latency is bounded worker-side
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        return sock

    def _checkout(self) -> socket.socket:
        with self._lock:
            if self._closed:
                raise ShardError(
                    f"client for shard {self.shard_id} is closed"
                )
            if self._idle:
                return self._idle.pop()
        return self._connect()

    def _checkin(self, sock: socket.socket) -> None:
        with self._lock:
            if not self._closed:
                self._idle.append(sock)
                return
        sock.close()

    def request(self, payload: dict) -> dict:
        """One request/reply round trip with bounded connection retries.

        The reply dict gains an ``attempts`` key (how many tries this
        round trip took) so traced scatters can annotate retries — only
        the final successful reply's stats and spans reach the gather,
        which is what keeps retried I/O from double-counting.
        """
        policy = self.retry_policy
        attempt = 1
        while True:
            sock: socket.socket | None = None
            try:
                sock = self._checkout()
                send_message(sock, payload)
                reply = recv_message(sock)
                if reply is None:
                    raise ShardProtocolError(
                        f"shard {self.shard_id} closed the connection "
                        f"before replying"
                    )
            except (OSError, ShardProtocolError) as exc:
                if sock is not None:
                    sock.close()
                if attempt >= policy.max_attempts:
                    raise ShardUnavailableError(
                        f"shard {self.shard_id} unreachable after "
                        f"{attempt} attempts: {exc}",
                        shard_id=self.shard_id,
                    ) from exc
                time.sleep(policy.backoff_s(attempt))
                attempt += 1
                continue
            self._checkin(sock)
            if not isinstance(reply, dict):
                raise ShardProtocolError(
                    f"shard {self.shard_id} sent a non-object reply"
                )
            if not reply.get("ok", False):
                raise _map_remote_error(
                    reply.get("error", {}), self.shard_id
                )
            reply["attempts"] = attempt
            return reply

    def ping(self) -> dict:
        return self.request({"op": "ping"})

    def close(self) -> None:
        with self._lock:
            self._closed = True
            idle, self._idle = self._idle, []
        for sock in idle:
            sock.close()


class ShardScoreboard:
    """Per-shard liveness/latency plus router fan-out counters."""

    def __init__(self, num_shards: int):
        self._lock = threading.Lock()
        self._up = [True] * num_shards
        self._requests = [0] * num_shards
        self._failures = [0] * num_shards
        self._latency = [LatencyRecorder() for _ in range(num_shards)]
        self.scatter_queries = 0
        self.subqueries_sent = 0
        self.gather_merges = 0

    def record_scatter(self, fan_out: int) -> None:
        with self._lock:
            self.scatter_queries += 1
            self.subqueries_sent += fan_out

    def record_shard_success(self, shard_id: int, latency_s: float) -> None:
        with self._lock:
            self._requests[shard_id] += 1
            self._latency[shard_id].record(latency_s)
            self._up[shard_id] = True

    def record_shard_failure(self, shard_id: int, *, unavailable: bool) -> None:
        with self._lock:
            self._requests[shard_id] += 1
            self._failures[shard_id] += 1
            if unavailable:
                self._up[shard_id] = False

    def record_merge(self) -> None:
        with self._lock:
            self.gather_merges += 1

    def mark_up(self, shard_id: int, up: bool) -> None:
        with self._lock:
            self._up[shard_id] = up

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "fanout": {
                    "scatter_queries": self.scatter_queries,
                    "subqueries_sent": self.subqueries_sent,
                    "gather_merges": self.gather_merges,
                },
                "shards": {
                    str(i): {
                        "up": self._up[i],
                        "requests": self._requests[i],
                        "failures": self._failures[i],
                        "latency_s": self._latency[i].as_dict(),
                    }
                    for i in range(len(self._up))
                },
            }


class ShardRouter(ServingPipeline):
    """Admission-controlled scatter-gather execution over shard workers.

    The same :class:`~repro.server.pipeline.ServingPipeline` that
    :class:`~repro.server.service.QueryService` runs on — ``submit`` /
    ``execute``, tickets, ``.metrics``, ``observed_snapshot()`` — with
    scatter-gather as the execution backend, so
    :class:`~repro.server.workload.WorkloadDriver` and the metrics
    endpoint work unchanged on a sharded deployment.
    """

    _role = "router"

    def __init__(
        self,
        endpoints: list[ShardEndpoint],
        *,
        manifest: ShardManifest | None = None,
        workers: int = 4,
        queue_depth: int = 32,
        default_timeout_s: float | None = None,
        disk_model: DiskModel = PAPER_DISK,
        metrics: MetricsRegistry | None = None,
        events: EventLog | None = None,
        retry_policy: RetryPolicy | None = None,
        tracer=None,
        result_cache: bool = False,
        cache_entries: int = 256,
    ):
        if not endpoints:
            raise ShardError("a router needs at least one shard endpoint")
        # With a tracer, every routed query gets a root span, each
        # scatter leg a ``shard_execute`` child carrying its wire trace
        # context, and the workers' exported span trees are grafted back
        # so one tree covers the whole distributed execution.
        super().__init__(
            workers=workers,
            queue_depth=queue_depth,
            default_timeout_s=default_timeout_s,
            disk_model=disk_model,
            metrics=metrics,
            tracer=tracer,
            events=events,
            result_cache=result_cache,
            cache_entries=cache_entries,
            scan_signature={"shards": len(endpoints)},
            start_info={"shards": len(endpoints)},
        )
        self.manifest = manifest
        self.clients = [
            ShardClient(endpoint, retry_policy=retry_policy)
            for endpoint in sorted(endpoints, key=lambda e: e.shard_id)
        ]
        self.scoreboard = ShardScoreboard(len(self.clients))
        # The result cache is keyed on this merged-epoch clock (advanced
        # on every DML the router itself gathers), so a write through
        # this router moves every affected plan to a fresh key and stale
        # entries age out of the LRU.  Writes bypassing the router are
        # invisible to this clock — same single-writer assumption the
        # shard manifest already makes.
        self._epoch_lock = threading.Lock()
        self._table_epochs: dict[str, int] = {}
        # Sized so every router worker can scatter to every shard at
        # once — a full fan-out never waits on another query's fan-out.
        self._scatter_pool = ThreadPoolExecutor(
            max_workers=max(1, workers * len(self.clients)),
            thread_name_prefix="repro-scatter",
        )

    @property
    def num_shards(self) -> int:
        return len(self.clients)

    def _release(self) -> None:
        self._scatter_pool.shutdown(wait=False)
        for client in self.clients:
            client.close()

    # ------------------------------------------------------------------
    # health & observability
    # ------------------------------------------------------------------

    def health(self) -> dict:
        """Ping every shard; marks the scoreboard and returns the map."""
        out: dict = {}
        for client in self.clients:
            try:
                reply = client.ping()
                self.scoreboard.mark_up(client.shard_id, True)
                out[client.shard_id] = {
                    "up": True,
                    "tables": reply.get("tables", {}),
                }
            except ReproError as exc:
                self.scoreboard.mark_up(client.shard_id, False)
                out[client.shard_id] = {"up": False, "error": str(exc)}
        return out

    def observed_snapshot(self) -> dict:
        snapshot = super().observed_snapshot()
        snapshot["shard"] = self.scoreboard.snapshot()
        return snapshot

    # ------------------------------------------------------------------
    # the scatter-gather execution backend
    # ------------------------------------------------------------------

    def _normalise(self, query):
        """Parse SQL at submit: legs ship logical plans, never text."""
        if not isinstance(query, str):
            return query
        from repro.sql.parser import parse_statement

        statement = parse_statement(query)
        if isinstance(statement, ExplainQuery):
            raise PlanningError(
                "EXPLAIN is served by `repro explain`, not the router"
            )
        if not isinstance(
            statement, (AggregateQuery, ScanQuery, DmlStatement)
        ):
            raise PlanningError(
                "the shard router serves SELECT and DML statements only"
            )
        return statement

    def _execute(self, ticket: QueryTicket, job: QueryJob) -> QueryResult:
        if job.trace is not None:
            job.trace.annotate(shards=self.num_shards)
        if not job.is_dml:
            return self._read(ticket, job, job.query)
        request = execute_dml_frame(
            query_to_json(job.query), timeout_s=self._remaining_s(ticket)
        )
        return self._scatter(job, self._route_dml(job.query), request)

    def _compute(self, ticket: QueryTicket, job: QueryJob, query) -> QueryResult:
        request = {
            "op": "execute",
            "query": query_to_json(query),
            "mode": job.mode,
            "sma_set": job.sma_set,
            "kind": job.kind,
            "timeout_s": self._remaining_s(ticket),
        }
        return self._scatter(job, self.clients, request)

    def _scatter(
        self, job: QueryJob, targets: list[ShardClient], request: dict
    ) -> QueryResult:
        """Send *request* to every target at once; gather in shard order."""
        started = time.perf_counter()
        self.scoreboard.record_scatter(len(targets))
        futures = [
            self._scatter_pool.submit(self._subquery, client, request, job.trace)
            for client in targets
        ]
        replies: list[dict] = []
        first_error: BaseException | None = None
        for future in futures:  # gather in shard order
            try:
                reply, _elapsed = future.result()
                replies.append(reply["result"])
            except BaseException as exc:  # noqa: BLE001 - re-raised below
                if first_error is None:
                    first_error = exc
        if first_error is not None:
            # Partial-result refusal: one failed shard fails the query,
            # and a write that reached some shards but not others is a
            # reported failure, never a silent partial application.
            raise first_error
        gather = self._gather_dml if job.is_dml else self._gather
        return gather(job, replies, started)

    def _subquery(
        self,
        client: ShardClient,
        request: dict,
        trace: Span | None = None,
    ) -> tuple[dict, float]:
        span = None
        if trace is not None:
            # One ``shard_execute`` span per scatter leg, parented
            # explicitly (this runs on a scatter-pool thread with no
            # active span).  Its wire context rides in the request so
            # the worker's own root becomes this span's child.
            span = self.tracer.begin("shard_execute", parent=trace)
            span.annotate(shard=client.shard_id)
            request = dict(request)
            request["trace"] = {
                "trace_id": trace.trace_id,
                "parent_span_id": span.span_id,
            }
        started = time.perf_counter()
        try:
            reply = client.request(request)
        except ReproError as exc:
            self.scoreboard.record_shard_failure(
                client.shard_id,
                unavailable=isinstance(exc, ShardUnavailableError),
            )
            if span is not None:
                # A failed leg contributes no I/O: the span records the
                # error but carries no io delta, so reconciliation of a
                # later successful run stays exact.
                span.annotate(error=type(exc).__name__)
                self.tracer.finish(span)
            if self.events is not None:
                self.events.emit(
                    "shard_error",
                    shard_id=client.shard_id,
                    error=type(exc).__name__,
                    message=str(exc),
                    trace_id=trace.trace_id if trace is not None else None,
                )
            raise
        elapsed = time.perf_counter() - started
        self.scoreboard.record_shard_success(client.shard_id, elapsed)
        if span is not None:
            span.annotate(attempts=reply.get("attempts", 1))
            self.tracer.finish(span)
            remote = reply["result"].get("trace")
            if remote is not None:
                # Finish first so the graft rebases the worker tree into
                # the span's closed [start, end] window (clock skew is
                # tolerated, never trusted).
                graft_remote_trace(self.tracer, span, remote)
        return reply, elapsed

    # ------------------------------------------------------------------
    # the merged-epoch clock behind the result cache
    # ------------------------------------------------------------------

    def _cache_epochs(self, tables) -> dict[str, int]:
        """Snapshot of the router's per-table merged-epoch clock."""
        with self._epoch_lock:
            return {table: self._table_epochs.get(table, 0) for table in tables}

    def _computed_at(self, query, result: QueryResult, epochs: dict[str, int]):
        # Each leg pins its shard on its own, so the epochs a gathered
        # result was computed at are known only when no DML was gathered
        # while the read was in flight — when the clock did not move.
        return epochs if self._cache_epochs(epochs) == epochs else None

    def _dml_applied(self, table: str, epoch: int) -> None:
        """Advance the clock past every cached fingerprint of *table*.

        The clock takes the gathered max shard epoch but always strictly
        increases, so even a zero-row DML moves reads of the table onto a
        fresh cache key.
        """
        with self._epoch_lock:
            current = self._table_epochs.get(table, 0)
            self._table_epochs[table] = max(current + 1, int(epoch))

    # ------------------------------------------------------------------
    # routing & gathering
    # ------------------------------------------------------------------

    def _route_dml(self, statement: DmlStatement) -> list[ShardClient]:
        """Pick the shard(s) one DML batch applies to.

        Inserts route to the **last** shard: shards own contiguous bucket
        ranges in shard order, so the table's tail buckets — the only
        place appends land — live there, and the scatter-gather read
        order stays the single-node bucket order.  Updates and deletes
        scatter to every shard; each rewrites only the rows it owns and
        the per-shard ``rows_affected`` counts sum exactly.
        """
        if isinstance(statement, InsertStatement):
            return [self.clients[-1]]
        return list(self.clients)

    def _gather_dml(
        self, job: QueryJob, replies: list[dict], started: float
    ) -> QueryResult:
        """Sum per-shard ``rows_affected``; report the max shard epoch."""
        affected = sum(int(reply["rows_affected"]) for reply in replies)
        epoch = max(int(reply["epoch"]) for reply in replies)
        stats = stats_from_wire(replies[0]["stats"])
        for reply in replies[1:]:
            stats.merge(stats_from_wire(reply["stats"]))
        wall = time.perf_counter() - started
        info = PlanInfo(
            strategy=replies[0]["strategy"],
            reason=(
                f"routed to {len(replies)} of {self.num_shards} shard(s); "
                f"write path intent-logged per shard"
            ),
            table=job.query.table,
        )
        return QueryResult(
            columns=["rows_affected", "epoch"],
            rows=[(affected, epoch)],
            stats=stats,
            wall_seconds=wall,
            cost=self.disk_model.cost(stats),
            plan=info,
            warm=True,
            epoch=epoch,
        )

    def _gather(
        self, job: QueryJob, replies: list[dict], started: float
    ) -> QueryResult:
        """Merge per-shard partials (already in shard order) into one result."""
        query = job.query
        stats = stats_from_wire(replies[0]["stats"])
        for reply in replies[1:]:
            stats.merge(stats_from_wire(reply["stats"]))
        per_shard = [reply["strategy"] for reply in replies]
        columns = list(replies[0]["columns"])
        if isinstance(query, AggregateQuery):
            merged = state_from_wire(replies[0]["state"])
            for reply in replies[1:]:
                merged.merge(state_from_wire(reply["state"]))
            self.scoreboard.record_merge()
            columns, rows = merged.finalize()
            rows = _sort_rows(rows, columns, query.order_by, query.order_desc)
        else:
            rows = []
            for reply in replies:
                rows.extend(rows_from_wire(reply["rows"]))
        wall = time.perf_counter() - started
        info = PlanInfo(
            strategy=f"scatter_gather[{'|'.join(per_shard)}]",
            reason=(
                f"scattered to {self.num_shards} shards; merged partials "
                f"in shard (bucket-range) order"
            ),
            table=query.table,
        )
        return QueryResult(
            columns=columns,
            rows=rows,
            stats=stats,
            wall_seconds=wall,
            cost=self.disk_model.cost(stats),
            plan=info,
            warm=all(reply.get("warm", True) for reply in replies),
        )


# ----------------------------------------------------------------------
# local subprocess fleet
# ----------------------------------------------------------------------

_LISTEN_RE = re.compile(
    r"shard-worker (\d+) listening on ([\w.\-]+):(\d+)"
)


@dataclass
class ShardProcess:
    """Handle on one launched worker subprocess."""

    shard_id: int
    process: subprocess.Popen
    endpoint: ShardEndpoint
    _drain: threading.Thread | None = field(default=None, repr=False)

    def stop(self, timeout_s: float = 10.0) -> None:
        if self.process.poll() is None:
            self.process.terminate()
            try:
                self.process.wait(timeout=timeout_s)
            except subprocess.TimeoutExpired:  # pragma: no cover - stuck child
                self.process.kill()
                self.process.wait()


def _await_listen_line(
    process: subprocess.Popen, shard_id: int, timeout_s: float
) -> ShardEndpoint:
    deadline = time.monotonic() + timeout_s
    assert process.stdout is not None
    while time.monotonic() < deadline:
        line = process.stdout.readline()
        if not line:
            raise ShardError(
                f"shard worker {shard_id} exited before listening "
                f"(rc={process.poll()})"
            )
        match = _LISTEN_RE.search(line)
        if match:
            return ShardEndpoint(
                shard_id=int(match.group(1)),
                host=match.group(2),
                port=int(match.group(3)),
            )
    raise ShardError(
        f"shard worker {shard_id} did not report its port within {timeout_s}s"
    )


def _drain_output(process: subprocess.Popen) -> threading.Thread:
    """Keep consuming the child's output so its pipe never fills up."""

    def drain() -> None:
        assert process.stdout is not None
        for _line in process.stdout:
            pass

    thread = threading.Thread(target=drain, daemon=True)
    thread.start()
    return thread


def launch_local_shards(
    root: str,
    *,
    manifest: ShardManifest | None = None,
    workers: int = 2,
    scan_workers: int = 1,
    scan_backend: str = "thread",
    queue_depth: int = 32,
    buffer_pages: int = 2048,
    events_dir: str | None = None,
    faults: str | None = None,
    fault_seed: int = 0,
    startup_timeout_s: float = 30.0,
) -> list[ShardProcess]:
    """Spawn one worker subprocess per shard of the sharded root.

    Each worker binds an ephemeral port and announces it on stdout; this
    returns once every worker is reachable.  Callers own the processes —
    ``stop()`` each (or use :func:`stop_local_shards`).
    """
    manifest = manifest or ShardManifest.load(root)
    import repro as _repro_pkg

    env = dict(os.environ)
    package_root = os.path.dirname(os.path.dirname(os.path.abspath(_repro_pkg.__file__)))
    env["PYTHONPATH"] = package_root + os.pathsep + env.get("PYTHONPATH", "")
    processes: list[ShardProcess] = []
    try:
        for shard_id in range(manifest.num_shards):
            argv = [
                sys.executable,
                "-m",
                "repro",
                "shard-worker",
                "--db", manifest.shard_path(root, shard_id),
                "--shard-id", str(shard_id),
                "--port", "0",
                "--workers", str(workers),
                "--scan-workers", str(scan_workers),
                "--scan-backend", scan_backend,
                "--queue", str(queue_depth),
                "--buffer-pages", str(buffer_pages),
            ]
            if events_dir is not None:
                os.makedirs(events_dir, exist_ok=True)
                argv += [
                    "--events",
                    os.path.join(events_dir, f"shard-{shard_id}.jsonl"),
                ]
            if faults is not None:
                argv += ["--faults", faults, "--fault-seed", str(fault_seed)]
            process = subprocess.Popen(
                argv,
                stdout=subprocess.PIPE,
                stderr=subprocess.STDOUT,
                text=True,
                env=env,
            )
            endpoint = _await_listen_line(process, shard_id, startup_timeout_s)
            drain = _drain_output(process)
            processes.append(
                ShardProcess(
                    shard_id=shard_id,
                    process=process,
                    endpoint=endpoint,
                    _drain=drain,
                )
            )
    except BaseException:
        stop_local_shards(processes)
        raise
    return processes


def stop_local_shards(processes: list[ShardProcess]) -> None:
    for handle in processes:
        handle.stop()


__all__ = [
    "ShardClient",
    "ShardEndpoint",
    "ShardProcess",
    "ShardRouter",
    "ShardScoreboard",
    "launch_local_shards",
    "stop_local_shards",
]
