"""Shard worker: one process owning one shard catalog.

A :class:`ShardWorker` wraps its shard's :class:`~repro.storage.catalog.Catalog`
(own buffer pool, own SMA sets) in a full
:class:`~repro.server.service.QueryService` — admission control,
per-query isolation, metrics — and serves the router's framed-JSON
requests over a local socket.  Aggregate queries run *partially*
(:meth:`~repro.query.session.Session.execute_partial`): the worker ships
the un-finalized aggregation state so the router can merge shard
partials order-preservingly.

Each shard plans independently: a predicate that grades well on one
shard's bucket range may pick ``sma_gaggr`` while a neighbour picks the
scan — the bucket-major contribution-order invariant makes the merged
result byte-identical either way.
"""

from __future__ import annotations

import socket
import threading

from repro.errors import ReproError, ShardProtocolError
from repro.lang.serde import query_from_json
from repro.obs.events import EventLog
from repro.obs.trace import Tracer
from repro.query.query import AggregateQuery, DmlStatement
from repro.server.executor import QueryTicket
from repro.server.pipeline import QueryJob
from repro.server.service import QueryService
from repro.shard.protocol import recv_message, send_message
from repro.shard.state_serde import rows_to_wire, state_to_wire, stats_to_wire
from repro.storage.catalog import Catalog


def _error_reply(exc: BaseException) -> dict:
    return {
        "ok": False,
        "error": {"type": type(exc).__name__, "message": str(exc)},
    }


class ShardWorker:
    """Socket server + query service over one shard catalog."""

    def __init__(
        self,
        shard_id: int,
        catalog_dir: str,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        workers: int = 2,
        queue_depth: int = 32,
        scan_workers: int = 1,
        scan_backend: str = "thread",
        buffer_pages: int = 2048,
        default_timeout_s: float | None = None,
        fault_injector=None,
        events: EventLog | None = None,
        enable_tracing: bool = True,
    ):
        self.shard_id = shard_id
        self.catalog = Catalog.discover(
            catalog_dir,
            buffer_pages=buffer_pages,
            fault_injector=fault_injector,
        )
        self.events = events
        # Workers trace by default: requests carrying a wire trace
        # context get their local span tree exported in the reply so the
        # router reassembles one tree per query.  Span overhead is a few
        # allocations per query phase — noise against socket round trips.
        self.tracer = Tracer() if enable_tracing else None
        self.service = QueryService(
            self.catalog,
            workers=workers,
            queue_depth=queue_depth,
            scan_workers=scan_workers,
            scan_backend=scan_backend,
            default_timeout_s=default_timeout_s,
            tracer=self.tracer,
            events=events,
        )
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind((host, port))
        self._listener.listen(64)
        self.host, self.port = self._listener.getsockname()[:2]
        self._accept_thread: threading.Thread | None = None
        self._closing = threading.Event()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def start(self) -> "ShardWorker":
        self.service.start()
        if self.events is not None:
            self.events.emit(
                "shard_worker_start",
                shard_id=self.shard_id,
                host=self.host,
                port=self.port,
            )
        self._accept_thread = threading.Thread(
            target=self._accept_loop,
            name=f"shard-{self.shard_id}-accept",
            daemon=True,
        )
        self._accept_thread.start()
        return self

    def close(self) -> None:
        if self._closing.is_set():
            return
        self._closing.set()
        try:
            self._listener.close()
        except OSError:  # pragma: no cover - close is best-effort
            pass
        self.service.shutdown(wait=True, cancel_pending=True)
        self.catalog.close()
        if self.events is not None:
            self.events.emit("shard_worker_stop", shard_id=self.shard_id)

    def __enter__(self) -> "ShardWorker":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def wait(self) -> None:
        """Block until :meth:`close` (the subprocess entry point's loop)."""
        self._closing.wait()

    # ------------------------------------------------------------------
    # connection handling
    # ------------------------------------------------------------------

    def _accept_loop(self) -> None:
        while not self._closing.is_set():
            try:
                conn, _addr = self._listener.accept()
            except OSError:
                return  # listener closed
            thread = threading.Thread(
                target=self._serve_connection,
                args=(conn,),
                name=f"shard-{self.shard_id}-conn",
                daemon=True,
            )
            thread.start()

    def _serve_connection(self, conn: socket.socket) -> None:
        with conn:
            while not self._closing.is_set():
                try:
                    request = recv_message(conn)
                except (ShardProtocolError, OSError):
                    return
                if request is None:
                    return  # clean EOF
                if self._closing.is_set():
                    # A closing worker is *unavailable*, not a query
                    # error: drop the connection so the router's client
                    # sees a connection failure and marks the shard down.
                    return
                try:
                    reply = self._handle(request)
                except ReproError as exc:
                    reply = _error_reply(exc)
                except Exception as exc:  # noqa: BLE001 - never kill the conn loop
                    reply = _error_reply(exc)
                try:
                    send_message(conn, reply)
                except OSError:
                    return
                if isinstance(request, dict) and request.get("op") == "shutdown":
                    self.close()
                    return

    # ------------------------------------------------------------------
    # request dispatch
    # ------------------------------------------------------------------

    def _handle(self, request: object) -> dict:
        if not isinstance(request, dict) or "op" not in request:
            raise ShardProtocolError(f"malformed request: {request!r}")
        op = request["op"]
        if op == "ping":
            return {
                "ok": True,
                "shard_id": self.shard_id,
                "tables": {
                    table.name: table.num_buckets
                    for table in self.catalog.tables()
                },
            }
        if op == "execute":
            return self._handle_execute(request)
        if op == "execute_dml":
            return self._handle_execute_dml(request)
        if op == "explain":
            return self._handle_explain(request)
        if op == "metrics":
            return {"ok": True, "metrics": self.service.observed_snapshot()}
        if op == "shutdown":
            return {"ok": True, "shard_id": self.shard_id}
        raise ShardProtocolError(f"unknown op {op!r}")

    def _handle_execute(self, request: dict) -> dict:
        query = query_from_json(request["query"])
        partial = isinstance(query, AggregateQuery)
        ticket = self.service.submit(
            query,
            mode=request.get("mode", "auto"),
            sma_set=request.get("sma_set"),
            timeout_s=request.get("timeout_s"),
            kind=request.get("kind") or None,
            partial=partial,
            trace_ctx=request.get("trace"),
        )
        result = ticket.result()
        payload: dict = {
            "columns": list(result.columns),
            "stats": stats_to_wire(result.stats),
            "wall_seconds": result.wall_seconds,
            "strategy": result.plan.strategy,
            "warm": result.warm,
        }
        self._attach_trace(ticket, payload)
        if partial:
            payload["kind"] = "state"
            payload["state"] = state_to_wire(result.state)
        else:
            payload["kind"] = "rows"
            payload["rows"] = rows_to_wire(result.rows)
        return {"ok": True, "result": payload}

    @staticmethod
    def _attach_trace(ticket: QueryTicket, payload: dict) -> None:
        """Ship the finished local span tree when the caller asked for it
        (``ticket.result()`` has settled, so the root span is complete);
        untraced routers get the slim reply they always did."""
        job: QueryJob = ticket.payload
        trace = job.wire_trace()
        if trace is not None:
            payload["trace"] = trace

    def _handle_execute_dml(self, request: dict) -> dict:
        """Apply one routed DML batch through this shard's write queue.

        The statement lands in the shard's own
        :func:`~repro.core.ingest.apply_dml` — intent-logged, SMA-
        maintained, epoch-bumped — exactly like a single-node write.
        """
        statement = query_from_json(request["query"])
        if not isinstance(statement, DmlStatement):
            raise ShardProtocolError(
                f"execute_dml frame carries {type(statement).__name__}, "
                f"not a DML statement"
            )
        ticket = self.service.submit(
            statement,
            timeout_s=request.get("timeout_s"),
            kind="dml",
            trace_ctx=request.get("trace"),
        )
        result = ticket.result()
        rows_affected, epoch = result.rows[0]
        payload: dict = {
            "columns": list(result.columns),
            "rows_affected": int(rows_affected),
            "epoch": int(epoch),
            "strategy": result.plan.strategy,
            "wall_seconds": result.wall_seconds,
            "stats": stats_to_wire(result.stats),
        }
        self._attach_trace(ticket, payload)
        return {"ok": True, "result": payload}

    def _handle_explain(self, request: dict) -> dict:
        query = query_from_json(request["query"])
        explanation = self.service.explain(
            query,
            mode=request.get("mode", "auto"),
            sma_set=request.get("sma_set"),
        )
        return {
            "ok": True,
            "strategy": explanation.strategy,
            "rendered": explanation.render(),
        }


def run_worker_forever(worker: ShardWorker, *, announce=print) -> None:
    """Start *worker*, announce its bound address, and serve until closed.

    The announcement line is the launcher's contract:
    ``shard-worker <id> listening on <host>:<port>``.
    """
    worker.start()
    announce(
        f"shard-worker {worker.shard_id} listening on "
        f"{worker.host}:{worker.port}",
        flush=True,
    )
    try:
        worker.wait()
    except KeyboardInterrupt:  # pragma: no cover - interactive stop
        worker.close()


__all__ = ["ShardWorker", "run_worker_forever"]
