"""Structured JSONL event log with a non-blocking, bounded queue.

Queries must never block on observability: :meth:`EventLog.emit` only
does a ``put_nowait`` onto a bounded queue; a single daemon writer
thread serializes events to JSON lines and appends them to the file.
When the queue is full the event is *dropped* and counted — the drop
counter is part of the log's own stats (and of the ``/metrics``
exposition), so lossy periods are visible instead of silent.

Event shape: one JSON object per line, always carrying ``ts`` (epoch
seconds), ``seq`` (per-log sequence number) and ``event`` (the type);
everything else is event-specific.  Types emitted by the service layer:

========================  ==============================================
``server_start``          service config (workers, queue depth, ...)
``server_stop``           final outcome counters
``query_start``           ticket id, kind, submitted query
``query_finish``          exactly one per ``query_start``: outcome
                          (completed / failed / timed_out / cancelled),
                          plus latency, strategy and IoStats delta when
                          completed, ``skipped`` / ``error`` otherwise
``query_rejected``        a submission the admission queue refused
``slow_query``            over-threshold query + its captured EXPLAIN
``trace``                 a finished span tree (see :mod:`.trace`)
``ambivalent_warning``    a table's grading crossed the break-even
``query_ledger``          per-query resource ledger (queue wait, scatter
                          fan-out, wall seconds by span kind, per-table
                          I/O attribution; see :mod:`.collect`)
========================  ==============================================

Per-query events (``query_start``/``query_finish``/``slow_query``/
``ambivalent_warning``/``ingest_applied``/``query_ledger``) carry a
``trace_id`` so log lines join against the merged span tree — on shard
workers that id is the *router's* global trace id whenever the request
carried a wire trace context.
"""

from __future__ import annotations

import json
import queue
import threading
import time
from typing import IO, TextIO

__all__ = ["EventLog"]

_STOP = object()


class EventLog:
    """Append-only JSONL sink: bounded queue, one writer thread.

    Parameters
    ----------
    path:
        Output file (opened in append mode), or an already-open text
        stream (used by tests; not closed on :meth:`close`).
    maxsize:
        Queue bound.  ``emit`` beyond it drops the event and increments
        :attr:`dropped` instead of blocking the caller.
    """

    def __init__(self, path: str | TextIO, *, maxsize: int = 1024):
        self._queue: queue.Queue = queue.Queue(maxsize=maxsize)
        self._lock = threading.Lock()
        self._seq = 0
        self.dropped = 0
        self.written = 0
        self._closed = False
        self._owns_file = isinstance(path, str)
        self.path = path if isinstance(path, str) else getattr(path, "name", "<stream>")
        self._file: IO[str] = (
            open(path, "a", encoding="utf-8") if isinstance(path, str) else path
        )
        self._writer = threading.Thread(
            target=self._writer_loop, name="repro-eventlog", daemon=True
        )
        self._writer.start()

    # ------------------------------------------------------------------
    # producing (any thread, never blocks)
    # ------------------------------------------------------------------

    def emit(self, event: str, **fields: object) -> bool:
        """Enqueue one event; returns False when it was dropped.

        Serialization happens on the writer thread, so the query path
        pays one dict build and one queue put.
        """
        with self._lock:
            if self._closed:
                self.dropped += 1
                return False
            self._seq += 1
            record = {"ts": time.time(), "seq": self._seq, "event": event}
        record.update(fields)
        try:
            self._queue.put_nowait(record)
        except queue.Full:
            with self._lock:
                self.dropped += 1
            return False
        return True

    # ------------------------------------------------------------------
    # writer thread
    # ------------------------------------------------------------------

    def _writer_loop(self) -> None:
        while True:
            item = self._queue.get()
            if item is _STOP:
                return
            try:
                line = json.dumps(item, default=str, separators=(",", ":"))
                self._file.write(line + "\n")
                self._file.flush()
            except Exception:  # noqa: BLE001 - a bad record must not kill the writer
                with self._lock:
                    self.dropped += 1
            else:
                with self._lock:
                    self.written += 1

    # ------------------------------------------------------------------
    # lifecycle & introspection
    # ------------------------------------------------------------------

    def stats(self) -> dict[str, int]:
        """Written/dropped/queued counts (rendered into ``/metrics``)."""
        with self._lock:
            return {
                "written": self.written,
                "dropped": self.dropped,
                "queued": self._queue.qsize(),
                "emitted": self._seq,
            }

    def close(self, *, timeout_s: float = 5.0) -> None:
        """Stop accepting events, drain the queue, close the file."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
        self._queue.put(_STOP)  # blocking put: the sentinel must arrive
        self._writer.join(timeout=timeout_s)
        if self._owns_file:
            self._file.close()

    def __enter__(self) -> "EventLog":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
