"""Cooperative scan sharing: one bucket pass, many consumers.

Dashboard bursts issue *different* aggregate queries over the *same*
table.  Each solo execution pays a full bucket pass; the
:class:`SharedScanDispatcher` coalesces them — the first query over a
``(table, ingest epoch)`` pair becomes the pass **leader**, queries that
arrive during the leader's short gather window **attach** as followers,
and the leader runs exactly one bucket pass that decodes every bucket
once and grades it with *every* consumer's predicate.  This generalizes
the buffer pool's single-flight page loads (PR 2) from pages to whole
scans, in the spirit of cooperative scans (Zukowski et al.) and shared
aggregation in factorised databases.

Byte-identity is the design constraint, exactly as for the morsel
operators: per consumer, the shared pass consumes the same filtered
batches in the same bucket order as a solo ``GAggr(Filter(SeqScan))``,
and morsel partials merge in morsel order per consumer (see
:meth:`~repro.query.aggregation.AggregationState.merge`), so each
follower's rows are bit-identical to what its own solo execution would
have produced at the same epoch.

Groups are keyed on ``(table, epoch)``: a concurrent DML batch bumps
the epoch, so queries admitted after the write can never attach to a
pass over the old snapshot.  SMA quarantine :meth:`poison`\\ s pending
groups — their consumers (leader included) raise
:class:`SharedScanDetached` and the service re-executes each solo,
where the planner's quarantine fallback routes them to the heap.  A
pass already running is unaffected: the shared pass never consults SMA
files, so a mid-pass quarantine cannot corrupt it.

The pass is a list of :class:`~repro.query.morsel.FoldTask`\\ s — all
consumer plans + a bucket morsel each, the very task
:class:`~repro.query.gaggr.ParallelGAggr` builds with one consumer —
handed to :func:`~repro.query.morsel.dispatch_fold`, so both scan
backends, the broken-pool fallback and the ordered merge are the ones
every morsel operator uses.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field

from repro.errors import ExecutionError
from repro.obs.trace import NO_TRACER
from repro.query.aggregation import AggregationState
from repro.query.logical import normalize_predicate
from repro.query.morsel import FoldSpec, FoldTask, dispatch_fold
from repro.query.parallel import ScanParallelism, make_morsels
from repro.query.planner import PlanInfo
from repro.query.query import AggregateQuery

#: How long a follower waits for its leader before detaching (a backstop;
#: the leader wakes everyone in ``finally``, so this only fires when the
#: leader thread was killed outright).
DEFAULT_FOLLOW_TIMEOUT_S = 60.0

#: Leader gather window: how long the leader lingers after enrolling so
#: a burst scheduled across executor workers can coalesce before the
#: consumer list seals.  Milliseconds — dwarfed by a bucket pass, and
#: only paid by queries that take the shared-scan path at all.
DEFAULT_GATHER_WINDOW_S = 0.0025


class SharedScanDetached(ExecutionError):
    """This consumer lost its shared pass (quarantine poison, leader
    failure, or follow timeout); the caller must re-execute solo."""


@dataclass
class SharedScanOutcome:
    """One consumer's finalized slice of a shared pass."""

    columns: list[str]
    rows: list[tuple]
    info: PlanInfo
    role: str  # "lead" | "follow"
    fan_in: int


@dataclass
class _Consumer:
    query: AggregateQuery
    predicate: object  # bound, normalized predicate
    event: threading.Event = field(default_factory=threading.Event)
    state: AggregationState | None = None
    error: BaseException | None = None
    fan_in: int = 0


class _Group:
    """One pending shared pass: the consumers gathered so far."""

    __slots__ = ("table", "epoch", "consumers", "sealed", "poisoned")

    def __init__(self, table: str, epoch: int):
        self.table = table
        self.epoch = epoch
        self.consumers: list[_Consumer] = []
        self.sealed = False
        self.poisoned: str | None = None


class SharedScanDispatcher:
    """Attach-or-lead coordination for shared bucket passes.

    Thread-safe; one instance per serving tier.  The dispatcher holds no
    storage handles of its own — the leader's pinned
    :class:`~repro.storage.table.TableView` drives the pass, so every
    consumer reads the leader's epoch snapshot (group keys guarantee the
    epochs match).
    """

    def __init__(
        self,
        *,
        gather_window_s: float = DEFAULT_GATHER_WINDOW_S,
        follow_timeout_s: float = DEFAULT_FOLLOW_TIMEOUT_S,
    ):
        self.gather_window_s = float(gather_window_s)
        self.follow_timeout_s = float(follow_timeout_s)
        self._lock = threading.Lock()
        self._groups: dict[tuple[str, int], _Group] = {}
        self.leads = 0
        self.attaches = 0
        self.detaches = 0
        self.fan_in_total = 0
        self.fan_in_max = 0

    # ------------------------------------------------------------------
    # the attach-or-lead protocol
    # ------------------------------------------------------------------

    def run(
        self,
        view,
        query: AggregateQuery,
        *,
        parallelism: ScanParallelism | None = None,
        tracer=NO_TRACER,
        timeout_s: float | None = None,
    ) -> SharedScanOutcome:
        """Execute *query* against the pinned *view*, sharing the pass.

        Leads when no compatible pass is pending, attaches otherwise.
        Raises :class:`SharedScanDetached` when this consumer must fall
        back to a solo execution (poisoned group, failed leader, or
        follow timeout) — the shared path never silently degrades into
        a wrong answer, it always either serves byte-identical rows or
        detaches loudly.
        """
        query.validate(view.schema)
        predicate = normalize_predicate(query.where.bind(view.schema))
        consumer = _Consumer(query=query, predicate=predicate)
        key = (query.table, int(view.epoch))
        with self._lock:
            group = self._groups.get(key)
            if group is None:
                group = _Group(query.table, int(view.epoch))
                self._groups[key] = group
                group.consumers.append(consumer)
                lead = True
                self.leads += 1
            else:
                group.consumers.append(consumer)
                lead = False
                self.attaches += 1
        if lead:
            return self._lead(key, group, consumer, view, parallelism, tracer)
        return self._follow(consumer, timeout_s)

    def _lead(
        self, key, group: _Group, consumer: _Consumer, view, parallelism, tracer
    ) -> SharedScanOutcome:
        if self.gather_window_s > 0:
            time.sleep(self.gather_window_s)
        with self._lock:
            group.sealed = True
            if self._groups.get(key) is group:
                del self._groups[key]
            consumers = list(group.consumers)
            poisoned = group.poisoned
            fan_in = len(consumers)
            self.fan_in_total += fan_in
            if fan_in > self.fan_in_max:
                self.fan_in_max = fan_in
        for member in consumers:
            member.fan_in = fan_in
        if poisoned is not None:
            detach = SharedScanDetached(
                f"shared scan over {group.table!r} poisoned: {poisoned}"
            )
            with self._lock:
                self.detaches += 1  # the leader; followers count themselves
            self._finish(consumers, error=detach)
            raise detach
        try:
            states = self._run_pass(view, consumers, parallelism, tracer)
        except BaseException as exc:
            self._finish(consumers, error=exc)
            raise
        for member, state in zip(consumers, states):
            member.state = state
        self._finish(consumers)
        return self._finalize(consumer, role="lead")

    def _follow(
        self, consumer: _Consumer, timeout_s: float | None
    ) -> SharedScanOutcome:
        wait_s = timeout_s if timeout_s is not None else self.follow_timeout_s
        if not consumer.event.wait(wait_s):
            with self._lock:
                self.detaches += 1
            raise SharedScanDetached(
                f"shared-scan follower timed out after {wait_s:.3f}s"
            )
        if consumer.error is not None or consumer.state is None:
            with self._lock:
                self.detaches += 1
            raise SharedScanDetached(
                f"shared-scan leader failed: {consumer.error!r}"
            )
        return self._finalize(consumer, role="follow")

    def _finish(
        self, consumers: list[_Consumer], error: BaseException | None = None
    ) -> None:
        for member in consumers:
            if error is not None and member.state is None:
                member.error = error
            member.event.set()

    def _finalize(self, consumer: _Consumer, *, role: str) -> SharedScanOutcome:
        columns, rows = consumer.state.finalize()
        strategy = (
            f"shared_scan(lead[{consumer.fan_in}])"
            if role == "lead"
            else "shared_scan(follow)"
        )
        info = PlanInfo(
            strategy=strategy,
            reason=(
                f"cooperative bucket pass shared by {consumer.fan_in} "
                f"consumer(s) at one epoch snapshot"
            ),
            table=consumer.query.table,
        )
        return SharedScanOutcome(
            columns=columns, rows=rows, info=info, role=role,
            fan_in=consumer.fan_in,
        )

    # ------------------------------------------------------------------
    # the shared pass itself
    # ------------------------------------------------------------------

    def _run_pass(
        self, view, consumers: list[_Consumer], parallelism, tracer
    ) -> list[AggregationState]:
        """One :class:`FoldTask` per morsel carrying every consumer."""
        parallelism = parallelism or ScanParallelism.serial()
        specs = tuple(
            FoldSpec(member.predicate, member.query.group_by, member.query.aggregates)
            for member in consumers
        )
        tasks = [
            FoldTask(morsel, specs)
            for morsel in make_morsels(
                range(view.num_buckets), parallelism.morsel_buckets
            )
        ]
        return dispatch_fold(
            view, specs, tasks, parallelism, tracer, "shared_morsel"
        )

    # ------------------------------------------------------------------
    # invalidation / observation
    # ------------------------------------------------------------------

    def poison(self, table: str, reason: str) -> int:
        """Quarantine hook: doom every *pending* group over *table*.

        Their consumers detach (the leader wakes, sees the poison, and
        fails everyone with :class:`SharedScanDetached`); the service
        re-executes each solo against the quarantine-aware planner.
        Returns how many groups were poisoned.
        """
        with self._lock:
            doomed = [
                key for key in self._groups if key[0] == table
            ]
            for key in doomed:
                group = self._groups.pop(key)
                group.poisoned = reason
            return len(doomed)

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "leads": self.leads,
                "attaches": self.attaches,
                "detaches": self.detaches,
                "fan_in_total": self.fan_in_total,
                "fan_in_max": self.fan_in_max,
                "pending_groups": len(self._groups),
                "mean_fan_in": (
                    self.fan_in_total / self.leads if self.leads else 0.0
                ),
            }
