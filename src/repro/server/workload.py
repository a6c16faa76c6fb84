"""Workload replay against a :class:`~repro.server.service.QueryService`.

The :class:`WorkloadDriver` replays a weighted mix of queries at a
target concurrency, in one of the two classic harness shapes:

* **closed loop** — *clients* threads each issue their next query as
  soon as the previous one finishes (concurrency is fixed, arrival rate
  adapts to service speed);
* **open loop** — a dispatcher submits at a fixed arrival rate without
  waiting (queue pressure builds when the service is slower than the
  rate; beyond the admission bound, submissions are *rejected* and
  counted, never blocked).

Selection from the mix is deterministic (weighted round-robin with a
per-client offset), so a workload run is exactly reproducible and —
with ``keep_results=True`` — byte-comparable against serial execution
of the same schedule.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field

from repro.errors import ReproError, ServerOverloadedError
from repro.query.query import AggregateQuery, ScanQuery
from repro.query.session import QueryResult
from repro.server.executor import QueryTicket
from repro.server.service import QueryService


@dataclass(frozen=True)
class WorkloadQuery:
    """One entry of the mix: a named query with an integer weight."""

    name: str
    query: AggregateQuery | ScanQuery | str
    mode: str = "auto"
    sma_set: str | None = None
    weight: int = 1

    def __post_init__(self) -> None:
        if self.weight <= 0:
            raise ReproError(f"weight must be positive, got {self.weight}")


@dataclass
class WorkloadOutcome:
    """What happened to one scheduled query."""

    name: str
    schedule_index: int
    result: QueryResult | None = None
    error: str | None = None


@dataclass
class WorkloadResult:
    """Aggregate outcome of one driver run."""

    total: int
    completed: int
    failed: int
    rejected: int
    timed_out: int
    cancelled: int
    wall_seconds: float
    #: final metrics snapshot of the service (includes pre-run traffic
    #: only if the caller reused a registry)
    metrics: dict = field(default_factory=dict)
    #: per-query outcomes in schedule order (results kept only when the
    #: driver ran with ``keep_results=True``)
    outcomes: list[WorkloadOutcome] = field(default_factory=list)

    @property
    def throughput_qps(self) -> float:
        return self.completed / self.wall_seconds if self.wall_seconds > 0 else 0.0


def expand_mix(mix: list[WorkloadQuery]) -> list[WorkloadQuery]:
    """Weighted round-robin schedule unit: each entry repeated `weight` times."""
    if not mix:
        raise ReproError("workload mix must not be empty")
    expanded: list[WorkloadQuery] = []
    for entry in mix:
        expanded.extend([entry] * entry.weight)
    return expanded


class WorkloadDriver:
    """Replays a query mix against a started :class:`QueryService`."""

    def __init__(self, service: QueryService, mix: list[WorkloadQuery]):
        self.service = service
        self.mix = list(mix)
        self._expanded = expand_mix(self.mix)

    # ------------------------------------------------------------------
    # schedules
    # ------------------------------------------------------------------

    def _pick(self, index: int) -> WorkloadQuery:
        return self._expanded[index % len(self._expanded)]

    def schedule(self, total: int) -> list[WorkloadQuery]:
        """The deterministic global schedule of a *total*-query run."""
        return [self._pick(i) for i in range(total)]

    # ------------------------------------------------------------------
    # closed loop
    # ------------------------------------------------------------------

    def run_closed_loop(
        self,
        *,
        clients: int = 8,
        queries_per_client: int = 8,
        timeout_s: float | None = None,
        keep_results: bool = False,
    ) -> WorkloadResult:
        """*clients* threads issue back-to-back queries, each drawn from
        the shared schedule; an overloaded submit counts as rejected and
        the client moves on."""
        if clients <= 0 or queries_per_client <= 0:
            raise ReproError("clients and queries_per_client must be positive")
        total = clients * queries_per_client
        outcomes: list[WorkloadOutcome | None] = [None] * total
        started = time.perf_counter()

        def client_loop(client_no: int) -> None:
            for i in range(queries_per_client):
                index = client_no * queries_per_client + i
                entry = self._pick(index)
                outcomes[index] = self._issue_and_wait(
                    entry, index, timeout_s=timeout_s, keep_results=keep_results
                )

        threads = [
            threading.Thread(
                target=client_loop, args=(c,), name=f"workload-client-{c}"
            )
            for c in range(clients)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        wall = time.perf_counter() - started
        return self._summarize(outcomes, wall)

    # ------------------------------------------------------------------
    # open loop
    # ------------------------------------------------------------------

    def run_open_loop(
        self,
        *,
        rate_qps: float,
        total: int,
        timeout_s: float | None = None,
        keep_results: bool = False,
        drain_timeout_s: float = 120.0,
    ) -> WorkloadResult:
        """Submit *total* queries at a fixed arrival rate, then drain.

        Submissions never block: when the admission queue is full the
        query is rejected and counted, which is exactly the back-pressure
        behaviour the service guarantees.
        """
        if rate_qps <= 0 or total <= 0:
            raise ReproError("rate_qps and total must be positive")
        interval = 1.0 / rate_qps
        issued: list[tuple[int, WorkloadQuery, QueryTicket | None, str | None]] = []
        started = time.perf_counter()
        next_at = started
        for index in range(total):
            now = time.perf_counter()
            if now < next_at:
                time.sleep(next_at - now)
            next_at += interval
            entry = self._pick(index)
            try:
                ticket = self.service.submit(
                    entry.query,
                    mode=entry.mode,
                    sma_set=entry.sma_set,
                    timeout_s=timeout_s,
                    kind=entry.name,
                )
            except ServerOverloadedError as exc:
                issued.append((index, entry, None, str(exc)))
            else:
                issued.append((index, entry, ticket, None))

        outcomes: list[WorkloadOutcome | None] = [None] * total
        for index, entry, ticket, error in issued:
            if ticket is None:
                outcomes[index] = WorkloadOutcome(
                    entry.name, index, error=f"rejected: {error}"
                )
                continue
            outcomes[index] = self._collect(
                entry, index, ticket, keep_results=keep_results,
                wait_timeout=drain_timeout_s,
            )
        wall = time.perf_counter() - started
        return self._summarize(outcomes, wall)

    # ------------------------------------------------------------------
    # shared plumbing
    # ------------------------------------------------------------------

    def _issue_and_wait(
        self,
        entry: WorkloadQuery,
        index: int,
        *,
        timeout_s: float | None,
        keep_results: bool,
    ) -> WorkloadOutcome:
        try:
            ticket = self.service.submit(
                entry.query,
                mode=entry.mode,
                sma_set=entry.sma_set,
                timeout_s=timeout_s,
                kind=entry.name,
            )
        except ServerOverloadedError as exc:
            return WorkloadOutcome(entry.name, index, error=f"rejected: {exc}")
        return self._collect(entry, index, ticket, keep_results=keep_results)

    @staticmethod
    def _collect(
        entry: WorkloadQuery,
        index: int,
        ticket: QueryTicket,
        *,
        keep_results: bool,
        wait_timeout: float | None = None,
    ) -> WorkloadOutcome:
        from repro.errors import QueryCancelledError, QueryTimeoutError

        try:
            result = ticket.result(wait_timeout)
        except QueryTimeoutError as exc:
            return WorkloadOutcome(entry.name, index, error=f"timeout: {exc}")
        except QueryCancelledError as exc:
            return WorkloadOutcome(entry.name, index, error=f"cancelled: {exc}")
        except BaseException as exc:  # noqa: BLE001 - workload reports, not raises
            return WorkloadOutcome(entry.name, index, error=f"failed: {exc}")
        return WorkloadOutcome(
            entry.name, index, result=result if keep_results else None
        )

    def _summarize(
        self, outcomes: list[WorkloadOutcome | None], wall: float
    ) -> WorkloadResult:
        done = [o for o in outcomes if o is not None]
        completed = sum(1 for o in done if o.error is None)
        rejected = sum(1 for o in done if o.error and o.error.startswith("rejected"))
        timed_out = sum(1 for o in done if o.error and o.error.startswith("timeout"))
        cancelled = sum(1 for o in done if o.error and o.error.startswith("cancelled"))
        failed = len(done) - completed - rejected - timed_out - cancelled
        return WorkloadResult(
            total=len(done),
            completed=completed,
            failed=failed,
            rejected=rejected,
            timed_out=timed_out,
            cancelled=cancelled,
            wall_seconds=wall,
            metrics=self.service.metrics.snapshot(),
            outcomes=done,
        )


def default_mix(table: str = "LINEITEM") -> list[WorkloadQuery]:
    """The serving benchmark's standard mix on a loaded LINEITEM.

    Query-1-style grouped aggregations at three selectivities (all
    SMA-answerable with the stock ``q1`` set) plus a thin range scan that
    exercises SMA_Scan bucket skipping — the ISSUE's "Query-1-style
    aggregations and range scans" blend, weighted toward aggregation.
    """
    import datetime

    from repro.lang.predicate import and_, cmp
    from repro.tpcd.queries import query1

    scan = ScanQuery(
        table=table,
        where=and_(
            cmp("L_SHIPDATE", ">=", datetime.date(1998, 9, 1)),
            cmp("L_SHIPDATE", "<=", datetime.date(1998, 10, 31)),
        ),
        columns=("L_ORDERKEY", "L_SHIPDATE", "L_QUANTITY"),
    )
    return [
        WorkloadQuery("q1_d90", query1(delta=90, table=table), weight=3),
        WorkloadQuery("q1_d60", query1(delta=60, table=table), weight=2),
        WorkloadQuery("q1_d120", query1(delta=120, table=table), weight=2),
        WorkloadQuery("range_scan", scan, weight=2),
    ]


def zipf_mix(
    table: str = "LINEITEM",
    *,
    distinct: int = 16,
    s: float = 1.2,
    scale: int = 100,
) -> list[WorkloadQuery]:
    """A zipf-skewed dashboard mix: *distinct* Query-1 variants drawn
    with frequency ``freq(rank) ∝ 1 / rank**s``.

    Rank 1 is the hottest plan; with the defaults (``distinct=16``,
    ``s=1.2``) it draws ~1/3 of the traffic, which is the repeat-heavy
    shape the plan-fingerprint result cache is built for.  Each
    variant uses a different ``delta`` window, so the variants are
    genuinely distinct logical plans — the cache can only merge true
    repeats.

    The returned entries all carry weight 1 and are *pre-interleaved*
    round-robin (rank 1 appears in every round, rank k in the rounds
    below its zipf count): :func:`expand_mix` would repeat a weighted
    entry as one contiguous block, which at zipf scales would hand each
    closed-loop client a long run of a single plan instead of a skewed
    blend.  Deterministic, like every mix.
    """
    from repro.tpcd.queries import query1

    if distinct <= 0:
        raise ReproError(f"distinct must be positive, got {distinct}")
    counts = {
        rank: max(1, round(scale / rank**s)) for rank in range(1, distinct + 1)
    }
    variants = {
        rank: WorkloadQuery(
            f"q1_z{rank:02d}",
            query1(delta=30 + 10 * (rank - 1), table=table),
        )
        for rank in range(1, distinct + 1)
    }
    mix = []
    for round_no in range(max(counts.values())):
        for rank in range(1, distinct + 1):
            if counts[rank] > round_no:
                mix.append(variants[rank])
    return mix
