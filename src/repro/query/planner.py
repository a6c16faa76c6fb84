"""Plan generation in the presence of SMAs (Section 3).

The planner turns a logical plan into a physical one in three explicit
steps:

1. **build** the :class:`~repro.query.logical.LogicalPlan` (predicate
   normalization, projection pushdown — :mod:`repro.query.logical`);
2. **enumerate** access paths: every candidate SMA set is graded
   against the predicate and costed through one shared routine, next to
   the sequential-scan alternative, and the global minimum wins
   (``mode="sma"``/``"scan"`` restrict the enumeration instead of
   bypassing it);
3. **bind** the winning path to physical operators
   (:mod:`repro.query.physical`), where the serial-vs-morsel decision
   is made in exactly one place.

The two closed-form costs come from the disk model:

* ``cost_scan``: read every page sequentially, charge every tuple;
* ``cost_sma``: read all needed SMA-files sequentially, charge every SMA
  entry, then fetch only the buckets the operator will touch (ambivalent
  ones for SMA_GAggr; qualifying + ambivalent for SMA_Scan), paying a
  skip charge for every gap in the fetch sequence.

The paper's ≈ 25 % break-even of Figure 5 is *not* hard-coded anywhere;
it emerges from these two formulas (read it off ``EXPLAIN`` at two
selectivities — see EXPERIMENTS.md).  Grading is cheap (it touches only
SMA-files, ~0.1 % of the data), so the planner *actually grades* every
candidate; when scan wins, the discarded grading work costs < 2 % of
the scan — the paper's own worst case.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.aggregates import AggregateSpec
from repro.core.partition import BucketPartitioning
from repro.core.sma_set import SmaSet
from repro.errors import PlanningError, SmaIntegrityError, SmaStateError
from repro.lang.predicate import Predicate, atoms
from repro.obs.trace import NO_TRACER
from repro.query.logical import LogicalPlan, build_logical, build_logical_dml
from repro.query.parallel import ScanParallelism
from repro.query.physical import (
    PhysicalPlan,
    PlanNode,
    bind_aggregate_plan,
    bind_dml_plan,
    bind_scan_plan,
)
from repro.query.query import (
    AggregateQuery,
    DeleteStatement,
    DmlStatement,
    InsertStatement,
    QueryRows,
    ScanQuery,
    UpdateStatement,
)
from repro.query.sma_gaggr import sma_covers, sma_requirements
from repro.storage.catalog import Catalog
from repro.storage.disk import DiskModel, PAPER_DISK
from repro.storage.table import Table

_MODES = ("auto", "sma", "scan")


@dataclass(frozen=True)
class GradingSummary:
    """The three-way bucket grading of one SMA set for one predicate."""

    num_buckets: int
    num_qualifying: int
    num_disqualifying: int
    num_ambivalent: int

    @classmethod
    def of(cls, partitioning: BucketPartitioning) -> "GradingSummary":
        return cls(
            num_buckets=partitioning.num_buckets,
            num_qualifying=partitioning.num_qualifying,
            num_disqualifying=partitioning.num_disqualifying,
            num_ambivalent=partitioning.num_ambivalent,
        )

    def _fraction(self, part: int) -> float:
        return part / self.num_buckets if self.num_buckets else 0.0

    @property
    def fraction_qualifying(self) -> float:
        return self._fraction(self.num_qualifying)

    @property
    def fraction_disqualifying(self) -> float:
        return self._fraction(self.num_disqualifying)

    @property
    def fraction_ambivalent(self) -> float:
        return self._fraction(self.num_ambivalent)

    def __str__(self) -> str:
        return (
            f"{self.num_buckets} buckets: "
            f"{self.fraction_qualifying:.1%} qualifying, "
            f"{self.fraction_ambivalent:.1%} ambivalent, "
            f"{self.fraction_disqualifying:.1%} disqualifying"
        )


@dataclass
class AccessPath:
    """One costed alternative the enumerator produced."""

    strategy: str  # "sma_gaggr" | "gaggr" | "sma_scan" | "seq_scan"
    est_seconds: float | None
    sma_set: SmaSet | None = None
    partitioning: BucketPartitioning | None = None
    grading: GradingSummary | None = None
    chosen: bool = False
    note: str = ""

    @property
    def sma_set_name(self) -> str | None:
        return self.sma_set.name if self.sma_set is not None else None

    def describe(self) -> str:
        label = self.strategy
        if self.sma_set is not None:
            label += f" via {self.sma_set.name!r}"
        cost = (
            f"est {self.est_seconds:.3f}s"
            if self.est_seconds is not None
            else "not costed"
        )
        marker = "-> " if self.chosen else "   "
        suffix = f"  ({self.note})" if self.note else ""
        return f"{marker}{label:<28} {cost}{suffix}"


@dataclass
class PlanInfo:
    """What the planner decided and why (returned with every result)."""

    strategy: str  # "sma_gaggr" | "gaggr" | "sma_scan" | "seq_scan"
    reason: str
    sma_set_name: str | None = None
    fraction_ambivalent: float | None = None
    est_sma_seconds: float | None = None
    est_scan_seconds: float | None = None
    #: the planned table and the full grading mix — fed into the
    #: per-table grading gauges of the metrics exposition.
    table: str | None = None
    fraction_qualifying: float | None = None
    fraction_disqualifying: float | None = None

    def __str__(self) -> str:
        lines = [f"strategy: {self.strategy} ({self.reason})"]
        if self.sma_set_name is not None:
            lines.append(f"sma set: {self.sma_set_name}")
        if self.fraction_ambivalent is not None:
            lines.append(f"ambivalent buckets: {self.fraction_ambivalent:.1%}")
        if self.est_sma_seconds is not None and self.est_scan_seconds is not None:
            lines.append(
                f"estimated cost: sma {self.est_sma_seconds:.3f}s vs "
                f"scan {self.est_scan_seconds:.3f}s (simulated)"
            )
        return "\n".join(lines)


@dataclass
class Explanation:
    """Everything EXPLAIN shows: tree, costs, grading, alternatives."""

    query: str  # the normalized logical form
    mode: str
    info: PlanInfo
    tree: PlanNode
    alternatives: tuple[AccessPath, ...]
    grading: GradingSummary | None

    @property
    def strategy(self) -> str:
        return self.info.strategy

    def render(self) -> str:
        lines = [self.query, f"mode: {self.mode}", "", "physical plan:"]
        lines.extend("  " + line for line in self.tree.render().splitlines())
        lines.append("")
        lines.append(str(self.info))
        if self.grading is not None:
            lines.append(f"grading: {self.grading}")
        if self.alternatives:
            lines.append("alternatives:")
            lines.extend(
                "  " + path.describe() for path in self.alternatives
            )
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.render()


@dataclass
class Plan:
    """An executable plan: call :meth:`run` to produce (columns, rows)."""

    info: PlanInfo
    physical: PhysicalPlan
    explanation: Explanation | None = field(repr=False, default=None)

    def run(self) -> QueryRows:
        return self.physical.run()

    def explain(self) -> Explanation:
        return self.explanation


def fetch_io_profile(
    fetched: np.ndarray, pages_per_bucket: int
) -> tuple[int, int]:
    """Split a bucket-fetch pattern into (sequential, skip) page counts.

    Consecutive fetched buckets stream; every gap costs one skip charge
    on the first page after it.  The very first fetched bucket counts as
    a skip (the scan has to position once).
    """
    indices = np.flatnonzero(fetched)
    if len(indices) == 0:
        return 0, 0
    gaps = int((np.diff(indices) > 1).sum()) + 1  # +1 for initial positioning
    total_pages = len(indices) * pages_per_bucket
    return total_pages - gaps, gaps


def clip_to_view(
    partitioning: BucketPartitioning, table: Table
) -> BucketPartitioning:
    """Bound a grading to a pinned :class:`~repro.storage.table.TableView`.

    Grading runs against the *live* SMA-files, which a concurrent insert
    may have grown past the view's pinned geometry (or not yet caught up
    with).  The clip makes the partitioning sound for the snapshot:

    * entries beyond the pinned bucket count are dropped (those buckets
      do not exist for this query); missing entries pad as ambivalent;
    * the pinned trailing bucket is forced ambivalent — its SMA entry
      advances *in place* during a concurrent top-up, so its min/max may
      describe rows the snapshot excludes.  Ambivalent routes it through
      the view's truncating bucket read, which is always exact.

    No-op for an unpinned base table.
    """
    pin = getattr(table, "pin", None)
    if pin is None:
        return partitioning
    buckets = int(pin["buckets"])
    qualifying = partitioning.qualifying
    disqualifying = partitioning.disqualifying
    if len(qualifying) < buckets:
        pad = buckets - len(qualifying)
        qualifying = np.concatenate([qualifying, np.zeros(pad, dtype=bool)])
        disqualifying = np.concatenate(
            [disqualifying, np.zeros(pad, dtype=bool)]
        )
    else:
        qualifying = qualifying[:buckets].copy()
        disqualifying = disqualifying[:buckets].copy()
    per_bucket = table.layout.tuples_per_bucket
    if buckets and int(pin["trailing"]) < per_bucket:
        qualifying[-1] = False
        disqualifying[-1] = False
    return BucketPartitioning(qualifying, disqualifying)


class Planner:
    """Chooses and builds physical plans against one catalog."""

    def __init__(
        self,
        catalog: Catalog,
        disk_model: DiskModel = PAPER_DISK,
        parallelism: ScanParallelism = ScanParallelism(),
        tracer=NO_TRACER,
    ):
        self.catalog = catalog
        self.disk_model = disk_model
        #: morsel-parallel scan config; workers=1 runs every plan as
        #: one task over its whole bucket list.
        self.parallelism = parallelism
        self.tracer = tracer

    # ------------------------------------------------------------------
    # candidate selection
    # ------------------------------------------------------------------

    def _candidate_sets(
        self, table: Table, sma_set: str | SmaSet | None
    ) -> list[SmaSet]:
        if isinstance(sma_set, SmaSet):
            return [sma_set]
        if isinstance(sma_set, str):
            return [self.catalog.sma_set(table.name, sma_set)]
        return self.catalog.sma_sets(table.name)

    def _sma_pages_entries(
        self,
        sma_set: SmaSet,
        predicate: Predicate,
        aggregate_specs: list[AggregateSpec],
        group_by: tuple[str, ...],
    ) -> tuple[int, int, int]:
        """Pages, entries and file count of every SMA-file the SMA plan
        would read (selection SMAs for grading plus, for aggregate
        queries, the aggregate SMAs the roll-up needs)."""
        files: dict[int, object] = {}

        def note(sma) -> None:
            files[id(sma)] = sma

        for atom in atoms(predicate):
            for column in atom.columns():
                sma_set.column_bounds(column, note)
                # count-SMA files would also be read; approximate by the
                # bounds files (count grading is rare and tiny anyway).
        for spec in aggregate_specs:
            found = sma_set.rollup_aggregate_files(spec, group_by)
            if found:
                for sma in found[0].values():
                    note(sma)
        pages = sum(sma.num_pages for sma in files.values())
        entries = sum(sma.num_entries for sma in files.values())
        return pages, entries, len(files)

    # ------------------------------------------------------------------
    # shared costing
    # ------------------------------------------------------------------

    def _est_scan(self, table: Table) -> float:
        """Closed-form scan cost, plus one positioning seek to start."""
        model = self.disk_model
        return (
            model.scan_seconds(table.num_pages, table.num_records)
            + model.random_page_s
        )

    def _est_sma(
        self,
        table: Table,
        sma_set: SmaSet,
        predicate: Predicate,
        fetched: np.ndarray,
        aggregate_specs: list[AggregateSpec],
        group_by: tuple[str, ...],
    ) -> float:
        """Closed-form SMA-plan cost for fetching *fetched* buckets.

        One routine for both operators: SMA_GAggr fetches the ambivalent
        buckets, SMA_Scan everything not disqualifying.  Every SMA-file
        opened costs one positioning seek on top of its sequential read.
        """
        model = self.disk_model
        sma_pages, sma_entries, num_files = self._sma_pages_entries(
            sma_set, predicate, aggregate_specs, group_by
        )
        seq_pages, skip_pages = fetch_io_profile(
            fetched, table.layout.pages_per_bucket
        )
        counts = np.asarray(table.bucket_counts())
        fetch_tuples = int(counts[fetched].sum())
        return (
            model.sma_seconds(
                sma_pages, sma_entries, seq_pages, skip_pages, fetch_tuples
            )
            + num_files * model.random_page_s
        )

    # ------------------------------------------------------------------
    # access-path enumeration
    # ------------------------------------------------------------------

    def _enumerate(
        self,
        table: Table,
        logical: LogicalPlan,
        mode: str,
        sma_set: str | SmaSet | None,
    ) -> list[AccessPath]:
        """Grade and cost every alternative the mode allows.

        Returns at least one path; SMA candidates are graded (charging
        their SMA-file reads — the planner really does this work) and
        costed through :meth:`_est_sma`; the scan alternative is always
        present unless ``mode="sma"`` excludes it.
        """
        aggregate = logical.kind == "aggregate"
        scan_strategy = "gaggr" if aggregate else "seq_scan"
        sma_strategy = "sma_gaggr" if aggregate else "sma_scan"
        specs = sma_requirements(logical.aggregates) if aggregate else []

        paths: list[AccessPath] = []
        if mode != "scan":
            for candidate in self._usable_sets(table, logical, sma_set):
                try:
                    partitioning = self._grade_candidate(candidate, logical)
                except SmaStateError:
                    # Transient length mismatch while a concurrent insert
                    # grows heap and SMA-files out of lockstep; the scan
                    # alternative below still serves this query.
                    continue
                if partitioning is None:
                    # Integrity quarantine drained this candidate during
                    # grading; the scan alternative below still serves.
                    continue
                partitioning = clip_to_view(partitioning, table)
                grading = GradingSummary.of(partitioning)
                fetched = (
                    partitioning.ambivalent
                    if aggregate
                    else ~partitioning.disqualifying
                )
                with self.tracer.span(
                    "cost_access_path", attrs={"sma_set": candidate.name}
                ) as cost_span:
                    est = self._est_sma(
                        table,
                        candidate,
                        logical.predicate,
                        fetched,
                        specs,
                        logical.group_by,
                    )
                    cost_span.annotate(est_seconds=est)
                paths.append(
                    AccessPath(
                        strategy=sma_strategy,
                        est_seconds=est,
                        sma_set=candidate,
                        partitioning=partitioning,
                        grading=grading,
                    )
                )
        if mode != "sma":
            # Forced scans skip grading entirely, so their cost estimate
            # is reported but never competed against an SMA path.
            paths.append(
                AccessPath(
                    strategy=scan_strategy,
                    est_seconds=self._est_scan(table),
                    note="full sequential scan",
                )
            )
        return paths

    def _usable_sets(
        self,
        table: Table,
        logical: LogicalPlan,
        sma_set: str | SmaSet | None,
    ) -> list[SmaSet]:
        """Candidate SMA sets that can serve this logical plan at all.

        Usability checks run under the integrity screen: an SMA-file that
        fails verification gets its definition quarantined and the check
        retried without it, so a damaged SMA degrades the candidate (or
        removes it — leaving the heap-scan path) instead of failing the
        query.
        """
        candidates = self._candidate_sets(table, sma_set)
        if logical.kind == "aggregate":
            def covers(candidate: SmaSet) -> bool:
                if not sma_covers(candidate, logical.aggregates, logical.group_by):
                    return False
                # Probe the aggregate files the roll-up would bind to:
                # corruption must surface here — where quarantine turns
                # it into a heap fallback — not mid-execution.
                for spec in sma_requirements(logical.aggregates):
                    found = candidate.rollup_aggregate_files(spec, logical.group_by)
                    if found is None:
                        return False
                    for sma in found[0].values():
                        sma.ensure_readable()
                return True

            return [
                candidate
                for candidate in candidates
                if self._screen(candidate, lambda c=candidate: covers(c))
            ]
        referenced = {
            column
            for atom in atoms(logical.predicate)
            for column in atom.columns()
        }
        return [
            candidate
            for candidate in candidates
            if self._screen(
                candidate,
                lambda c=candidate: any(
                    c.column_bounds(column) for column in referenced
                ),
            )
        ]

    # ------------------------------------------------------------------
    # integrity screening (quarantine + heap fallback)
    # ------------------------------------------------------------------

    def _screen(self, candidate: SmaSet, check) -> bool:
        """Run *check*, quarantining any SMA that fails verification.

        Retries after each quarantine so the candidate's surviving
        definitions still get their chance; returns False when the check
        cannot succeed (the planner then plans without this set).
        """
        for _ in range(len(candidate.definitions) + 1):
            try:
                return bool(check())
            except SmaIntegrityError as exc:
                if not self._note_quarantine(candidate, exc):
                    return False
        return False

    def _grade_candidate(
        self, candidate: SmaSet, logical: LogicalPlan
    ) -> BucketPartitioning | None:
        """Grade one candidate, quarantining corrupt selection SMAs.

        Returns None when quarantines left the candidate unable to serve
        the query (aggregate coverage lost) — the caller falls back to
        the scan path, which is always enumerated.
        """
        for _ in range(len(candidate.definitions) + 1):
            try:
                # The grade span is io-carrying: grading really reads the
                # selection SMA-files, and nothing else during planning
                # charges the window, so this leaf accounts all plan I/O.
                with self.tracer.span(
                    "grade",
                    stats=self.catalog.pool.stats,
                    attrs={"sma_set": candidate.name},
                ) as grade_span:
                    partitioning = candidate.partition(logical.predicate)
                    grade_span.annotate(
                        qualifying=partitioning.num_qualifying,
                        ambivalent=partitioning.num_ambivalent,
                        disqualifying=partitioning.num_disqualifying,
                    )
                    return partitioning
            except SmaIntegrityError as exc:
                if not self._note_quarantine(candidate, exc):
                    raise
                if logical.kind == "aggregate" and not sma_covers(
                    candidate, logical.aggregates, logical.group_by
                ):
                    return None
        return None

    def _note_quarantine(self, candidate: SmaSet, exc: SmaIntegrityError) -> bool:
        """Quarantine the definition owning the failed file; False if the
        error cannot be mapped to a (not yet quarantined) definition."""
        path = getattr(exc, "path", None)
        name = candidate.definition_for_path(path)
        if name is None or candidate.is_quarantined(name):
            return False
        candidate.quarantine(name, str(exc))
        self.catalog.integrity.record_quarantine(
            table=candidate.table.name,
            sma_set=candidate.name,
            definition=name,
            path=path,
            reason=str(exc),
        )
        return True

    # ------------------------------------------------------------------
    # planning
    # ------------------------------------------------------------------

    def plan(
        self,
        query: AggregateQuery | ScanQuery | DmlStatement,
        *,
        mode: str = "auto",
        sma_set: str | SmaSet | None = None,
        table: Table | None = None,
    ) -> Plan:
        """Build a plan for any supported query shape.

        *mode* is ``auto`` (cost-based), ``sma`` (force an SMA plan —
        raises if impossible; the cheapest covering set still wins) or
        ``scan`` (force the sequential plan).  DML statements route to
        :meth:`plan_dml` regardless of mode.

        *table* substitutes the table the plan binds against — the
        session passes the pinned :class:`~repro.storage.table.TableView`
        here so the whole plan (grading clip, costing, operators) reads
        one epoch-consistent snapshot.
        """
        if isinstance(
            query, (InsertStatement, UpdateStatement, DeleteStatement)
        ):
            return self.plan_dml(query)
        if mode not in _MODES:
            raise PlanningError(f"unknown planning mode {mode!r}")
        if not isinstance(query, (AggregateQuery, ScanQuery)):
            raise PlanningError(f"cannot plan {type(query).__name__}")
        if table is None:
            table = self.catalog.table(query.table)
        elif table.name != query.table:
            raise PlanningError(
                f"pinned view of {table.name!r} cannot serve a query on "
                f"{query.table!r}"
            )
        with self.tracer.span(
            "logical_rewrite", attrs={"table": table.name}
        ):
            logical = build_logical(query, table.schema)

        paths = self._enumerate(table, logical, mode, sma_set)
        chosen = self._choose(table, logical, mode, paths)
        return self._finish(table, logical, mode, chosen, paths)

    def plan_dml(self, statement: DmlStatement) -> Plan:
        """Build the (single-alternative) plan of one DML statement."""
        table = self.catalog.table(statement.table)
        with self.tracer.span(
            "logical_rewrite", attrs={"table": table.name}
        ):
            logical = build_logical_dml(statement, table.schema)
        physical = bind_dml_plan(self.catalog, logical, tracer=self.tracer)
        info = PlanInfo(
            strategy=logical.op,
            reason="write path: intent-logged, SMA-maintained",
            table=table.name,
        )
        explanation = Explanation(
            query=logical.render(),
            mode="dml",
            info=info,
            tree=physical.root,
            alternatives=(),
            grading=None,
        )
        return Plan(info=info, physical=physical, explanation=explanation)

    # ------------------------------------------------------------------
    # choosing and finishing
    # ------------------------------------------------------------------

    def _choose(
        self,
        table: Table,
        logical: LogicalPlan,
        mode: str,
        paths: list[AccessPath],
    ) -> AccessPath:
        sma_paths = [path for path in paths if path.sma_set is not None]
        scan_paths = [path for path in paths if path.sma_set is None]

        if mode == "scan":
            chosen = scan_paths[0]
            chosen.note = "forced by caller"
            chosen.chosen = True
            return chosen
        if mode == "sma":
            if not sma_paths:
                detail = (
                    "covers this query's aggregates"
                    if logical.kind == "aggregate"
                    else "can grade this predicate"
                )
                raise PlanningError(
                    f"no SMA set on {table.name!r} {detail}"
                )
            chosen = min(sma_paths, key=lambda path: path.est_seconds)
            chosen.note = (
                "forced by caller"
                if len(sma_paths) == 1
                else "forced by caller; cheapest covering set"
            )
            chosen.chosen = True
            return chosen

        # auto: global minimum; ties go to the SMA path (matching the
        # historical `scan < sma` strict comparison).
        if not sma_paths:
            chosen = scan_paths[0]
            chosen.note = (
                "no covering SMA set"
                if logical.kind == "aggregate"
                else "no applicable selection SMA"
            )
            chosen.chosen = True
            return chosen
        best_sma = min(sma_paths, key=lambda path: path.est_seconds)
        scan = scan_paths[0]
        if scan.est_seconds < best_sma.est_seconds:
            scan.note = "cost-based: scan is cheaper"
            scan.chosen = True
            return scan
        best_sma.note = (
            "cost-based"
            if len(sma_paths) == 1
            else f"cost-based: cheapest of {len(sma_paths)} covering sets"
        )
        best_sma.chosen = True
        return best_sma

    def _finish(
        self,
        table: Table,
        logical: LogicalPlan,
        mode: str,
        chosen: AccessPath,
        paths: list[AccessPath],
    ) -> Plan:
        # PlanInfo stays symmetric across strategies: whenever any SMA
        # candidate was graded, both estimates and its grading fractions
        # are reported — also on the scan side of a cost-based loss.
        sma_paths = [path for path in paths if path.sma_set is not None]
        best_sma = (
            min(sma_paths, key=lambda path: path.est_seconds)
            if sma_paths
            else None
        )
        reference = chosen if chosen.sma_set is not None else best_sma
        info = PlanInfo(
            strategy=chosen.strategy,
            reason=chosen.note,
            table=table.name,
            sma_set_name=reference.sma_set_name if reference else None,
            fraction_ambivalent=(
                reference.grading.fraction_ambivalent if reference else None
            ),
            fraction_qualifying=(
                reference.grading.fraction_qualifying if reference else None
            ),
            fraction_disqualifying=(
                reference.grading.fraction_disqualifying if reference else None
            ),
            est_sma_seconds=reference.est_seconds if reference else None,
            est_scan_seconds=(
                next(
                    (
                        path.est_seconds
                        for path in paths
                        if path.sma_set is None
                    ),
                    self._est_scan(table) if reference else None,
                )
            ),
        )
        if reference is None:
            info.est_scan_seconds = None

        if logical.kind == "aggregate":
            physical = bind_aggregate_plan(
                table,
                logical,
                chosen.strategy,
                self.parallelism,
                sma_set=chosen.sma_set,
                partitioning=chosen.partitioning,
                tracer=self.tracer,
            )
        else:
            physical = bind_scan_plan(
                table,
                logical,
                chosen.strategy,
                self.parallelism,
                sma_set=chosen.sma_set,
                partitioning=chosen.partitioning,
                tracer=self.tracer,
            )

        ordered = sorted(
            paths,
            key=lambda path: (
                path.est_seconds if path.est_seconds is not None else float("inf")
            ),
        )
        explanation = Explanation(
            query=logical.render(),
            mode=mode,
            info=info,
            tree=physical.root,
            alternatives=tuple(ordered),
            # When a scan wins the cost race, the grading that informed
            # the decision (of the best rejected SMA path) still shows.
            grading=chosen.grading or (reference.grading if reference else None),
        )
        return Plan(info=info, physical=physical, explanation=explanation)
