"""Physical plan trees: named operator nodes bound to real operators.

The planner's access-path enumerator decides *what* to run (which
strategy, which SMA set); this module decides *how* — it binds a chosen
access path to concrete operators and wraps them in a
:class:`PhysicalPlan`: an inspectable tree of :class:`PlanNode`\\ s plus
one typed runner (:data:`~repro.query.query.PlanRunner`).

The serial-vs-morsel-parallel decision is made in exactly one place,
:func:`scan_binding` — every strategy consults it, so enabling scan
workers swaps *all* plans onto their morsel operators consistently and
EXPLAIN always shows which execution mode was bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.errors import ExecutionError
from repro.obs.trace import NO_TRACER
from repro.query.gaggr import GAggr, ParallelGAggr
from repro.query.iterators import (
    Filter,
    MorselScan,
    Operator,
    Project,
    SeqScan,
    SmaScan,
)
from repro.query.logical import LogicalDml, LogicalPlan
from repro.query.parallel import ScanParallelism
from repro.query.query import PlanRunner, QueryRows
from repro.query.sma_gaggr import SmaGAggr
from repro.storage.table import Table
from repro.storage.types import python_value


@dataclass(frozen=True)
class PlanNode:
    """One named operator node of a physical plan tree."""

    name: str
    #: ordered (key, rendered value) pairs shown in brackets after the name
    props: tuple[tuple[str, str], ...] = ()
    children: tuple["PlanNode", ...] = ()

    def prop(self, key: str) -> str | None:
        """The rendered value of one property, or None."""
        for name, value in self.props:
            if name == key:
                return value
        return None

    def walk(self):
        """Yield this node and every descendant, depth-first."""
        yield self
        for child in self.children:
            yield from child.walk()

    def label(self) -> str:
        if not self.props:
            return self.name
        inner = ", ".join(f"{key}={value}" for key, value in self.props)
        return f"{self.name} [{inner}]"

    def render(self) -> str:
        """Multi-line tree rendering (box-drawing connectors)."""
        out = [self.label()]
        for i, child in enumerate(self.children):
            last = i == len(self.children) - 1
            connector = "└─ " if last else "├─ "
            continuation = "   " if last else "│  "
            child_lines = child.render().splitlines()
            out.append(connector + child_lines[0])
            out.extend(continuation + line for line in child_lines[1:])
        return "\n".join(out)

    def __str__(self) -> str:
        return self.render()


@dataclass(frozen=True)
class PhysicalPlan:
    """An executable plan: a node tree plus its bound runner(s).

    ``state_runner`` is the partial-execution seam: aggregate plans
    additionally bind their operator's ``collect_state``, which yields
    the un-finalized :class:`~repro.query.aggregation.AggregationState`
    shard workers ship to the router for order-preserving merging.
    Tuple-returning plans leave it None.
    """

    root: PlanNode
    runner: PlanRunner
    state_runner: "Callable[[], object] | None" = None

    def run(self) -> QueryRows:
        return self.runner()

    def run_state(self):
        """Run to an un-finalized aggregation state (shard workers)."""
        if self.state_runner is None:
            raise ExecutionError(
                "this plan does not support partial (state) execution"
            )
        return self.state_runner()

    def render(self) -> str:
        return self.root.render()

    def __str__(self) -> str:
        return self.render()


# ----------------------------------------------------------------------
# the single serial-vs-parallel seam
# ----------------------------------------------------------------------


def scan_binding(
    parallelism: ScanParallelism | None,
) -> tuple[str, ScanParallelism | None]:
    """Resolve the execution mode every physical plan binds against.

    Returns ``(mode_label, effective_parallelism)`` where the label is
    ``"serial"``, ``"morsel(workers=N)"`` (thread backend) or
    ``"morsel(workers=N, backend=process)"``, and the parallelism is
    None whenever execution should use the serial operators.  This is
    the only place in the engine where that decision is made.
    """
    if parallelism is not None and parallelism.enabled:
        if parallelism.backend != "thread":
            label = (
                f"morsel(workers={parallelism.workers}, "
                f"backend={parallelism.backend})"
            )
            return label, parallelism
        return f"morsel(workers={parallelism.workers})", parallelism
    return "serial", None


# ----------------------------------------------------------------------
# node helpers
# ----------------------------------------------------------------------


def _fraction(part: int, whole: int) -> str:
    return f"{part}/{whole}"


def _grade_node(partitioning, sma_set) -> PlanNode:
    total = partitioning.num_buckets
    return PlanNode(
        "SmaGrade",
        props=(
            ("sma_set", sma_set.name),
            ("qualifying", _fraction(partitioning.num_qualifying, total)),
            ("ambivalent", _fraction(partitioning.num_ambivalent, total)),
            ("disqualifying", _fraction(partitioning.num_disqualifying, total)),
        ),
    )


def _scan_node(table: Table, mode: str) -> PlanNode:
    return PlanNode(
        "SeqScan" if mode == "serial" else "MorselScan",
        props=(
            ("table", table.name),
            ("buckets", str(table.num_buckets)),
            ("mode", mode),
        ),
    )


def _aggregate_props(logical: LogicalPlan) -> tuple[tuple[str, str], ...]:
    props: list[tuple[str, str]] = []
    if logical.group_by:
        props.append(("group_by", ", ".join(logical.group_by)))
    props.append(
        ("aggregates", ", ".join(str(a) for a in logical.aggregates))
    )
    return tuple(props)


def _materialize_rows(operator: Operator) -> PlanRunner:
    """Runner for tuple-returning plans: batches → Python-value rows."""

    def runner() -> QueryRows:
        schema = operator.schema
        dtypes = [schema.dtype_of(name) for name in schema.names]
        columns = list(schema.names)
        rows = [
            tuple(
                python_value(dtype, value)
                for dtype, value in zip(dtypes, record)
            )
            for record in operator.rows()
        ]
        return columns, rows

    return runner


def _traced_runner(
    runner: PlanRunner, tracer, name: str, table: Table
) -> PlanRunner:
    """Wrap a *serial, monolithic* runner in one io-carrying span.

    Only used for operators with no internal instrumentation (GAggr,
    SeqScan, SmaScan pipelines): the single span is then the leaf that
    accounts the whole execution.  Parallel operators must NOT be
    wrapped this way — their per-morsel spans carry the I/O, and the
    dispatcher merges worker windows into the calling window, which an
    enclosing io span would double-count.
    """
    if not tracer.enabled:
        return runner

    def traced() -> QueryRows:
        # pool.stats resolves on the executing thread at run time, so
        # the span charges the right per-query window under the service.
        with tracer.span(name, stats=table.heap.pool.stats):
            return runner()

    return traced


def _traced_state_runner(state_runner, tracer, name: str, table: Table):
    """Same single-span wrapping for a serial ``collect_state`` runner."""
    if not tracer.enabled:
        return state_runner

    def traced():
        with tracer.span(name, stats=table.heap.pool.stats):
            return state_runner()

    return traced


# ----------------------------------------------------------------------
# binding: access path -> operators + node tree
# ----------------------------------------------------------------------


def bind_aggregate_plan(
    table: Table,
    logical: LogicalPlan,
    strategy: str,
    parallelism: ScanParallelism | None,
    *,
    sma_set=None,
    partitioning=None,
    tracer=NO_TRACER,
) -> PhysicalPlan:
    """Bind an aggregate access path ("sma_gaggr" or "gaggr")."""
    mode, parallel = scan_binding(parallelism)
    predicate = logical.predicate
    if strategy == "sma_gaggr":
        operator = SmaGAggr(
            table,
            predicate,
            logical.group_by,
            logical.aggregates,
            sma_set,
            partitioning=partitioning,
            parallelism=parallel,
            tracer=tracer,
        )
        fetch = PlanNode(
            "BucketFetch",
            props=(
                ("table", table.name),
                (
                    "buckets",
                    _fraction(
                        partitioning.num_ambivalent, partitioning.num_buckets
                    ),
                ),
                ("which", "ambivalent"),
                ("mode", mode),
            ),
        )
        root = PlanNode(
            "SmaGAggr",
            props=_aggregate_props(logical) + (("sma_set", sma_set.name),),
            children=(_grade_node(partitioning, sma_set), fetch),
        )
        return PhysicalPlan(
            root, operator.execute, state_runner=operator.collect_state
        )
    if strategy == "gaggr":
        if parallel is not None:
            operator = ParallelGAggr(
                table,
                predicate,
                logical.group_by,
                logical.aggregates,
                parallel,
                tracer=tracer,
            )
            root = PlanNode(
                "ParallelGAggr",
                props=_aggregate_props(logical)
                + (
                    ("filter", str(predicate)),
                    ("workers", str(parallel.workers)),
                    ("morsel_buckets", str(parallel.morsel_buckets)),
                ),
                children=(_scan_node(table, mode),),
            )
        else:
            operator = GAggr(
                Filter(SeqScan(table), predicate),
                logical.group_by,
                logical.aggregates,
            )
            root = PlanNode(
                "GAggr",
                props=_aggregate_props(logical),
                children=(
                    PlanNode(
                        "Filter",
                        props=(("predicate", str(predicate)),),
                        children=(_scan_node(table, mode),),
                    ),
                ),
            )
            return PhysicalPlan(
                root,
                _traced_runner(operator.execute, tracer, "scan_aggregate", table),
                state_runner=_traced_state_runner(
                    operator.collect_state, tracer, "scan_aggregate", table
                ),
            )
        return PhysicalPlan(
            root, operator.execute, state_runner=operator.collect_state
        )
    raise ValueError(f"unknown aggregate strategy {strategy!r}")


def bind_scan_plan(
    table: Table,
    logical: LogicalPlan,
    strategy: str,
    parallelism: ScanParallelism | None,
    *,
    sma_set=None,
    partitioning=None,
    tracer=NO_TRACER,
) -> PhysicalPlan:
    """Bind a tuple-returning access path ("sma_scan" or "seq_scan")."""
    mode, parallel = scan_binding(parallelism)
    predicate = logical.predicate
    if strategy == "sma_scan":
        if parallel is not None:
            operator: Operator = MorselScan(
                table, predicate, parallel, partitioning=partitioning, tracer=tracer
            )
        else:
            operator = SmaScan(
                table, predicate, sma_set, partitioning=partitioning
            )
        fetched = partitioning.num_buckets - partitioning.num_disqualifying
        root = PlanNode(
            "SmaScan" if parallel is None else "MorselSmaScan",
            props=(
                ("table", table.name),
                ("predicate", str(predicate)),
                ("buckets", _fraction(fetched, partitioning.num_buckets)),
                ("mode", mode),
            ),
            children=(_grade_node(partitioning, sma_set),),
        )
    elif strategy == "seq_scan":
        if parallel is not None:
            operator = MorselScan(table, predicate, parallel, tracer=tracer)
            root = PlanNode(
                "MorselScan",
                props=(
                    ("table", table.name),
                    ("filter", str(predicate)),
                    ("buckets", str(table.num_buckets)),
                    ("mode", mode),
                ),
            )
        else:
            operator = Filter(SeqScan(table), predicate)
            root = PlanNode(
                "Filter",
                props=(("predicate", str(predicate)),),
                children=(_scan_node(table, mode),),
            )
    else:
        raise ValueError(f"unknown scan strategy {strategy!r}")
    if logical.columns:
        operator = Project(operator, logical.columns)
        root = PlanNode(
            "Project",
            props=(("columns", ", ".join(logical.columns)),),
            children=(root,),
        )
    runner = _materialize_rows(operator)
    if parallel is None:
        # Serial pipelines have no internal spans: one leaf span covers
        # the whole scan.  Morsel plans get per-worker spans instead.
        runner = _traced_runner(runner, tracer, strategy, table)
    return PhysicalPlan(root, runner)


def bind_dml_plan(catalog, logical: LogicalDml, *, tracer=NO_TRACER) -> PhysicalPlan:
    """Bind a DML logical plan to the crash-consistent apply path.

    The runner funnels into :func:`repro.core.ingest.apply_dml` (intent
    append → data pages → SMA advancement → retire + epoch bump) and
    returns a one-row relation ``(rows_affected, epoch)`` so callers see
    both what the batch did and the epoch it produced.
    """
    from repro.core.ingest import apply_dml

    op_node = {"insert": "Insert", "update": "Update", "delete": "Delete"}
    if logical.op not in op_node:
        raise ValueError(f"unknown DML op {logical.op!r}")
    props: list[tuple[str, str]] = [("table", logical.table)]
    if logical.op == "insert":
        props.append(("rows", str(len(logical.rows))))
    else:
        if logical.op == "update":
            props.append(
                ("set", ", ".join(name for name, _ in logical.assignments))
            )
        props.append(("predicate", str(logical.predicate)))
    root = PlanNode(
        op_node[logical.op],
        props=tuple(props),
        children=(
            PlanNode("WriteAheadIntent", props=(("op", logical.op),)),
            PlanNode(
                "SmaMaintain",
                props=(
                    (
                        "action",
                        "advance" if logical.op == "insert" else "recompute",
                    ),
                ),
            ),
        ),
    )

    def runner() -> QueryRows:
        with tracer.span(
            "apply_dml", attrs={"op": logical.op, "table": logical.table}
        ):
            outcome = apply_dml(catalog, logical.source)
        return (
            ["rows_affected", "epoch"],
            [(outcome.rows_affected, outcome.epoch)],
        )

    return PhysicalPlan(root, runner)
