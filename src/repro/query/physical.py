"""Physical plan trees: named operator nodes bound to real operators.

The planner's access-path enumerator decides *what* to run (which
strategy, which SMA set); this module decides *how* — it binds a chosen
access path to its one operator and wraps it in a
:class:`PhysicalPlan`: an inspectable tree of :class:`PlanNode`\\ s plus
one typed runner (:data:`~repro.query.query.PlanRunner`).

Each strategy binds exactly one operator whatever the worker count: the
operator splits its bucket list into tasks by its
:class:`~repro.query.parallel.ScanParallelism` (one task when serial),
and the node that shows the execution mode carries its label, so
EXPLAIN always shows which mode was bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.errors import ExecutionError
from repro.obs.trace import NO_TRACER
from repro.query.gaggr import GAggr
from repro.query.iterators import Operator, Project, Scan
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


def _mode_props(parallelism: ScanParallelism) -> tuple[tuple[str, str], ...]:
    """The execution mode, plus the morsel knobs when there are morsels."""
    props = (("mode", parallelism.mode),)
    if parallelism.enabled:
        props += (
            ("workers", str(parallelism.workers)),
            ("morsel_buckets", str(parallelism.morsel_buckets)),
        )
    return props


def _filtered_scan_node(
    table: Table, predicate, parallelism: ScanParallelism
) -> PlanNode:
    scan = PlanNode(
        "SeqScan",
        props=(("table", table.name), ("buckets", str(table.num_buckets)))
        + _mode_props(parallelism),
    )
    return PlanNode(
        "Filter", props=(("predicate", str(predicate)),), children=(scan,)
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


# ----------------------------------------------------------------------
# binding: access path -> operators + node tree
# ----------------------------------------------------------------------


def bind_aggregate_plan(
    table: Table,
    logical: LogicalPlan,
    strategy: str,
    parallelism: ScanParallelism,
    *,
    sma_set=None,
    partitioning=None,
    tracer=NO_TRACER,
) -> PhysicalPlan:
    """Bind an aggregate access path ("sma_gaggr" or "gaggr")."""
    predicate = logical.predicate
    if strategy == "sma_gaggr":
        operator = SmaGAggr(
            table,
            predicate,
            logical.group_by,
            logical.aggregates,
            sma_set,
            partitioning=partitioning,
            parallelism=parallelism,
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
            )
            + _mode_props(parallelism),
        )
        root = PlanNode(
            "SmaGAggr",
            props=_aggregate_props(logical) + (("sma_set", sma_set.name),),
            children=(_grade_node(partitioning, sma_set), fetch),
        )
    elif strategy == "gaggr":
        operator = GAggr(
            table,
            predicate,
            logical.group_by,
            logical.aggregates,
            parallelism,
            tracer=tracer,
        )
        root = PlanNode(
            "GAggr",
            props=_aggregate_props(logical),
            children=(_filtered_scan_node(table, predicate, parallelism),),
        )
    else:
        raise ValueError(f"unknown aggregate strategy {strategy!r}")
    return PhysicalPlan(root, operator.execute, state_runner=operator.collect_state)


def bind_scan_plan(
    table: Table,
    logical: LogicalPlan,
    strategy: str,
    parallelism: ScanParallelism,
    *,
    sma_set=None,
    partitioning=None,
    tracer=NO_TRACER,
) -> PhysicalPlan:
    """Bind a tuple-returning access path ("sma_scan" or "seq_scan")."""
    predicate = logical.predicate
    if strategy == "sma_scan":
        fetched = partitioning.num_buckets - partitioning.num_disqualifying
        root = PlanNode(
            "SmaScan",
            props=(
                ("table", table.name),
                ("predicate", str(predicate)),
                ("buckets", _fraction(fetched, partitioning.num_buckets)),
            )
            + _mode_props(parallelism),
            children=(_grade_node(partitioning, sma_set),),
        )
    elif strategy == "seq_scan":
        root = _filtered_scan_node(table, predicate, parallelism)
    else:
        raise ValueError(f"unknown scan strategy {strategy!r}")
    # The seq_scan path carries no partitioning: every bucket is fetched.
    operator: Operator = Scan(
        table, predicate, partitioning, parallelism, tracer=tracer
    )
    if logical.columns:
        operator = Project(operator, logical.columns)
        root = PlanNode(
            "Project",
            props=(("columns", ", ".join(logical.columns)),),
            children=(root,),
        )
    return PhysicalPlan(root, _materialize_rows(operator))


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
