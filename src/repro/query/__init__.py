"""Query engine: logical/physical plan IR, SMA-aware planning, session façade."""

from repro.query.aggregation import AggregationState
from repro.query.gaggr import GAggr
from repro.query.iterators import Operator, Project, Scan
from repro.query.logical import LogicalPlan, build_logical, normalize_predicate
from repro.query.physical import PhysicalPlan, PlanNode
from repro.query.planner import (
    AccessPath,
    Explanation,
    GradingSummary,
    Plan,
    PlanInfo,
    Planner,
    fetch_io_profile,
)
from repro.query.query import (
    AggregateQuery,
    ExplainQuery,
    OutputAggregate,
    PlanRunner,
    QueryRows,
    ScanQuery,
)
from repro.query.session import QueryResult, Session
from repro.query.sma_gaggr import SmaGAggr, sma_covers, sma_requirements

__all__ = [
    "AccessPath",
    "AggregateQuery",
    "AggregationState",
    "Explanation",
    "ExplainQuery",
    "GAggr",
    "GradingSummary",
    "LogicalPlan",
    "Operator",
    "OutputAggregate",
    "PhysicalPlan",
    "Plan",
    "PlanInfo",
    "PlanNode",
    "PlanRunner",
    "Planner",
    "Project",
    "QueryResult",
    "QueryRows",
    "Scan",
    "ScanQuery",
    "Session",
    "SmaGAggr",
    "build_logical",
    "fetch_io_profile",
    "normalize_predicate",
    "sma_covers",
    "sma_requirements",
]
