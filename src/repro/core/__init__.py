"""The paper's contribution: Small Materialized Aggregates.

Definitions, SMA-files, bulkloading, the Section 3.1 grading rules,
incremental maintenance, hierarchical SMAs and semi-join SMAs.
"""

from repro.core.aggregates import (
    AggregateKind,
    AggregateSpec,
    average,
    count_star,
    maximum,
    minimum,
    total,
)
from repro.core.builder import SmaBuildReport, build_sma_set
from repro.core.definition import SmaDefinition
from repro.core.grade import (
    partition_column_column,
    partition_column_const,
    partition_count_sma,
)
from repro.core.grouping import GroupKey, bucket_groups, group_key_label
from repro.core.hierarchy import HierarchicalMinMax
from repro.core.maintenance import SmaMaintainer
from repro.core.partition import BucketPartitioning, Grade
from repro.core.semijoin import (
    SemiJoinBounds,
    collect_bounds,
    reduction_predicate,
    semijoin,
)
from repro.core.sma_file import SmaFile
from repro.core.sma_set import SmaSet

__all__ = [
    "AggregateKind",
    "AggregateSpec",
    "BucketPartitioning",
    "Grade",
    "GroupKey",
    "HierarchicalMinMax",
    "SemiJoinBounds",
    "SmaBuildReport",
    "SmaDefinition",
    "SmaFile",
    "SmaMaintainer",
    "SmaSet",
    "collect_bounds",
    "reduction_predicate",
    "semijoin",
    "average",
    "bucket_groups",
    "build_sma_set",
    "count_star",
    "group_key_label",
    "maximum",
    "minimum",
    "partition_column_column",
    "partition_column_const",
    "partition_count_sma",
    "total",
]
