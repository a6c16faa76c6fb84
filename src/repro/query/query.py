"""Logical query descriptions the planner accepts.

Two shapes cover the paper's workloads:

* :class:`AggregateQuery` — single-table selection + grouping +
  aggregation (TPC-D Query 1 and 6 are instances);
* :class:`ScanQuery` — single-table selection returning tuples
  (the SMA_Scan use case, including the semi-join reduction of §4).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.core.aggregates import AggregateSpec
from repro.errors import PlanningError
from repro.lang.predicate import Predicate, TruePredicate
from repro.storage.schema import Schema

#: The shape every executed plan produces: (column names, result rows).
QueryRows = tuple[list[str], list[tuple]]

#: A bound, zero-argument plan executor.  Physical operators expose their
#: ``execute`` method with this signature and :class:`PhysicalPlan` wraps
#: exactly one of them as its runner.
PlanRunner = Callable[[], QueryRows]


@dataclass(frozen=True)
class OutputAggregate:
    """One aggregate in the select clause, with its output column name."""

    name: str
    spec: AggregateSpec

    def __str__(self) -> str:
        return f"{self.spec} AS {self.name}"


@dataclass(frozen=True)
class AggregateQuery:
    """``SELECT <group_by>, <aggregates> FROM t WHERE .. GROUP BY .. ORDER BY ..``"""

    table: str
    aggregates: tuple[OutputAggregate, ...]
    where: Predicate = field(default_factory=TruePredicate)
    group_by: tuple[str, ...] = ()
    order_by: tuple[str, ...] = ()
    #: subset of order_by sorted descending (the rest sort ascending)
    order_desc: frozenset[str] = frozenset()

    def __post_init__(self) -> None:
        if not self.aggregates:
            raise PlanningError("an aggregate query needs at least one aggregate")
        names = [a.name for a in self.aggregates]
        if len(set(names)) != len(names):
            raise PlanningError(f"duplicate output names {names}")
        stray = set(self.order_desc) - set(self.order_by)
        if stray:
            raise PlanningError(
                f"order_desc columns {sorted(stray)} not in order_by"
            )

    @property
    def output_columns(self) -> tuple[str, ...]:
        return self.group_by + tuple(a.name for a in self.aggregates)

    def validate(self, schema: Schema) -> None:
        self.where.bind(schema)
        for column in self.group_by:
            schema.column(column)
        for aggregate in self.aggregates:
            aggregate.spec.validate(schema)
            for column in aggregate.spec.columns():
                schema.column(column)
        for column in self.order_by:
            if column not in self.output_columns:
                raise PlanningError(
                    f"order-by column {column!r} is not in the output "
                    f"{self.output_columns}"
                )


@dataclass(frozen=True)
class ScanQuery:
    """``SELECT <columns|*> FROM t WHERE ..`` returning base tuples."""

    table: str
    where: Predicate = field(default_factory=TruePredicate)
    columns: tuple[str, ...] = ()  # empty means all columns

    def validate(self, schema: Schema) -> None:
        self.where.bind(schema)
        for column in self.columns:
            schema.column(column)


@dataclass(frozen=True)
class ExplainQuery:
    """``EXPLAIN SELECT ...`` — plan the wrapped query without running it."""

    query: AggregateQuery | ScanQuery


# ----------------------------------------------------------------------
# DML statements (the write path)
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class InsertStatement:
    """``INSERT INTO t [(c1, ...)] VALUES (v1, ...), (v2, ...)``.

    ``rows`` hold Python values in ``columns`` order (or full schema
    order when ``columns`` is empty); coercion to the storage domain
    happens at apply time against the table's schema.
    """

    table: str
    rows: tuple[tuple, ...]
    columns: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not self.rows:
            raise PlanningError("INSERT needs at least one VALUES row")
        widths = {len(row) for row in self.rows}
        if len(widths) != 1:
            raise PlanningError(f"INSERT rows have mixed widths {sorted(widths)}")
        if self.columns and len(self.columns) != len(self.rows[0]):
            raise PlanningError(
                f"INSERT names {len(self.columns)} columns but rows have "
                f"{len(self.rows[0])} values"
            )

    def validate(self, schema: Schema) -> None:
        names = self.columns or tuple(schema.names)
        for column in names:
            schema.column(column)
        if set(names) != set(schema.names):
            missing = sorted(set(schema.names) - set(names))
            raise PlanningError(
                f"INSERT must supply every column; missing {missing}"
            )
        if len(self.rows[0]) != len(schema.names):
            raise PlanningError(
                f"INSERT rows have {len(self.rows[0])} values; table "
                f"{self.table!r} has {len(schema.names)} columns"
            )


@dataclass(frozen=True)
class UpdateStatement:
    """``UPDATE t SET c = const [, ...] [WHERE ...]``.

    Assignments are restricted to literal constants — the incremental
    maintainer recomputes the touched buckets' SMA entries from the
    rewritten tuples, which only needs the new stored values.
    """

    table: str
    assignments: tuple[tuple[str, object], ...]
    where: Predicate = field(default_factory=TruePredicate)

    def __post_init__(self) -> None:
        if not self.assignments:
            raise PlanningError("UPDATE needs at least one SET assignment")
        names = [name for name, _ in self.assignments]
        if len(set(names)) != len(names):
            raise PlanningError(f"duplicate SET columns {names}")

    def validate(self, schema: Schema) -> None:
        self.where.bind(schema)
        for column, _ in self.assignments:
            schema.column(column)


@dataclass(frozen=True)
class DeleteStatement:
    """``DELETE FROM t [WHERE ...]``."""

    table: str
    where: Predicate = field(default_factory=TruePredicate)

    def validate(self, schema: Schema) -> None:
        self.where.bind(schema)


#: Union of the write-path statements the planner and service route.
DmlStatement = InsertStatement | UpdateStatement | DeleteStatement
