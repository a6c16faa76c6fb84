"""Materialized data cubes — the structure SMAs are an alternative to.

Two pieces:

* the **closed-form space model** the paper uses in Section 2.4
  (following [5, 18]): a cube over dimensions with cardinalities
  ``c1..cd`` and an entry of ``w`` bytes occupies ``c1·…·cd · w`` bytes.
  The paper's numbers — 479.25 KB, 1 196.25 MB, 2 985.95 GB for one,
  two and three date dimensions (each of 2 556 days) times the 4
  returnflag/linestatus combinations times a 48-byte entry — fall
  straight out of :func:`cube_bytes`;
* a real (dense-array) :class:`DataCube` implementation so the space
  model can be validated against a materialized instance at small
  cardinality, and so cube *inflexibility* can be demonstrated: a query
  whose selection attribute is not among the cube's dimensions simply
  cannot be answered (``CubeMissError``).
"""

from __future__ import annotations

from dataclasses import dataclass


from repro.core.aggregates import AggregateKind
from repro.core.grouping import bucket_groups
from repro.errors import ReproError
from repro.query.query import OutputAggregate
from repro.storage.table import Table


class CubeMissError(ReproError):
    """The cube cannot answer this query (missing dimension/aggregate)."""


def cube_cells(dimension_cardinalities: list[int]) -> int:
    """Number of cells of a complete data cube over these dimensions."""
    cells = 1
    for cardinality in dimension_cardinalities:
        if cardinality <= 0:
            raise ReproError(f"cardinality must be positive, got {cardinality}")
        cells *= cardinality
    return cells


def cube_bytes(dimension_cardinalities: list[int], entry_bytes: int = 48) -> int:
    """Paper-style cube size: cells × entry width.

    Query 1 needs 6 aggregates of 8 bytes → 48-byte entries, the
    default.
    """
    return cube_cells(dimension_cardinalities) * entry_bytes


@dataclass
class CubeSpaceReport:
    """One line of the paper's cube-vs-SMA space comparison."""

    dimensions: list[int]
    entry_bytes: int
    total_bytes: int

    @property
    def human(self) -> str:
        size = float(self.total_bytes)
        for unit in ("B", "KB", "MB", "GB", "TB"):
            if size < 1024 or unit == "TB":
                return f"{size:.2f} {unit}"
            size /= 1024
        raise AssertionError  # pragma: no cover


def paper_cube_comparison(
    date_cardinality: int = 2556,
    flag_combinations: int = 4,
    entry_bytes: int = 48,
    max_dates: int = 3,
) -> list[CubeSpaceReport]:
    """The Section 2.4 sequence: cubes with 1, 2, 3 date dimensions."""
    reports = []
    for num_dates in range(1, max_dates + 1):
        dims = [date_cardinality] * num_dates + [flag_combinations]
        reports.append(
            CubeSpaceReport(dims, entry_bytes, cube_bytes(dims, entry_bytes))
        )
    return reports


class DataCube:
    """A dense materialized data cube over explicit dimension columns.

    Supports the cube's one query shape: group-by over (a subset of) the
    dimensions with the materialized aggregates, optionally sliced by
    exact dimension values.  Anything else raises :class:`CubeMissError`
    — which is precisely the paper's flexibility argument.
    """

    def __init__(
        self,
        dimensions: tuple[str, ...],
        aggregates: tuple[OutputAggregate, ...],
        entry_bytes: int | None = None,
    ):
        if not dimensions:
            raise ReproError("a data cube needs at least one dimension")
        for aggregate in aggregates:
            if aggregate.spec.kind is AggregateKind.AVG:
                raise ReproError(
                    "materialize sum and count; avg derives at query time"
                )
        self.dimensions = dimensions
        self.aggregates = aggregates
        self.entry_bytes = (
            entry_bytes if entry_bytes is not None else 8 * len(aggregates)
        )
        self._cells: dict[tuple, list] = {}
        self._dimension_values: list[set] = [set() for _ in dimensions]

    @classmethod
    def build(
        cls,
        table: Table,
        dimensions: tuple[str, ...],
        aggregates: tuple[OutputAggregate, ...],
    ) -> "DataCube":
        """One scan of the table materializes the finest grouping."""
        cube = cls(dimensions, aggregates)
        stats = table.heap.pool.stats
        schema = table.schema
        for _, records in table.iter_buckets():
            stats.tuples_built += len(records)
            keys, inverse = bucket_groups(records, dimensions, schema)
            argument_values = [
                None if a.spec.argument is None else a.spec.argument.evaluate(records)
                for a in aggregates
            ]
            for j, key in enumerate(keys):
                mask = inverse == j
                cell = cube._cell(key)
                for i, aggregate in enumerate(aggregates):
                    kind = aggregate.spec.kind
                    if kind is AggregateKind.COUNT:
                        cell[i] += int(mask.sum())
                        continue
                    values = argument_values[i][mask]
                    if kind is AggregateKind.SUM:
                        cell[i] += values.sum()
                    elif kind is AggregateKind.MIN:
                        low = values.min()
                        cell[i] = low if cell[i] is None else min(cell[i], low)
                    elif kind is AggregateKind.MAX:
                        high = values.max()
                        cell[i] = high if cell[i] is None else max(cell[i], high)
        return cube

    def _cell(self, key: tuple) -> list:
        cell = self._cells.get(key)
        if cell is None:
            cell = [
                0 if a.spec.kind in (AggregateKind.SUM, AggregateKind.COUNT) else None
                for a in self.aggregates
            ]
            self._cells[key] = cell
            for position, part in enumerate(key):
                self._dimension_values[position].add(part)
        return cell

    # ------------------------------------------------------------------
    # space accounting
    # ------------------------------------------------------------------

    @property
    def allocated_cells(self) -> int:
        """Complete-cube cell count: the product of the cardinalities."""
        return cube_cells([max(len(v), 1) for v in self._dimension_values])

    @property
    def allocated_bytes(self) -> int:
        return self.allocated_cells * self.entry_bytes

    # ------------------------------------------------------------------
    # querying
    # ------------------------------------------------------------------

    def query(
        self,
        group_by: tuple[str, ...],
        *,
        slice_equals: dict[str, object] | None = None,
    ) -> tuple[list[str], list[tuple]]:
        """Roll up to *group_by*, optionally slicing dimensions by value.

        Raises :class:`CubeMissError` when a referenced column is not a
        cube dimension — e.g. an additional selection on a date the cube
        designer did not foresee (the paper's inflexibility argument).
        """
        slice_equals = slice_equals or {}
        for column in tuple(group_by) + tuple(slice_equals):
            if column not in self.dimensions:
                raise CubeMissError(
                    f"{column!r} is not a cube dimension {self.dimensions}; "
                    f"the cube cannot answer this query"
                )
        positions = [self.dimensions.index(name) for name in group_by]
        slice_positions = {
            self.dimensions.index(name): value
            for name, value in slice_equals.items()
        }
        rollup: dict[tuple, list] = {}
        for key, cell in self._cells.items():
            if any(key[p] != v for p, v in slice_positions.items()):
                continue
            out_key = tuple(key[p] for p in positions)
            target = rollup.get(out_key)
            if target is None:
                rollup[out_key] = list(cell)
                continue
            for i, aggregate in enumerate(self.aggregates):
                kind = aggregate.spec.kind
                if kind in (AggregateKind.SUM, AggregateKind.COUNT):
                    target[i] += cell[i]
                elif kind is AggregateKind.MIN:
                    target[i] = min(target[i], cell[i])
                elif kind is AggregateKind.MAX:
                    target[i] = max(target[i], cell[i])
        columns = list(group_by) + [a.name for a in self.aggregates]
        rows = [
            key + tuple(values)
            for key, values in sorted(rollup.items(), key=lambda kv: repr(kv[0]))
        ]
        return columns, rows

    def dimension_cardinalities(self) -> list[int]:
        return [len(values) for values in self._dimension_values]
