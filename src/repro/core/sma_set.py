"""SMA sets: the collection of SMA-files that serves queries on a table.

"A single SMA is rarely useful, but in most situations a set of SMAs is
required to answer a query efficiently."  A :class:`SmaSet` groups the
materialized definitions (each expanded into one SMA-file per group),
answers the planner's two questions —

* *partition*: grade every bucket against a selection predicate using
  whatever min/max/count SMAs apply (Section 3.1, including grouped
  min/max and count-SMA grading), and
* *aggregate lookup*: find the SMA-files materializing a query
  aggregate so SMA_GAggr can take qualifying buckets' values straight
  from them —

and handles persistence of the whole set next to its SMA-files.
"""

from __future__ import annotations

import json
import os
import re

import numpy as np

from repro.errors import CatalogError, SmaStateError
from repro.core.aggregates import AggregateKind, AggregateSpec
from repro.core.definition import SmaDefinition
from repro.core.grade import (
    partition_column_column,
    partition_column_const,
    partition_count_sma,
)
from repro.core.grouping import GroupKey
from repro.core.partition import BucketPartitioning
from repro.core.sma_file import SmaFile
from repro.lang.expr import ColumnRef
from repro.lang.predicate import (
    And,
    ColumnColumnCmp,
    ColumnConstCmp,
    Not,
    Or,
    Predicate,
    TruePredicate,
)
from repro.lang.serde import (
    expr_from_json,
    expr_to_json,
    group_key_from_json,
    group_key_to_json,
)
from repro.storage.sidecar import write_atomic
from repro.storage.table import Table

_META_FILE = "smaset.json"


def _safe_fragment(text: str) -> str:
    """File-name-safe, injective rendering of a group key part: every
    UTF-8 byte outside ``[A-Za-z0-9.-]``, ``_`` and ``%`` included, is
    ``%XX``, so ``_`` can join a key's parts (``'REG AIR'`` is
    ``REG%20AIR``, ``'REG_AIR'`` is ``REG%5FAIR``)."""
    return re.sub(
        rb"[^A-Za-z0-9.-]",
        lambda match: b"%%%02X" % match.group()[0],
        text.encode(),
    ).decode("ascii")


class SmaSet:
    """All SMA-files materialized under one name for one table."""

    def __init__(self, name: str, table: Table, directory: str):
        self.name = name
        self.table = table
        self.directory = directory
        os.makedirs(directory, exist_ok=True)
        self.definitions: dict[str, SmaDefinition] = {}
        self._files: dict[str, dict[GroupKey, SmaFile]] = {}
        #: optional second-level SMAs by column (Section 4); consulted
        #: by partition() before falling back to the flat min/max files.
        self._hierarchies: dict[str, object] = {}
        #: definitions withdrawn from service after failing integrity
        #: verification (name -> reason).  Quarantined definitions are
        #: skipped by every grading/lookup path — queries degrade to the
        #: heap scan — until ``repro verify --repair`` rebuilds them.
        self.quarantined: dict[str, str] = {}

    # ------------------------------------------------------------------
    # registration & persistence
    # ------------------------------------------------------------------

    def add_materialized(
        self, definition: SmaDefinition, files: dict[GroupKey, SmaFile]
    ) -> None:
        """Attach a freshly built definition with its per-group files."""
        if definition.name in self.definitions:
            raise CatalogError(
                f"SMA {definition.name!r} already in set {self.name!r}"
            )
        if definition.table_name != self.table.name:
            raise CatalogError(
                f"SMA on {definition.table_name!r} cannot join a set on "
                f"{self.table.name!r}"
            )
        self.definitions[definition.name] = definition
        self._files[definition.name] = dict(files)

    def file_path(self, definition_name: str, group_key: GroupKey) -> str:
        """Canonical path of one SMA-file inside this set's directory."""
        if group_key:
            suffix = "__" + "_".join(_safe_fragment(str(p)) for p in group_key)
        else:
            suffix = ""
        return os.path.join(self.directory, f"{definition_name}{suffix}.sma")

    def save(self) -> None:
        """Persist set metadata (definitions + file map) as JSON."""
        definitions = []
        for name, definition in self.definitions.items():
            files = [
                {
                    "group_key": group_key_to_json(key),
                    "path": os.path.relpath(sma.path, self.directory),
                }
                for key, sma in self._files[name].items()
            ]
            definitions.append(
                {
                    "name": name,
                    "kind": definition.aggregate.kind.value,
                    "argument": (
                        None
                        if definition.aggregate.argument is None
                        else expr_to_json(definition.aggregate.argument)
                    ),
                    "group_by": list(definition.group_by),
                    "files": files,
                }
            )
        meta = {"name": self.name, "table": self.table.name, "definitions": definitions}
        # Atomic: the DML maintainer saves after a batch that adds a
        # file; a crash mid-write must not garble the set manifest.
        write_atomic(
            os.path.join(self.directory, _META_FILE),
            json.dumps(meta, indent=1).encode(),
        )

    @classmethod
    def open(cls, directory: str, table: Table) -> "SmaSet":
        """Re-open a persisted set; *table* must be the same relation."""
        with open(os.path.join(directory, _META_FILE), "r", encoding="utf-8") as f:
            meta = json.load(f)
        if meta["table"] != table.name:
            raise CatalogError(
                f"SMA set at {directory} belongs to table {meta['table']!r}, "
                f"not {table.name!r}"
            )
        sma_set = cls(meta["name"], table, directory)
        for entry in meta["definitions"]:
            argument = (
                None if entry["argument"] is None else expr_from_json(entry["argument"])
            )
            definition = SmaDefinition(
                entry["name"],
                table.name,
                AggregateSpec(AggregateKind(entry["kind"]), argument),
                tuple(entry["group_by"]),
            )
            files = {
                group_key_from_json(f["group_key"]): SmaFile.open(
                    os.path.join(directory, f["path"]), table.heap.pool
                )
                for f in entry["files"]
            }
            sma_set.add_materialized(definition, files)
        return sma_set

    # ------------------------------------------------------------------
    # inventory
    # ------------------------------------------------------------------

    def files_of(self, definition_name: str) -> dict[GroupKey, SmaFile]:
        try:
            return self._files[definition_name]
        except KeyError:
            raise CatalogError(
                f"no SMA {definition_name!r} in set {self.name!r}"
            ) from None

    def all_files(self) -> list[SmaFile]:
        return [sma for files in self._files.values() for sma in files.values()]

    # ------------------------------------------------------------------
    # quarantine (integrity degradation)
    # ------------------------------------------------------------------

    def quarantine(self, definition_name: str, reason: str) -> None:
        """Withdraw a definition from service until it is rebuilt."""
        if definition_name not in self.definitions:
            raise CatalogError(
                f"no SMA {definition_name!r} in set {self.name!r}"
            )
        self.quarantined.setdefault(definition_name, reason)

    def is_quarantined(self, definition_name: str) -> bool:
        return definition_name in self.quarantined

    def definition_for_path(self, path: str | None) -> str | None:
        """Which definition owns the SMA-file at *path* (None if unknown)."""
        if path is None:
            return None
        target = os.path.abspath(path)
        for name, files in self._files.items():
            for sma in files.values():
                if os.path.abspath(sma.path) == target:
                    return name
        return None

    def replace_files(self, definition_name: str, files: dict[GroupKey, SmaFile]) -> None:
        """Swap in freshly rebuilt files and lift any quarantine."""
        if definition_name not in self.definitions:
            raise CatalogError(
                f"no SMA {definition_name!r} in set {self.name!r}"
            )
        self._files[definition_name] = dict(files)
        self.quarantined.pop(definition_name, None)

    @property
    def num_files(self) -> int:
        return len(self.all_files())

    @property
    def total_pages(self) -> int:
        return sum(sma.num_pages for sma in self.all_files())

    @property
    def total_bytes(self) -> int:
        return sum(sma.size_bytes for sma in self.all_files())

    def definition_pages(self, definition_name: str) -> int:
        return sum(sma.num_pages for sma in self.files_of(definition_name).values())

    # ------------------------------------------------------------------
    # aggregate lookup (for SMA_GAggr)
    # ------------------------------------------------------------------

    def aggregate_files(
        self, spec: AggregateSpec, group_by: tuple[str, ...]
    ) -> dict[GroupKey, SmaFile] | None:
        """SMA-files materializing *spec* under exactly *group_by*, or None.

        Quarantined definitions are invisible here (and in every other
        lookup): a damaged SMA must never serve a query.
        """
        for name, definition in self.definitions.items():
            if name in self.quarantined:
                continue
            if definition.matches(spec, group_by):
                return self._files[name]
        return None

    def rollup_aggregate_files(
        self, spec: AggregateSpec, group_by: tuple[str, ...]
    ) -> tuple[dict[GroupKey, SmaFile], tuple[int, ...]] | None:
        """SMA-files for *spec* under *group_by* **or any finer grouping**.

        "In order to be useful, a SMA has to reflect the grouping of the
        query or a finer grouping" (Section 2.3, after [10]).  A finer
        SMA — grouped by a superset of the query's columns — serves the
        query by *rolling up*: every finer group key projects onto a
        coarse key and its per-bucket values aggregate into it (sums and
        counts add; mins/maxs combine by min/max).

        Returns ``(files, projection)`` where ``projection`` holds the
        positions of the query's group-by columns inside the
        definition's group-by tuple (empty for an exact match of an
        ungrouped query).  Exact matches are preferred (no roll-up
        work); among finer candidates the one with the fewest extra
        columns wins (fewest files to read).
        """
        exact = self.aggregate_files(spec, group_by)
        if exact is not None:
            return exact, tuple(range(len(group_by)))
        candidates: list[SmaDefinition] = []
        for definition in self.definitions.values():
            if definition.name in self.quarantined:
                continue
            if definition.aggregate != spec:
                continue
            if set(group_by) <= set(definition.group_by):
                candidates.append(definition)
        if not candidates:
            return None
        chosen = min(candidates, key=lambda d: len(d.group_by))
        projection = tuple(chosen.group_by.index(c) for c in group_by)
        return self._files[chosen.name], projection

    @staticmethod
    def project_group_key(key: GroupKey, projection: tuple[int, ...]) -> GroupKey:
        """Roll a finer group key up to the query's grouping."""
        return tuple(key[i] for i in projection)

    # ------------------------------------------------------------------
    # hierarchical SMAs (Section 4)
    # ------------------------------------------------------------------

    def build_hierarchy(
        self, column: str, *, entries_per_block: int | None = None
    ):
        """Derive and attach a two-level SMA for *column*.

        Requires ungrouped min and max definitions on the column.  Once
        attached, :meth:`partition` grades atoms on this column through
        the hierarchy: qualifying/disqualifying second-level blocks skip
        their first-level pages entirely.
        """
        from repro.core.hierarchy import HierarchicalMinMax

        min_files = self.aggregate_files(
            AggregateSpec(AggregateKind.MIN, ColumnRef(column)), ()
        )
        max_files = self.aggregate_files(
            AggregateSpec(AggregateKind.MAX, ColumnRef(column)), ()
        )
        if not min_files or not max_files:
            raise SmaStateError(
                f"a hierarchy on {column!r} needs ungrouped min and max SMAs"
            )
        hierarchy = HierarchicalMinMax.build(
            column,
            min_files[()],
            max_files[()],
            self.table.heap.pool,
            os.path.join(self.directory, "hierarchy"),
            entries_per_block=entries_per_block,
        )
        self._hierarchies[column] = hierarchy
        return hierarchy

    def hierarchy_for(self, column: str):
        """The attached hierarchy on *column*, or None."""
        return self._hierarchies.get(column)

    def drop_hierarchy(self, column: str) -> None:
        hierarchy = self._hierarchies.pop(column, None)
        if hierarchy is not None:
            hierarchy.delete_files()

    def invalidate_hierarchies(self) -> None:
        """Drop all hierarchies (DML changed the first-level files).

        Called by :class:`~repro.core.maintenance.SmaMaintainer` before
        any mutation; hierarchies are cheap to rebuild in bulk but are
        not incrementally maintained (the paper leaves them to bulk
        environments)."""
        for column in list(self._hierarchies):
            self.drop_hierarchy(column)

    # ------------------------------------------------------------------
    # predicate grading (Section 3.1)
    # ------------------------------------------------------------------

    def partition(
        self, predicate: Predicate, *, charge: bool = True
    ) -> BucketPartitioning:
        """Grade every bucket of the table against *predicate*.

        Every SMA-file consulted is charged exactly once per call (the
        operators scan all SMAs sequentially, in sync — Section 2.3),
        regardless of how many atoms reference the same column.
        """
        bound = predicate.bind(self.table.schema)
        used: set[int] = set()
        charged_files: list[SmaFile] = []

        def remember(sma: SmaFile) -> SmaFile:
            if id(sma) not in used:
                used.add(id(sma))
                charged_files.append(sma)
            return sma

        partitioning = self._walk(bound, remember, charge)
        if charge:
            for sma in charged_files:
                sma.values(charge=True)
        return partitioning

    def _walk(
        self, predicate: Predicate, remember, charge: bool
    ) -> BucketPartitioning:
        num_buckets = self.table.num_buckets
        if isinstance(predicate, TruePredicate):
            return BucketPartitioning.all_qualifying(num_buckets)
        if isinstance(predicate, And):
            result = self._walk(predicate.operands[0], remember, charge)
            for operand in predicate.operands[1:]:
                result = result & self._walk(operand, remember, charge)
            return result
        if isinstance(predicate, Or):
            result = self._walk(predicate.operands[0], remember, charge)
            for operand in predicate.operands[1:]:
                result = result | self._walk(operand, remember, charge)
            return result
        if isinstance(predicate, Not):
            return self._walk(predicate.operand, remember, charge).invert()
        if isinstance(predicate, ColumnConstCmp):
            return self._atom_const(predicate, remember, charge)
        if isinstance(predicate, ColumnColumnCmp):
            return self._atom_column(predicate, remember)
        raise SmaStateError(f"cannot grade predicate {predicate!r}")

    def _empty_buckets(self) -> np.ndarray:
        return np.asarray(self.table.heap.bucket_counts()) == 0

    def _atom_const(
        self, predicate: ColumnConstCmp, remember, charge: bool = False
    ) -> BucketPartitioning:
        num_buckets = self.table.num_buckets
        result = BucketPartitioning.all_ambivalent(num_buckets)
        empty = self._empty_buckets()

        hierarchy = self._hierarchies.get(predicate.column)
        if hierarchy is not None:
            # The hierarchy charges exactly the level-2 pages plus the
            # drilled level-1 ranges itself — the Section 4 saving.
            graded = hierarchy.partition(predicate, num_buckets, charge=charge)
            result = result.refine(
                BucketPartitioning(
                    graded.qualifying & ~empty,
                    graded.disqualifying | empty,
                )
            )
        else:
            bounds = self.column_bounds(predicate.column, remember)
            if bounds is not None:
                mins, maxs, valid = bounds
                result = result.refine(
                    partition_column_const(
                        predicate.op,
                        predicate.constant,
                        num_buckets,
                        mins=mins,
                        maxs=maxs,
                        valid=valid,
                        empty=empty,
                    )
                )

        value_counts = self._count_sma_values(predicate.column, remember)
        if value_counts is not None:
            result = result.refine(
                partition_count_sma(
                    predicate.op, predicate.constant, num_buckets, value_counts
                )
            )
        return result

    def _atom_column(
        self, predicate: ColumnColumnCmp, remember
    ) -> BucketPartitioning:
        num_buckets = self.table.num_buckets
        empty = self._empty_buckets()
        bounds_a = self.column_bounds(predicate.left, remember)
        bounds_b = self.column_bounds(predicate.right, remember)
        if bounds_a is None or bounds_b is None:
            return BucketPartitioning.all_ambivalent(num_buckets)
        mins_a, maxs_a, valid_a = bounds_a
        mins_b, maxs_b, valid_b = bounds_b
        valid = None
        if valid_a is not None or valid_b is not None:
            valid = np.ones(num_buckets, dtype=bool)
            if valid_a is not None:
                valid &= valid_a
            if valid_b is not None:
                valid &= valid_b
        return partition_column_column(
            predicate.op,
            num_buckets,
            mins_a=mins_a,
            maxs_a=maxs_a,
            mins_b=mins_b,
            maxs_b=maxs_b,
            valid=valid,
            empty=empty,
        )

    def column_bounds(
        self, column: str, remember=None
    ) -> tuple[np.ndarray | None, np.ndarray | None, np.ndarray | None] | None:
        """Per-bucket (mins, maxs, valid) for *column* from this set.

        Prefers ungrouped min/max SMAs; falls back to reducing grouped
        min/max SMAs over their groups ("we have to consider the maximum
        value of A for all groups", Section 3.1).  Returns None when the
        set materializes neither bound.
        """
        if remember is None:
            remember = lambda sma: sma  # noqa: E731 - trivial identity

        mins, valid_min = self._reduced_bound(column, AggregateKind.MIN, remember)
        maxs, valid_max = self._reduced_bound(column, AggregateKind.MAX, remember)
        if mins is None and maxs is None:
            return None
        valid: np.ndarray | None = None
        if valid_min is not None:
            valid = valid_min
        if valid_max is not None:
            valid = valid_max if valid is None else (valid & valid_max)
        return mins, maxs, valid

    def _reduced_bound(
        self, column: str, kind: AggregateKind, remember
    ) -> tuple[np.ndarray | None, np.ndarray | None]:
        spec = AggregateSpec(kind, ColumnRef(column))
        candidates = [
            name
            for name, definition in self.definitions.items()
            if definition.aggregate == spec and name not in self.quarantined
        ]
        if not candidates:
            return None, None
        # Prefer an ungrouped definition: one file instead of G.
        candidates.sort(key=lambda name: len(self.definitions[name].group_by))
        chosen = candidates[0]
        files = self._files[chosen]
        combined: np.ndarray | None = None
        combined_valid: np.ndarray | None = None
        for sma in files.values():
            remember(sma)
            values = sma.values(charge=False)
            mask = sma.valid_mask()
            valid = np.ones(len(values), dtype=bool) if mask is None else mask
            if combined is None:
                combined = values.copy()
                combined_valid = valid.copy()
                continue
            if kind is AggregateKind.MIN:
                better = values < combined
            else:
                better = values > combined
            take = valid & (~combined_valid | better)
            combined = np.where(take, values, combined)
            combined_valid = combined_valid | valid
        assert combined is not None and combined_valid is not None
        if combined_valid.all():
            return combined, None
        return combined, combined_valid

    def _count_sma_values(
        self, column: str, remember
    ) -> dict[object, np.ndarray] | None:
        """Per-value count vectors from a count SMA grouped solely by *column*."""
        for name, definition in self.definitions.items():
            if name in self.quarantined:
                continue
            if (
                definition.aggregate.kind is AggregateKind.COUNT
                and definition.group_by == (column,)
            ):
                files = self._files[name]
                result: dict[object, np.ndarray] = {}
                for key, sma in files.items():
                    remember(sma)
                    raw = sma.values(charge=False)
                    # Group keys are user-facing; comparisons must happen
                    # in the storage domain, so re-coerce the key value.
                    from repro.lang.values import storage_constant

                    stored = storage_constant(
                        self.table.schema.dtype_of(column), key[0]
                    )
                    result[stored] = raw
                return result
        return None

    def __repr__(self) -> str:
        return (
            f"SmaSet({self.name!r} on {self.table.name!r}: "
            f"{len(self.definitions)} definitions, {self.num_files} files, "
            f"{self.total_pages} pages)"
        )
