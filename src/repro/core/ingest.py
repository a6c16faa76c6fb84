"""Applying DML batches: serialization, intents, epochs (the write path).

:func:`apply_dml` is the single choke point every INSERT/UPDATE/DELETE
goes through — the SQL layer, the query service's write queue and the
shard workers' ``execute_dml`` frames all land here.  One application
follows the write-ahead protocol of :mod:`repro.storage.intents` under
the table's ingest lock:

1. take the catalog's per-table **ingest lock** (DML batches on one
   table apply strictly one at a time; readers never block);
2. append the **write-ahead intent** sidecar (pre-image geometry plus,
   for inserts, the trailing bucket's raw bytes);
3. write the data pages and advance/recompute the **SMA entries**
   through :class:`~repro.core.maintenance.SmaMaintainer` — the paper's
   "at most one additional page access" incremental maintenance; the
   maintainer ends by writing each changed SMA-file's meta sidecar once;
4. flush the heap sidecars, bump the table's **ingest epoch** — the
   moment new readers see the batch — and only then **retire the
   intent** (so a crash before the epoch persists still leaves the
   intent behind to tell recovery a bump is owed).

Readers admitted before step 4 hold a :class:`~repro.storage.table.
TableView` pinned at the previous epoch: appends only grow the heap and
the view bounds every bucket read to its frozen geometry, so in-flight
scans never observe the new rows (and never see a torn trailing
bucket).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.maintenance import SmaMaintainer
from repro.errors import PlanningError
from repro.query.query import (
    DeleteStatement,
    DmlStatement,
    InsertStatement,
    UpdateStatement,
)
from repro.storage.catalog import Catalog
from repro.storage.intents import (
    insert_intent,
    load_intent,
    mutation_intent,
    resolve_intent,
    retire_intent,
    write_intent,
)


@dataclass(frozen=True)
class DmlOutcome:
    """What one applied DML batch did: rows touched, epoch produced."""

    op: str  # "insert" | "update" | "delete"
    table: str
    rows_affected: int
    epoch: int


def build_insert_batch(statement: InsertStatement, schema) -> np.ndarray:
    """Coerce an INSERT's literal rows into a schema-ordered record batch."""
    statement.validate(schema)
    if statement.columns and tuple(statement.columns) != tuple(schema.names):
        order = [statement.columns.index(name) for name in schema.names]
        rows = [tuple(row[i] for i in order) for row in statement.rows]
    else:
        rows = list(statement.rows)
    return schema.batch_from_rows(rows)


def apply_dml(catalog: Catalog, statement: DmlStatement) -> DmlOutcome:
    """Apply one DML statement crash-consistently; returns its outcome.

    Serialized per table via the catalog's ingest lock; the intent
    sidecar brackets the data + SMA writes so ``repro verify --repair``
    can replay or roll back a batch interrupted at any point.
    """
    if not isinstance(
        statement, (InsertStatement, UpdateStatement, DeleteStatement)
    ):
        raise PlanningError(
            f"cannot apply {type(statement).__name__} as DML"
        )
    table = catalog.table(statement.table)
    with catalog.ingest_lock(statement.table):
        # Self-heal: a pending intent means an earlier batch died between
        # its intent append and retire (crash, or an exception mid-apply).
        # Resolve its heap geometry before stacking a new intent on top;
        # ``repro verify --repair`` then settles any SMA entry drift.
        pending = load_intent(table.heap.path)
        if pending is not None:
            action = resolve_intent(table.heap, pending)
            catalog.integrity.record_intent_resolution(
                table=statement.table,
                op=pending.op,
                epoch=pending.epoch,
                action=action,
            )
            if (
                action == "replayed"
                and catalog.ingest_epoch(statement.table) < pending.epoch
            ):
                catalog.bump_ingest_epoch(statement.table)
        maintainer = SmaMaintainer(table, catalog.sma_sets(statement.table))
        next_epoch = catalog.ingest_epoch(statement.table) + 1
        if isinstance(statement, InsertStatement):
            batch = build_insert_batch(statement, table.schema)
            intent = insert_intent(
                table.heap, statement.table, next_epoch, len(batch)
            )
            write_intent(table.heap, intent)
            maintainer.insert(batch)
            affected = len(batch)
            op = "insert"
        elif isinstance(statement, UpdateStatement):
            statement.validate(table.schema)
            intent = mutation_intent(
                table.heap, statement.table, next_epoch, "update"
            )
            write_intent(table.heap, intent)
            affected = maintainer.update_where(
                statement.where, dict(statement.assignments)
            )
            op = "update"
        else:
            statement.validate(table.schema)
            intent = mutation_intent(
                table.heap, statement.table, next_epoch, "delete"
            )
            write_intent(table.heap, intent)
            affected = maintainer.delete_where(statement.where)
            op = "delete"
        # Durability point: data + SMA sidecars down, then the epoch
        # advances (readers switch snapshots), then the intent retires.
        # The bump MUST precede the retire: a crash after retiring but
        # before the manifest write would leave a fully-applied batch
        # with no intent to tell recovery the epoch is owed a bump.
        # With this order a pending intent always covers the gap, and
        # replay only bumps when the recorded epoch is still ahead.
        table.heap.flush()
        epoch = catalog.bump_ingest_epoch(statement.table)
        retire_intent(table.heap.path)
    return DmlOutcome(
        op=op, table=statement.table, rows_affected=affected, epoch=epoch
    )


__all__ = ["DmlOutcome", "apply_dml", "build_insert_batch"]
