"""The catalog: the database instance owning tables, SMAs and the pool.

A :class:`Catalog` ties together one directory of heap files, one shared
buffer pool (with its :class:`~repro.storage.stats.IoStats`), and the
registries of tables and SMA sets.  It is the root object users create;
everything else hangs off it.
"""

from __future__ import annotations

import json
import os
import threading
from typing import TYPE_CHECKING, Iterator

from repro.errors import CatalogError
from repro.storage.buffer import BufferPool
from repro.storage.heapfile import HeapFile
from repro.storage.integrity import IntegrityMonitor
from repro.storage.page import DEFAULT_PAGE_SIZE
from repro.storage.schema import Schema
from repro.storage.sidecar import write_atomic
from repro.storage.stats import IoStats
from repro.storage.table import Table, TableView

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.core.sma_set import SmaSet


class Catalog:
    """Tables + SMA sets sharing one directory and one buffer pool."""

    MANIFEST = "catalog.json"

    def __init__(
        self,
        root_dir: str,
        *,
        buffer_pages: int = 2048,
        read_only: bool = False,
    ):
        os.makedirs(root_dir, exist_ok=True)
        self.root_dir = root_dir
        #: Read-only attach (scan worker processes): never rewrite the
        #: manifest, even on registration during :meth:`discover`.
        self.read_only = read_only
        self.stats = IoStats()
        self.pool = BufferPool(capacity_pages=buffer_pages, stats=self.stats)
        #: Integrity accounting: the planner records SMA quarantines here
        #: and services subscribe for events/metrics (see
        #: :mod:`repro.storage.integrity`).
        self.integrity = IntegrityMonitor()
        self._tables: dict[str, Table] = {}
        self._sma_sets: dict[str, dict[str, "SmaSet"]] = {}
        #: Monotone per-table ingest epochs: every applied DML batch
        #: bumps its table's epoch.  Readers pin the epoch (and the
        #: bucket-generation snapshot that goes with it) at admission
        #: via :meth:`pin_view`.
        self._ingest_epochs: dict[str, int] = {}
        #: Per-table write serialization: DML batches on one table apply
        #: strictly one at a time; readers never take this lock.
        self._ingest_locks: dict[str, threading.Lock] = {}
        self._ingest_locks_guard = threading.Lock()
        #: Callbacks invoked by :meth:`go_cold` after the pool and decode
        #: caches drop — services register derived caches (e.g. the
        #: result cache) here so "cold" means *every* caching layer.
        self._cold_hooks: list = []

    def install_fault_injector(self, injector) -> None:
        """Attach a :class:`~repro.storage.faults.FaultInjector` (or None)
        to this catalog's buffer pool; all files see it immediately."""
        self.pool.fault_injector = injector

    # ------------------------------------------------------------------
    # manifest & discovery
    # ------------------------------------------------------------------

    @property
    def _manifest_path(self) -> str:
        return os.path.join(self.root_dir, self.MANIFEST)

    def _load_manifest(self) -> dict:
        if not os.path.exists(self._manifest_path):
            return {"tables": {}, "sma_sets": {}}
        with open(self._manifest_path, "r", encoding="utf-8") as f:
            return json.load(f)

    def _save_manifest(self) -> None:
        if self.read_only:
            return
        manifest = {
            "tables": {
                name: {"clustered_on": table.clustered_on}
                for name, table in self._tables.items()
            },
            "sma_sets": {
                table_name: {
                    set_name: os.path.relpath(sma_set.directory, self.root_dir)
                    for set_name, sma_set in by_name.items()
                }
                for table_name, by_name in self._sma_sets.items()
                if by_name
            },
            "ingest_epochs": {
                name: epoch
                for name, epoch in self._ingest_epochs.items()
                if epoch
            },
        }
        # Atomic replace: concurrent readers (spawning scan worker
        # processes re-running discovery) must never observe a
        # truncated manifest mid-rewrite, and the manifest is durable
        # before ``apply_dml`` retires the batch's intent.
        write_atomic(
            self._manifest_path, json.dumps(manifest, indent=1).encode()
        )

    @classmethod
    def discover(
        cls,
        root_dir: str,
        *,
        buffer_pages: int = 2048,
        fault_injector=None,
        read_only: bool = False,
    ) -> "Catalog":
        """Re-open a persisted catalog: every table and SMA set listed in
        its manifest comes back registered and query-ready.

        ``fault_injector`` attaches before anything opens, so SMA body
        reads during discovery already run under injected faults — the
        chaos suite uses this to corrupt files "in flight".

        ``read_only`` attaches without ever rewriting the manifest —
        scan worker processes use this so concurrent spawns cannot race
        the file."""
        from repro.core.sma_set import SmaSet

        catalog = cls(root_dir, buffer_pages=buffer_pages, read_only=read_only)
        if fault_injector is not None:
            catalog.install_fault_injector(fault_injector)
        manifest = catalog._load_manifest()
        for name, epoch in manifest.get("ingest_epochs", {}).items():
            catalog._ingest_epochs[name] = int(epoch)
        for name, info in manifest.get("tables", {}).items():
            catalog.open_table(name, clustered_on=info.get("clustered_on"))
        for table_name, sets in manifest.get("sma_sets", {}).items():
            table = catalog.table(table_name)
            for set_name, rel_dir in sets.items():
                sma_set = SmaSet.open(
                    os.path.join(root_dir, rel_dir), table
                )
                catalog.register_sma_set(table_name, sma_set)
        return catalog

    # ------------------------------------------------------------------
    # tables
    # ------------------------------------------------------------------

    def create_table(
        self,
        name: str,
        schema: Schema,
        *,
        page_size: int = DEFAULT_PAGE_SIZE,
        pages_per_bucket: int = 1,
        clustered_on: str | None = None,
    ) -> Table:
        """Create an empty table backed by a new heap file."""
        if name in self._tables:
            raise CatalogError(f"table {name!r} already exists")
        path = os.path.join(self.root_dir, f"{name}.heap")
        heap = HeapFile.create(
            path,
            schema,
            self.pool,
            page_size=page_size,
            pages_per_bucket=pages_per_bucket,
        )
        table = Table(name, heap, clustered_on=clustered_on)
        self._tables[name] = table
        self._sma_sets[name] = {}
        self._save_manifest()
        return table

    def open_table(self, name: str, *, clustered_on: str | None = None) -> Table:
        """Re-open a table persisted in this catalog's directory."""
        if name in self._tables:
            raise CatalogError(f"table {name!r} is already open")
        path = os.path.join(self.root_dir, f"{name}.heap")
        if not os.path.exists(path):
            raise CatalogError(f"no heap file for table {name!r} at {path}")
        heap = HeapFile.open(path, self.pool)
        table = Table(name, heap, clustered_on=clustered_on)
        self._tables[name] = table
        self._sma_sets.setdefault(name, {})
        self._save_manifest()
        return table

    def table(self, name: str) -> Table:
        try:
            return self._tables[name]
        except KeyError:
            raise CatalogError(
                f"unknown table {name!r}; have {sorted(self._tables)}"
            ) from None

    def has_table(self, name: str) -> bool:
        return name in self._tables

    def tables(self) -> Iterator[Table]:
        return iter(self._tables.values())

    # ------------------------------------------------------------------
    # SMA sets
    # ------------------------------------------------------------------

    def register_sma_set(self, table_name: str, sma_set: "SmaSet") -> None:
        """Attach a built SMA set to a table under the set's name."""
        self.table(table_name)
        by_name = self._sma_sets.setdefault(table_name, {})
        if sma_set.name in by_name:
            raise CatalogError(
                f"SMA set {sma_set.name!r} already registered on {table_name!r}"
            )
        by_name[sma_set.name] = sma_set
        self._save_manifest()

    def sma_set(self, table_name: str, set_name: str) -> "SmaSet":
        self.table(table_name)
        try:
            return self._sma_sets[table_name][set_name]
        except KeyError:
            raise CatalogError(
                f"no SMA set {set_name!r} on table {table_name!r}; "
                f"have {sorted(self._sma_sets.get(table_name, {}))}"
            ) from None

    def sma_sets(self, table_name: str) -> list["SmaSet"]:
        self.table(table_name)
        return list(self._sma_sets.get(table_name, {}).values())

    # ------------------------------------------------------------------
    # ingest epochs & snapshot views
    # ------------------------------------------------------------------

    def ingest_epoch(self, table_name: str) -> int:
        """The table's current ingest epoch (0 = the bulk-loaded state)."""
        self.table(table_name)
        return self._ingest_epochs.get(table_name, 0)

    def bump_ingest_epoch(self, table_name: str) -> int:
        """Advance the table's epoch after an applied DML batch.

        Persisted in the manifest so reopened catalogs (and read-only
        process attaches) agree on the epoch numbering.  Returns the new
        epoch.
        """
        self.table(table_name)
        epoch = self._ingest_epochs.get(table_name, 0) + 1
        self._ingest_epochs[table_name] = epoch
        self._save_manifest()
        return epoch

    def pin_view(self, table_name: str) -> TableView:
        """A bucket-generation snapshot of the table at its current epoch.

        Queries take this at admission: the view bounds every bucket
        read to the geometry frozen here, so concurrent appends (which
        only grow the heap) are invisible for the query's lifetime.

        Pinning takes the table's ingest lock for the capture so the
        (epoch, geometry) pair is atomic — a pin can never see a batch's
        appended pages under the pre-batch epoch number.  Writers hold
        the lock for a whole batch, so admission briefly waits out an
        in-flight write; scans themselves never block.
        """
        table = self.table(table_name)
        with self.ingest_lock(table_name):
            return TableView(table, self.ingest_epoch(table_name))

    def ingest_lock(self, table_name: str) -> threading.Lock:
        """The table's write-serialization lock (created on first use)."""
        self.table(table_name)
        with self._ingest_locks_guard:
            lock = self._ingest_locks.get(table_name)
            if lock is None:
                lock = threading.Lock()
                self._ingest_locks[table_name] = lock
            return lock

    # ------------------------------------------------------------------
    # housekeeping
    # ------------------------------------------------------------------

    def sma_dir(self, table_name: str) -> str:
        """Directory where SMA-files of *table_name* live."""
        path = os.path.join(self.root_dir, f"{table_name}.smas")
        os.makedirs(path, exist_ok=True)
        return path

    def add_cold_hook(self, hook) -> None:
        """Register a zero-argument callback to run on :meth:`go_cold`."""
        self._cold_hooks.append(hook)

    def remove_cold_hook(self, hook) -> None:
        """Unregister a callback previously added (no-op when absent)."""
        try:
            self._cold_hooks.remove(hook)
        except ValueError:
            pass

    def go_cold(self) -> None:
        """Make the next reads hit 'disk' (cold run): empty the buffer
        pool, drop every heap's decoded-bucket cache, and run the
        registered cold hooks (result caches and the like)."""
        self.pool.clear()
        for table in self._tables.values():
            table.heap.drop_decode_cache()
        for hook in list(self._cold_hooks):
            hook()

    def reset_stats(self) -> IoStats:
        """Zero the shared counters and return the pre-reset snapshot."""
        snapshot = self.stats.snapshot()
        self.stats.reset()
        return snapshot

    def close(self) -> None:
        for table in self._tables.values():
            table.heap.close()

    def __enter__(self) -> "Catalog":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
