"""The four workloads: what data, what configuration, who sends what.

Sizes are the largest that keep one run (three set-ups, verification,
the timed window) inside the time the driver allows for ~90 runs; the
*properties* each workload exists for are kept and stated with it.
A workload touches the engine only through its public surface.
"""

from __future__ import annotations

import os

from repro import Catalog, Session
from repro.server import QueryService
from repro.shard import ShardRouter, launch_local_shards, shard_init
from repro.shard.router import stop_local_shards
from repro.tpcd import load_lineitem

from perf.ops import TABLE


class Workload:
    name = ""
    why = ""
    scale_factor = 0.0
    clustering = "sorted"
    buffer_pages = 8192
    #: INSERT batches per second sent beside the reads (0 = read-only)
    write_rate = 0
    #: a pass sends the distinct operations this many times over
    rounds = 1
    #: the count metrics are exact functions of (code, seed): true where
    #: nothing depends on timing (no paced writer, no socket reads whose
    #: chunking decides how often ``recv`` is called)
    exact_counts = True

    def __init__(self, scale: float = 1.0):
        self.scale_factor = self.scale_factor * scale
        self.catalog: Catalog | None = None
        self.client = None

    # -- life cycle -----------------------------------------------------

    def setup(self, directory: str) -> None:
        """Everything up to the point the first operation can be sent."""
        self.catalog = Catalog(
            os.path.join(directory, "db"), buffer_pages=self.buffer_pages
        )
        load_lineitem(
            self.catalog,
            scale_factor=self.scale_factor,
            clustering=self.clustering,
        )
        self.client = self.open_client()

    def teardown(self) -> None:
        if self.client is not None:
            self.close_client(self.client)
            self.client = None
        if self.catalog is not None:
            self.catalog.close()
            self.catalog = None

    def child_pids(self) -> list[int]:
        """Live worker processes whose CPU time belongs to this workload."""
        return []

    # -- sending --------------------------------------------------------

    def open_client(self):
        """The front end operations are sent through."""
        return Session(self.catalog)

    def close_client(self, client) -> None:
        pass

    def send(self, client, op):
        return client.execute(op.query())

    # -- reference ------------------------------------------------------

    def reference_catalog(self) -> Catalog:
        """A single-node catalog holding this workload's data."""
        return self.catalog

    def sma_space_frac(self) -> float:
        catalog = self.reference_catalog()
        sma_bytes = sum(s.total_bytes for s in catalog.sma_sets(TABLE))
        return sma_bytes / catalog.table(TABLE).size_bytes


class Q1Qualifying(Workload):
    name = "q1_qualifying"
    why = (
        "shipdate-sorted data, Q1 cut-offs near the end: >=94% of buckets "
        "qualify, the answer comes from SMA-files alone and the per-bucket "
        "fold in query/sma_gaggr.py is ~90% of the operation"
    )
    scale_factor = 0.02  # 3 748 buckets, 26 SMA-files; all fits the pool


class Q1Unclustered(Workload):
    name = "q1_unclustered"
    why = (
        "shuffled data larger than the pool and the decode cache: every "
        "bucket grades ambivalent, the planner must pick gaggr, time goes to "
        "fetch/decode/filter/aggregate; the SMA fold does nothing here"
    )
    # 1 130 one-page buckets (4.4 MB) against a 512-page pool (2 MB) and
    # the heap's 1 024-entry decode cache: neither can hold the table
    scale_factor = 0.006
    clustering = "uniform"
    buffer_pages = 512


class ServeRw(Workload):
    name = "serve_rw"
    why = (
        "SQL reads through QueryService beside an open-loop INSERT writer: "
        "parse, admission, queue, epoch-pinned plan and fold share the GIL "
        "with ingest, SMA maintenance and intent logging"
    )
    scale_factor = 0.02
    # trickle ingest, 8 x 2 rows/s: small frequent writes smear the read
    # latencies into one hump (Q1 42-62 ms), so p90 lies where samples
    # are dense.  2 x 32 rows/s gave a narrow peak and a thin tail twice
    # as long with p90 on the tail: it spread 0.3 from run to run.
    write_rate = 8
    exact_counts = False
    rounds = 2  # ~0.9 s: every pass then overlaps about seven writes

    def open_client(self, **options):
        return QueryService(
            self.catalog, workers=2, queue_depth=32, **options
        ).start()

    def close_client(self, client) -> None:
        client.shutdown(wait=True, cancel_pending=True)

    def send(self, client, op):
        return client.execute(op.sql())


class Shard2Q1(Workload):
    name = "shard2_q1"
    why = (
        "the same fold with its un-finalized state crossing a wire: two "
        "shard workers, JSON replies that grow with bucket count, "
        "state_serde + merge on the router dominate"
    )
    scale_factor = 0.01
    exact_counts = False

    def __init__(self, scale: float = 1.0):
        super().__init__(scale)
        self.processes: list = []
        self._source_dir = ""

    def setup(self, directory: str) -> None:
        self._source_dir = os.path.join(directory, "source")
        with Catalog(self._source_dir, buffer_pages=self.buffer_pages) as source:
            load_lineitem(
                source, scale_factor=self.scale_factor, clustering=self.clustering
            )
        sharded = os.path.join(directory, "sharded")
        shard_init(self._source_dir, sharded, 2)
        self.processes = launch_local_shards(
            sharded, workers=1, buffer_pages=self.buffer_pages
        )
        self.client = self.open_client()

    def teardown(self) -> None:
        try:
            super().teardown()
        finally:
            stop_local_shards(self.processes)
            self.processes = []

    def child_pids(self) -> list[int]:
        return [handle.process.pid for handle in self.processes]

    def open_client(self):
        return ShardRouter(
            [handle.endpoint for handle in self.processes], workers=2
        ).start()

    def close_client(self, client) -> None:
        client.shutdown(wait=True, cancel_pending=True)

    def send(self, client, op):
        return client.submit(op.query()).result()

    def reference_catalog(self) -> Catalog:
        if self.catalog is None:
            self.catalog = Catalog.discover(
                self._source_dir, buffer_pages=self.buffer_pages
            )
        return self.catalog


WORKLOADS = {
    cls.name: cls for cls in (Q1Qualifying, Q1Unclustered, ServeRw, Shard2Q1)
}
