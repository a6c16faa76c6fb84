"""The metric catalogue cannot drift from the snapshot or the docs.

``repro.obs.exposition.CATALOGUE`` is the one place a series is declared;
these tests pin it from both sides: every leaf a live tier's
``observed_snapshot()`` produces is either exported or listed below with
the reason it is not, and every series name the docs and CI mention
exists.
"""

from __future__ import annotations

import copy
import fnmatch
import io
import pathlib
import re
import shutil

from repro.obs import EventLog, Tracer, render_prometheus
from repro.obs.exposition import CATALOGUE, walk
from repro.server import QueryService
from repro.server.workload import default_mix
from repro.shard.manifest import ShardManifest
from repro.storage.catalog import Catalog

from tests.obs.test_exposition import parse_prometheus
from tests.shard.conftest import live_cluster

REPO = pathlib.Path(__file__).resolve().parents[2]

_PERCENTILES = "exact percentiles; /metrics carries the same observations as a histogram"
_SHARD_LATENCY = "per-shard latency is summarised by its mean, p95 and max"

#: snapshot leaves (fnmatch over the dotted path) that are deliberately
#: not exported, each with its reason
NOT_EXPORTED = {
    "latency_s.*": _PERCENTILES,
    "queue_wait_s.*": _PERCENTILES,
    **{
        f"shard.shards.*.latency_s.{stat}": _SHARD_LATENCY
        for stat in ("count", "min_s", "p50_s", "p90_s", "p99_s")
    },
    "io.page_reads": "derived: the sum of the three access-class counters",
    "io.page_accesses": "derived: page_reads + buffer_hits",
    "ledger.tables.*.page_reads": "derived: the sum of the two file-kind counters",
    "io.tuples_built": "row-materialisation cost counter read by perf/, not an operator signal",
    "events.queued": "instantaneous queue length; written and dropped are the signal",
    "events.emitted": "sequence counter: written + dropped + queued",
    "scan.pool.pools": "pool objects alive, an implementation detail of processes",
}


def _leaves(node, prefix=()):
    """Key paths of every leaf; a histogram dict counts as one leaf and
    None (the router's unpublished ``scan`` section) as none."""
    if isinstance(node, dict) and "buckets" not in node:
        for key, value in node.items():
            yield from _leaves(value, prefix + (key,))
    elif node is not None:
        yield prefix


def _without(snapshot: dict, path: tuple) -> dict:
    pruned = copy.deepcopy(snapshot)
    node = pruned
    for key in path[:-1]:
        node = node[key]
    del node[path[-1]]
    return pruned


def _populated_snapshots(sharded_root: str, scratch: pathlib.Path) -> list[dict]:
    """One busy snapshot per tier; between them every section is populated."""
    mix = default_mix("LINEITEM")
    manifest = ShardManifest.load(sharded_root)
    # the service writes, so it gets a private copy of shard 0's catalog
    db = str(scratch / "db")
    shutil.copytree(manifest.shard_path(sharded_root, 0), db)
    service_events = EventLog(io.StringIO())
    router_events = EventLog(io.StringIO())
    try:
        with Catalog.discover(db, buffer_pages=8192) as catalog, QueryService(
            catalog, workers=2, scan_backend="process", result_cache=True,
            tracer=Tracer(), events=service_events,
        ) as service:
            for entry in mix:
                service.execute(entry.query, mode=entry.mode, sma_set=entry.sma_set)
            service.execute("DELETE FROM LINEITEM WHERE L_QUANTITY = 50")
            # what no cheap workload triggers is recorded directly
            service.metrics.record_quarantine("LINEITEM", "q1")
            snapshots = [service.observed_snapshot()]
        with live_cluster(
            sharded_root, result_cache=True, tracer=Tracer(), events=router_events
        ) as cluster:
            for entry in mix[:2]:
                cluster.router.execute(
                    entry.query, mode=entry.mode, sma_set=entry.sma_set
                )
            snapshots.append(cluster.router.observed_snapshot())
    finally:
        service_events.close()
        router_events.close()
    return snapshots


def test_every_snapshot_leaf_is_exported_or_excused(sharded_roots, tmp_path):
    snapshots = _populated_snapshots(sharded_roots[2], tmp_path)
    # the fixture really is fully populated: every catalogue line has a sample
    sampled = {metric.name for snap in snapshots for metric, _ in walk(snap)}
    assert sampled == {metric.name for metric in CATALOGUE}
    used = set()
    for snapshot in snapshots:
        text = render_prometheus(snapshot)
        parse_prometheus(text)
        for path in _leaves(snapshot):
            dotted = ".".join(path)
            exported = render_prometheus(_without(snapshot, path)) != text
            excuses = [p for p in NOT_EXPORTED if fnmatch.fnmatchcase(dotted, p)]
            assert exported or excuses, (
                f"{dotted} is neither in the catalogue nor in NOT_EXPORTED"
            )
            assert not (exported and excuses), (
                f"{dotted} is exported; drop {excuses} from NOT_EXPORTED"
            )
            used.update(excuses)
    assert used == set(NOT_EXPORTED), "stale NOT_EXPORTED entries"


def test_documented_series_exist():
    names = {f"repro_{metric.name}" for metric in CATALOGUE}
    histograms = {
        f"repro_{metric.name}{suffix}"
        for metric in CATALOGUE if metric.kind == "histogram"
        for suffix in ("_bucket", "_sum", "_count")
    }
    for relative in ("README.md", "EXPERIMENTS.md", ".github/workflows/ci.yml"):
        text = (REPO / relative).read_text(encoding="utf-8")
        for mentioned in set(re.findall(r"repro_[a-z_]+", text)):
            assert mentioned in histograms or any(
                name.startswith(mentioned) for name in names
            ), f"{relative} mentions {mentioned}, which the catalogue does not declare"


def test_catalogue_names_are_unique():
    names = [metric.name for metric in CATALOGUE]
    assert len(names) == len(set(names))
    assert {metric.kind for metric in CATALOGUE} == {"counter", "gauge", "histogram"}
