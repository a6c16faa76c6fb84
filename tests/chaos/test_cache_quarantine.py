"""Chaos: SMA quarantine mid-flight vs the result cache.

Extends the quarantine-fallback cycle to the serving layer's result
cache: a torn/corrupted SMA that quarantines while the service is
running must evict every cached entry of the affected table (a
fingerprint keyed at the pre-quarantine SMA universe may no longer be
reproduced).

The fault is deterministic (one flipped byte in the ``sqty`` SMA file),
so the sequence reproduces forever.
"""

from __future__ import annotations

import os

from repro.obs import EventLog
from repro.query.session import assert_same_result
from repro.server import QueryService
from repro.storage import Catalog

from tests.chaos.conftest import CHAOS_QUERIES, build_sales_db

#: Needs the corrupted sqty (SUM) rollup → forces the quarantine.
AGG_QUERY = CHAOS_QUERIES[0]


def _flip_byte(path: str, offset: int = 11) -> None:
    with open(path, "r+b") as handle:
        handle.seek(offset)
        byte = handle.read(1)
        handle.seek(offset)
        handle.write(bytes([byte[0] ^ 0x40]))


def test_quarantine_evicts_cache(tmp_path, oracle_results):
    root = str(tmp_path / "db")
    build_sales_db(root)
    _flip_byte(os.path.join(root, "SALES.smas", "sqty__A.sma"))

    catalog = Catalog.discover(root)
    events_path = tmp_path / "events.jsonl"
    event_log = EventLog(str(events_path))
    oracle = oracle_results[0]
    try:
        with QueryService(
            catalog, workers=3, events=event_log, result_cache=True
        ) as service:
            # Prime: a forced heap plan never reads the SUM rollup, so
            # the corrupted SMA stays untouched and the result caches.
            primed = service.execute(AGG_QUERY, mode="scan")
            assert_same_result(primed, oracle)
            hit = service.execute(AGG_QUERY, mode="scan")
            assert hit.plan.strategy == "result_cache"
            assert service.result_cache.snapshot()["entries"] >= 1

            # Forcing the SMA path loads the corrupted rollup: quarantine
            # fires mid-flight.  Auto mode would degrade to the heap
            # transparently; forced SMA mode cannot, so the probe either
            # answers correctly or fails *typed* — silent wrong bytes are
            # the one outcome that must never happen.
            from repro.errors import PlanningError

            try:
                degraded = service.execute(AGG_QUERY, mode="sma")
                assert_same_result(degraded, oracle)
            except PlanningError:
                pass
            assert catalog.integrity.quarantine_count >= 1

            # Cache entries of the table were evicted: the old hit is
            # a miss again, and the snapshot counted invalidations.
            snapshot = service.result_cache.snapshot()
            assert snapshot["invalidations"] >= 1
            after = service.execute(AGG_QUERY, mode="scan")
            assert after.plan.strategy != "result_cache"
            assert_same_result(after, oracle)

            observed = service.observed_snapshot()
            assert observed["integrity"]["sma_quarantined"] >= 1
        event_log.close()
        text = events_path.read_text()
        assert "sma_quarantined" in text
        assert "cache_invalidate" in text
    finally:
        catalog.close()
