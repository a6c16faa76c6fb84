"""Differential harness for the result cache.

The suite's core demand mirrors the chaos suite's: caching is a
*transparent* optimization, so every served result must be
byte-identical to what an uncached execution of the same plan at the
same ingest epoch would return.  Stale answers — a hit served across a
DML boundary — are the one outcome that must never happen.

Fixtures build tiny LINEITEM catalogs (a few thousand rows) so the
whole suite stays in CI-smoke territory; the differential race test
scales its round count through ``REPRO_CACHE_DIFF_ROUNDS``.
"""

from __future__ import annotations

import pytest

from repro.storage import Catalog
from repro.tpcd.loader import load_lineitem

#: ~12k LINEITEM tuples: big enough for multi-bucket morsel scans,
#: small enough that a full differential round stays sub-second.
TINY_SF = 0.002


@pytest.fixture()
def lineitem_catalog(tmp_path):
    """A fresh, private LINEITEM catalog (tests mutate it freely)."""
    catalog = Catalog(str(tmp_path / "db"), buffer_pages=4096)
    loaded = load_lineitem(catalog, scale_factor=TINY_SF, clustering="sorted")
    yield catalog, loaded
    catalog.close()
