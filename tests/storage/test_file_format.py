"""One on-disk format: CRC-32 checksummed heap pages and SMA bodies.

A heap file whose meta records any other format is refused on open; an
SMA-file whose meta carries no CRC-32 checksum opens quarantined, and
``verify --repair`` rebuilds it from the heap.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.core.verify import verify_catalog
from repro.errors import StorageError
from repro.query.session import Session
from repro.storage import Catalog

from tests.chaos.conftest import CHAOS_QUERIES, build_sales_db


def _rewrite_meta(path: str, **changes) -> None:
    with open(path, encoding="utf-8") as handle:
        meta = json.load(handle)
    for key, value in changes.items():
        if value is None:
            del meta[key]
        else:
            meta[key] = value
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(meta, handle)


class TestHeapFormat:
    def test_new_heap_meta_records_format_2_crc32(self, tmp_path):
        root = str(tmp_path / "db")
        build_sales_db(root)
        with open(os.path.join(root, "SALES.heap.meta.json"), encoding="utf-8") as f:
            meta = json.load(f)
        assert (meta["format_version"], meta["checksum_algo"]) == (2, "crc32")

    @pytest.mark.parametrize("changes", [
        {"format_version": 1},
        {"format_version": None},
        {"checksum_algo": "crc32c"},
        {"checksum_algo": None},
    ])
    def test_other_formats_are_refused_naming_the_file(self, tmp_path, changes):
        root = str(tmp_path / "db")
        build_sales_db(root)
        _rewrite_meta(os.path.join(root, "SALES.heap.meta.json"), **changes)
        with pytest.raises(StorageError, match="SALES.heap"):
            Catalog.discover(root)


class TestSmaFormat:
    def test_sma_meta_without_checksum_opens_quarantined_and_repairs(self, tmp_path):
        root = str(tmp_path / "db")
        build_sales_db(root)
        meta_path = os.path.join(root, "SALES.smas", "sqty__A.sma.meta.json")
        _rewrite_meta(meta_path, checksum=None)

        with Catalog.discover(root) as catalog:
            (sma_set,) = catalog.sma_sets("SALES")
            sma = sma_set.files_of("sqty")[("A",)]
            assert sma.is_corrupt
            assert "no crc32 body checksum" in sma.corrupt_reason
            Session(catalog).sql(CHAOS_QUERIES[0])
            assert "sqty" in sma_set.quarantined

            report = verify_catalog(catalog, repair=True)
            assert [(i.kind, i.repaired) for i in report.issues] == [
                ("sma_corrupt", True)
            ]

        with open(meta_path, encoding="utf-8") as handle:
            assert isinstance(json.load(handle)["checksum"], int)
        with Catalog.discover(root) as catalog:
            assert verify_catalog(catalog).ok
