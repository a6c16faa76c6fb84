"""A damaged heap page is reported, never raised, and never rebuilt over.

Heap pages are ground truth.  ``verify_catalog`` must report a page that
fails its CRC as unrepairable and return, and with ``repair=True`` it
must leave the table's SMA-files alone: recomputing them would read the
damaged page, and rebuilding them would bake it in.
"""

from __future__ import annotations

import hashlib
import os

from repro.core.verify import verify_catalog
from repro.storage import Catalog

from tests.chaos.conftest import build_sales_db


def _damage_heap_page(root: str, page_no: int = 3, offset: int = 100) -> None:
    with open(os.path.join(root, "SALES.heap"), "r+b") as handle:
        handle.seek(page_no * 4096 + offset)
        byte = handle.read(1)
        handle.seek(page_no * 4096 + offset)
        handle.write(bytes([byte[0] ^ 0x40]))


def _sma_digests(root: str) -> dict[str, str]:
    directory = os.path.join(root, "SALES.smas")
    digests = {}
    for name in sorted(os.listdir(directory)):
        if name.endswith(".sma"):
            with open(os.path.join(directory, name), "rb") as handle:
                digests[name] = hashlib.sha256(handle.read()).hexdigest()
    return digests


def test_damaged_heap_page_is_reported(tmp_path):
    root = str(tmp_path / "db")
    build_sales_db(root)
    _damage_heap_page(root)
    with Catalog.discover(root) as catalog:
        report = verify_catalog(catalog)
    assert not report.ok
    (issue,) = report.issues
    assert issue.kind == "heap_page"
    assert not issue.repairable and not issue.repaired
    assert issue.target.endswith("SALES.heap:3")
    assert report.sma_unchecked == ["SALES"]
    assert report.definitions_checked == 0
    assert "SMA sets of SALES not checked" in report.render()


def test_repair_leaves_the_tables_sma_files_alone(tmp_path):
    root = str(tmp_path / "db")
    build_sales_db(root)
    _damage_heap_page(root)
    before = _sma_digests(root)
    with Catalog.discover(root) as catalog:
        report = verify_catalog(catalog, repair=True)
    assert not report.ok
    assert [(i.kind, i.repaired) for i in report.issues] == [("heap_page", False)]
    assert _sma_digests(root) == before
