"""Crash consistency of SMA maintenance appends (satellite c).

:meth:`SmaFile.write_entries` writes the body before :meth:`SmaFile.flush`
writes the meta sidecar, so a crash between the two — simulated with an
injected torn write — leaves the old checksum against a new, partial
body.  The contract: the reopened catalog *detects* the damage (never
serves it), ``repro verify`` flags it, and ``--repair`` rebuilds the
tail from the heap so SMAs and heap agree again.
"""

from __future__ import annotations

import datetime

import pytest

from repro.core import SmaMaintainer
from repro.core.verify import verify_catalog
from repro.errors import TornWriteError
from repro.query.session import Session
from repro.storage import Catalog
from repro.storage.faults import FaultInjector, FaultSpec

from tests.conftest import BASE_DATE, SALES_SCHEMA, sales_rows


def _fresh_rows(n: int, *, start_id: int = 90_000):
    return SALES_SCHEMA.batch_from_rows(
        [
            (
                start_id + i,
                BASE_DATE + datetime.timedelta(days=300 + i // 50),
                float(i % 5),
                "AR"[i % 2],
            )
            for i in range(n)
        ]
    )


def test_torn_append_is_detected_flagged_and_repaired(
    catalog, sales_table, sales_sma_set, tmp_path
):
    maintainer = SmaMaintainer(sales_table, [sales_sma_set])
    injector = FaultInjector(
        seed=5,
        specs=(FaultSpec("torn_write", path="sqty", max_count=1),),
    )
    catalog.install_fault_injector(injector)

    inserted = _fresh_rows(600)
    with pytest.raises(TornWriteError):
        maintainer.insert(inserted)
    assert injector.fired_count() == 1

    # "Reboot": stop injecting, flush, reopen the catalog from disk.
    catalog.install_fault_injector(None)
    catalog.close()
    root = catalog.root_dir
    reopened = Catalog.discover(root)
    try:
        # The heap took the full insert; the torn SMA must be *detected*,
        # and the other definitions must either agree with the new heap
        # or be flagged too — nothing may silently serve stale entries.
        report = verify_catalog(reopened)
        assert not report.ok
        assert any("sqty" in issue.target for issue in report.issues)
        assert all(issue.repairable for issue in report.issues)

        repaired = verify_catalog(reopened, repair=True)
        assert repaired.ok
        assert repaired.repaired_count == len(repaired.issues)
        assert verify_catalog(reopened).ok

        # Agreement, end to end: the SMA-served aggregate equals a
        # brute-force recompute over base rows + the applied insert.
        expected: dict[str, float] = {}
        for row in sales_rows():
            expected[row[3]] = expected.get(row[3], 0.0) + row[2]
        for i in range(len(inserted)):
            flag = "AR"[i % 2]
            expected[flag] = expected.get(flag, 0.0) + float(i % 5)
        result = Session(reopened).sql(
            "SELECT flag, SUM(qty) AS s FROM SALES GROUP BY flag ORDER BY flag"
        )
        got = {row[0]: row[1] for row in result.rows}
        assert set(got) == set(expected)
        for flag, total in expected.items():
            assert got[flag] == pytest.approx(total)
    finally:
        reopened.close()


def test_torn_write_leaves_prefix_on_disk(catalog, sales_table, sales_sma_set):
    """The tear genuinely persists a prefix — recovery has real damage."""
    import os

    maintainer = SmaMaintainer(sales_table, [sales_sma_set])
    files = sales_sma_set.files_of("sqty")
    injector = FaultInjector(
        seed=9, specs=(FaultSpec("torn_write", path="sqty", max_count=1),)
    )
    catalog.install_fault_injector(injector)
    with pytest.raises(TornWriteError) as excinfo:
        maintainer.insert(_fresh_rows(600))
    catalog.install_fault_injector(None)
    torn_path = excinfo.value.path
    torn_sma = next(
        sma for sma in files.values() if sma.path == torn_path
    )
    # The in-memory array was already extended when the write tore, so
    # the bytes on disk are a strict prefix of the intended body.
    assert os.path.getsize(torn_path) < torn_sma.size_bytes
