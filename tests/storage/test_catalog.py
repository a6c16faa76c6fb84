"""Unit tests for the catalog."""

import os

import pytest

from repro.errors import CatalogError
from repro.storage import Catalog, Schema, INT32

from tests.conftest import SALES_SCHEMA, sales_rows


class TestTables:
    def test_create_and_lookup(self, catalog):
        table = catalog.create_table("T", SALES_SCHEMA)
        assert catalog.table("T") is table
        assert catalog.has_table("T")
        assert not catalog.has_table("U")

    def test_duplicate_name_rejected(self, catalog):
        catalog.create_table("T", SALES_SCHEMA)
        with pytest.raises(CatalogError, match="already exists"):
            catalog.create_table("T", SALES_SCHEMA)

    def test_unknown_table(self, catalog):
        with pytest.raises(CatalogError, match="unknown table"):
            catalog.table("NOPE")

    def test_tables_iteration(self, catalog):
        catalog.create_table("A", SALES_SCHEMA)
        catalog.create_table("B", Schema.of(("x", INT32)))
        assert {t.name for t in catalog.tables()} == {"A", "B"}

    def test_open_table_roundtrip(self, tmp_path):
        root = str(tmp_path / "db")
        with Catalog(root) as cat:
            table = cat.create_table("T", SALES_SCHEMA)
            table.append_rows(sales_rows(100))
        with Catalog(root) as cat2:
            reopened = cat2.open_table("T", clustered_on="ship")
            assert reopened.num_records == 100
            assert reopened.clustered_on == "ship"

    def test_open_unknown_table(self, catalog):
        with pytest.raises(CatalogError, match="no heap file"):
            catalog.open_table("GHOST")

    def test_open_already_open(self, catalog):
        catalog.create_table("T", SALES_SCHEMA)
        with pytest.raises(CatalogError, match="already open"):
            catalog.open_table("T")


class TestSmaRegistry:
    def test_register_and_lookup(self, catalog, sales_table, sales_sma_set):
        assert catalog.sma_set("SALES", "default") is sales_sma_set
        assert catalog.sma_sets("SALES") == [sales_sma_set]

    def test_duplicate_registration_rejected(
        self, catalog, sales_table, sales_sma_set
    ):
        with pytest.raises(CatalogError, match="already registered"):
            catalog.register_sma_set("SALES", sales_sma_set)

    def test_unknown_set(self, catalog, sales_table):
        with pytest.raises(CatalogError, match="no SMA set"):
            catalog.sma_set("SALES", "ghost")


class TestStatsAndCold:
    def test_go_cold_empties_pool(self, catalog, sales_table):
        sales_table.read_bucket(0)
        catalog.reset_stats()
        sales_table.read_bucket(0)  # warm hit
        assert catalog.stats.buffer_hits == 1
        catalog.go_cold()
        catalog.reset_stats()
        sales_table.read_bucket(0)
        assert catalog.stats.page_reads >= 1
        assert catalog.stats.buffer_hits == 0

    def test_reset_stats_returns_snapshot(self, catalog, sales_table):
        catalog.go_cold()  # otherwise the load left this bucket cached
        sales_table.read_bucket(0)
        snapshot = catalog.reset_stats()
        assert snapshot.page_reads >= 1
        assert catalog.stats.page_reads == 0

    def test_sma_dir_created(self, catalog, sales_table):
        import os

        assert os.path.isdir(catalog.sma_dir("SALES"))


class TestManifestDurability:
    def test_bump_ingest_epoch_fsyncs_the_manifest_before_replacing_it(
        self, catalog, monkeypatch
    ):
        catalog.create_table("T", SALES_SCHEMA)
        manifest = os.path.abspath(os.path.join(catalog.root_dir, Catalog.MANIFEST))
        calls = []
        real_fsync, real_replace = os.fsync, os.replace

        def fsync(fd):
            calls.append(("fsync", os.fstat(fd).st_ino))
            real_fsync(fd)

        def replace(src, dst):
            calls.append(("replace", os.path.abspath(dst)))
            real_replace(src, dst)

        monkeypatch.setattr(os, "fsync", fsync)
        monkeypatch.setattr(os, "replace", replace)
        assert catalog.bump_ingest_epoch("T") == 1
        synced = ("fsync", os.stat(manifest).st_ino)
        assert synced in calls
        assert calls.index(synced) < calls.index(("replace", manifest))
