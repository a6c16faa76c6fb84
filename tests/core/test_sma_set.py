"""Tests for SmaSet: grading integration, lookup, persistence."""

import datetime

import pytest

from repro.core import (
    SmaDefinition,
    SmaSet,
    build_sma_set,
    count_star,
    maximum,
    minimum,
    total,
)
from repro.core.verify import verify_catalog
from repro.errors import CatalogError, SmaDefinitionError
from repro.lang import and_, cmp, col, or_
from repro.query.session import Session
from repro.storage import INT32, Schema, char

from tests.conftest import BASE_DATE, brute_force_partition_check


def mid(offset=20):
    return BASE_DATE + datetime.timedelta(days=offset)


class TestPartitionAtoms:
    @pytest.mark.parametrize("op", ["=", "<>", "<", "<=", ">", ">="])
    def test_every_operator_is_sound(self, sales_table, sales_sma_set, op):
        brute_force_partition_check(
            sales_table, sales_sma_set, cmp("ship", op, mid())
        )

    def test_clustered_data_has_few_ambivalent(self, sales_table, sales_sma_set):
        partitioning = brute_force_partition_check(
            sales_table, sales_sma_set, cmp("ship", "<=", mid())
        )
        assert partitioning.num_ambivalent <= 1
        assert partitioning.num_qualifying > 0
        assert partitioning.num_disqualifying > 0

    def test_unindexed_column_is_all_ambivalent(
        self, sales_table, sales_sma_set
    ):
        partitioning = sales_sma_set.partition(
            cmp("id", "<=", 100), charge=False
        )
        assert partitioning.num_ambivalent == partitioning.num_buckets

    def test_column_column_atom(self, sales_table, sales_sma_set):
        # ship vs ship is trivially 'qty <= qty'... use ship <= ship via
        # the generic path: soundness check only (all ambivalent is OK
        # because only one column has bounds materialized per atom side).
        brute_force_partition_check(
            sales_table, sales_sma_set, cmp("ship", "<=", col("ship"))
        )


class TestPartitionBoolean:
    def test_and_combination(self, sales_table, sales_sma_set):
        predicate = and_(
            cmp("ship", ">=", mid(5)), cmp("ship", "<=", mid(30))
        )
        partitioning = brute_force_partition_check(
            sales_table, sales_sma_set, predicate
        )
        assert partitioning.num_disqualifying > 0

    def test_or_combination(self, sales_table, sales_sma_set):
        predicate = or_(
            cmp("ship", "<=", mid(3)), cmp("ship", ">=", mid(37))
        )
        brute_force_partition_check(sales_table, sales_sma_set, predicate)

    def test_not_combination(self, sales_table, sales_sma_set):
        from repro.lang.predicate import Not

        brute_force_partition_check(
            sales_table, sales_sma_set, Not(cmp("ship", "<=", mid()))
        )

    def test_true_predicate_all_qualify(self, sales_table, sales_sma_set):
        from repro.lang.predicate import TruePredicate

        partitioning = sales_sma_set.partition(TruePredicate(), charge=False)
        assert partitioning.num_qualifying == partitioning.num_buckets

    def test_mixed_indexed_and_unindexed(self, sales_table, sales_sma_set):
        predicate = and_(cmp("ship", "<=", mid()), cmp("id", "<", 10**9))
        partitioning = brute_force_partition_check(
            sales_table, sales_sma_set, predicate
        )
        # The unindexed atom blocks qualification but disqualification
        # from the date atom still prunes.
        assert partitioning.num_qualifying == 0
        assert partitioning.num_disqualifying > 0


class TestCountSmaGrading:
    def test_count_sma_on_flag(self, catalog, sales_table, tmp_path):
        definitions = [
            SmaDefinition("flag_cnt", "SALES", count_star(), ("flag",)),
        ]
        sma_set, _ = build_sma_set(
            sales_table, definitions, directory=str(tmp_path / "cnt")
        )
        partitioning = brute_force_partition_check(
            sales_table, sma_set, cmp("flag", "=", "A")
        )
        # Every bucket mixes A and R rows in this dataset -> ambivalent
        # everywhere, but sound.
        assert partitioning.num_buckets == sales_table.num_buckets

    def test_count_sma_prunes_single_valued_buckets(
        self, catalog, tmp_path
    ):
        from tests.conftest import SALES_SCHEMA

        table = catalog.create_table("SEGREGATED", SALES_SCHEMA)
        rows = [(i, BASE_DATE, 1.0, "A") for i in range(300)]
        rows += [(i, BASE_DATE, 1.0, "R") for i in range(300)]
        table.append_rows(rows)
        sma_set, _ = build_sma_set(
            table,
            [SmaDefinition("fc", "SEGREGATED", count_star(), ("flag",))],
            directory=str(tmp_path / "seg"),
        )
        partitioning = brute_force_partition_check(
            table, sma_set, cmp("flag", "=", "A")
        )
        # All-A buckets qualify, all-R disqualify; only the straddling
        # bucket is ambivalent.
        assert partitioning.num_ambivalent <= 1


class TestGroupedBounds:
    def test_grouped_minmax_reduction(self, catalog, sales_table, tmp_path):
        definitions = [
            SmaDefinition("gmin", "SALES", minimum(col("ship")), ("flag",)),
            SmaDefinition("gmax", "SALES", maximum(col("ship")), ("flag",)),
        ]
        sma_set, _ = build_sma_set(
            sales_table, definitions, directory=str(tmp_path / "grp")
        )
        partitioning = brute_force_partition_check(
            sales_table, sma_set, cmp("ship", "<=", mid())
        )
        assert partitioning.num_qualifying > 0

    def test_grouped_matches_ungrouped_bounds(
        self, catalog, sales_table, sales_sma_set, tmp_path
    ):
        definitions = [
            SmaDefinition("gmin", "SALES", minimum(col("ship")), ("flag",)),
            SmaDefinition("gmax", "SALES", maximum(col("ship")), ("flag",)),
        ]
        grouped_set, _ = build_sma_set(
            sales_table, definitions, directory=str(tmp_path / "grp2"),
            name="grouped",
        )
        predicate = cmp("ship", "<=", mid())
        from_grouped = grouped_set.partition(predicate, charge=False)
        from_ungrouped = sales_sma_set.partition(predicate, charge=False)
        assert from_grouped == from_ungrouped


class TestAggregateLookup:
    def test_exact_match(self, sales_sma_set):
        files = sales_sma_set.aggregate_files(total(col("qty")), ("flag",))
        assert files is not None and set(files) == {("A",), ("R",)}

    def test_grouping_mismatch_returns_none(self, sales_sma_set):
        assert sales_sma_set.aggregate_files(total(col("qty")), ()) is None

    def test_expression_mismatch_returns_none(self, sales_sma_set):
        assert sales_sma_set.aggregate_files(total(col("id")), ("flag",)) is None

    def test_inventory(self, sales_sma_set, sales_table):
        assert sales_sma_set.num_files == 6  # 2 ungrouped + 2x2 grouped
        assert sales_sma_set.total_pages >= 6
        assert sales_sma_set.total_bytes > 0
        assert sales_sma_set.definition_pages("smin") >= 1

    def test_unknown_definition(self, sales_sma_set):
        with pytest.raises(CatalogError):
            sales_sma_set.files_of("ghost")


class TestPersistence:
    def test_save_open_round_trip(self, sales_table, sales_sma_set):
        reopened = SmaSet.open(sales_sma_set.directory, sales_table)
        assert set(reopened.definitions) == set(sales_sma_set.definitions)
        predicate = cmp("ship", "<=", mid())
        assert reopened.partition(predicate, charge=False) == (
            sales_sma_set.partition(predicate, charge=False)
        )

    def test_open_for_wrong_table_rejected(
        self, catalog, sales_table, sales_sma_set
    ):
        other = catalog.create_table(
            "OTHER", sales_table.schema
        )
        with pytest.raises(CatalogError, match="belongs to table"):
            SmaSet.open(sales_sma_set.directory, other)

    def test_add_duplicate_definition_rejected(self, sales_table, sales_sma_set):
        definition = sales_sma_set.definitions["smin"]
        with pytest.raises(CatalogError, match="already"):
            sales_sma_set.add_materialized(definition, {})


class TestCharging:
    def test_partition_charges_each_file_once(
        self, catalog, sales_table, sales_sma_set
    ):
        catalog.go_cold()
        catalog.reset_stats()
        predicate = and_(
            cmp("ship", "<=", mid()), cmp("ship", ">=", mid(1))
        )
        sales_sma_set.partition(predicate)
        # min and max files are one page each: exactly two page reads
        # even though two atoms reference the same column.
        assert catalog.stats.page_reads == 2
        min_entries = sales_sma_set.files_of("smin")[()].num_entries
        assert catalog.stats.sma_entries_read == 2 * min_entries

    def test_uncharged_partition(self, catalog, sales_table, sales_sma_set):
        catalog.go_cold()
        catalog.reset_stats()
        sales_sma_set.partition(cmp("ship", "<=", mid()), charge=False)
        assert catalog.stats.page_reads == 0


class TestFileNames:
    SCHEMA = Schema.of(("id", INT32), ("mode", char(8)), ("part", char(4)))

    def test_distinct_group_keys_get_distinct_files(self, catalog):
        # 'REG AIR' and 'REG_AIR', or ('MAIL', 'A_B') and ('MAIL_A', 'B'),
        # once rendered to one file name: the second group's file collided.
        table = catalog.create_table("SHIPS", self.SCHEMA)
        table.append_rows([(i, ("REG AIR", "MAIL")[i % 2], "A_B") for i in range(40)])
        session = Session(catalog)
        session.define_smas(
            "define sma m select count(*) from SHIPS group by mode;"
            "define sma p select count(*) from SHIPS group by mode, part",
            set_name="modes",
        )
        session.sql("INSERT INTO SHIPS VALUES (40, 'REG_AIR', 'C')")
        session.sql("INSERT INTO SHIPS VALUES (41, 'MAIL_A', 'B')")
        session.sql("INSERT INTO SHIPS VALUES (42, 'MAIL', 'A_B')")

        assert verify_catalog(catalog).ok
        (sma_set,) = catalog.sma_sets("SHIPS")
        paths = [sma.path for sma in sma_set.all_files()]
        assert len(set(paths)) == len(paths) == 4 + 4
        for sql in (
            "SELECT mode, COUNT(*) AS n FROM SHIPS GROUP BY mode ORDER BY mode",
            "SELECT mode, part, COUNT(*) AS n FROM SHIPS "
            "GROUP BY mode, part ORDER BY mode, part",
        ):
            via_sma = session.sql(sql, mode="sma")
            assert repr(via_sma.rows) == repr(session.sql(sql, mode="scan").rows)

    def test_double_underscore_names_are_refused(self, catalog):
        # An ungrouped 'm__A' and 'm' grouped on key ('A',) would share
        # the file m__A.sma.
        table = catalog.create_table("SHIPS", self.SCHEMA)
        table.append_rows([(i, "A", "B") for i in range(4)])
        with pytest.raises(SmaDefinitionError, match="'m__A' contains '__'"):
            Session(catalog).define_smas(
                "define sma m__A select count(*) from SHIPS;"
                "define sma m select count(*) from SHIPS group by mode"
            )
        assert not catalog.sma_sets("SHIPS")

    def test_single_letter_keys_keep_their_names(self, sales_sma_set):
        assert sales_sma_set.file_path("cnt", ("A",)).endswith("cnt__A.sma")
        assert sales_sma_set.file_path("cnt", ("A", "F")).endswith("cnt__A_F.sma")
