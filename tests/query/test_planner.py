"""Tests for plan generation and the cost-based SMA/scan decision."""

import datetime

import numpy as np
import pytest

from repro.core.aggregates import average, count_star, maximum, total
from repro.errors import PlanningError
from repro.lang import cmp, col
from repro.query.planner import Planner, fetch_io_profile
from repro.query.query import AggregateQuery, OutputAggregate, ScanQuery
from repro.storage.disk import PAPER_DISK

from tests.conftest import BASE_DATE


def mid(offset=20):
    return BASE_DATE + datetime.timedelta(days=offset)


def query(where=None, aggregates=None, group_by=("flag",)):
    return AggregateQuery(
        table="SALES",
        aggregates=aggregates
        or (
            OutputAggregate("s", total(col("qty"))),
            OutputAggregate("n", count_star()),
        ),
        where=where if where is not None else cmp("ship", "<=", mid()),
        group_by=group_by,
    )


class TestFetchIoProfile:
    def test_empty(self):
        assert fetch_io_profile(np.zeros(5, dtype=bool), 1) == (0, 0)

    def test_contiguous_run_is_one_skip(self):
        fetched = np.array([0, 1, 1, 1, 0], dtype=bool)
        seq, skip = fetch_io_profile(fetched, 1)
        assert (seq, skip) == (2, 1)

    def test_scattered_buckets_all_skip(self):
        fetched = np.array([1, 0, 1, 0, 1], dtype=bool)
        seq, skip = fetch_io_profile(fetched, 1)
        assert (seq, skip) == (0, 3)

    def test_multi_page_buckets(self):
        fetched = np.array([1, 1], dtype=bool)
        seq, skip = fetch_io_profile(fetched, 4)
        assert seq + skip == 8
        assert skip == 1


@pytest.fixture
def big_sales(catalog, tmp_path):
    """A table large enough that the SMA plan beats per-file seek costs."""
    from repro.core import (
        SmaDefinition, build_sma_set, count_star, maximum, minimum, total,
    )
    from tests.conftest import SALES_SCHEMA

    table = catalog.create_table("SALES", SALES_SCHEMA, clustered_on="ship")
    table.append_rows(
        [
            (i, BASE_DATE + datetime.timedelta(days=i // 500), float(i % 7), "AR"[i % 2])
            for i in range(20_000)
        ]
    )
    definitions = [
        SmaDefinition("smin", "SALES", minimum(col("ship"))),
        SmaDefinition("smax", "SALES", maximum(col("ship"))),
        SmaDefinition("cnt", "SALES", count_star(), ("flag",)),
        SmaDefinition("sqty", "SALES", total(col("qty")), ("flag",)),
    ]
    sma_set, _ = build_sma_set(
        table, definitions, directory=str(tmp_path / "big-smas")
    )
    catalog.register_sma_set("SALES", sma_set)
    return table


class TestAggregatePlanning:
    def test_auto_picks_sma_on_clustered_data(self, catalog, big_sales):
        plan = Planner(catalog).plan(query())
        assert plan.info.strategy == "sma_gaggr"
        assert plan.info.est_sma_seconds < plan.info.est_scan_seconds

    def test_auto_respects_costs_at_toy_scale(
        self, catalog, sales_table, sales_sma_set
    ):
        # On a 9-bucket table the per-SMA-file positioning seeks exceed
        # the whole scan: the cost-based planner must notice and fall
        # back — the paper's "bad decision" safety valve in reverse.
        plan = Planner(catalog).plan(query())
        assert plan.info.strategy == "gaggr"
        assert plan.info.est_scan_seconds < plan.info.est_sma_seconds

    def test_forced_scan(self, catalog, sales_table, sales_sma_set):
        plan = Planner(catalog).plan(query(), mode="scan")
        assert plan.info.strategy == "gaggr"

    def test_forced_sma_without_coverage_raises(
        self, catalog, sales_table, sales_sma_set
    ):
        uncovered = query(
            aggregates=(OutputAggregate("m", maximum(col("qty"))),)
        )
        with pytest.raises(PlanningError):
            Planner(catalog).plan(uncovered, mode="sma")

    def test_uncovered_falls_back_to_scan(
        self, catalog, sales_table, sales_sma_set
    ):
        uncovered = query(
            aggregates=(OutputAggregate("m", maximum(col("qty"))),)
        )
        plan = Planner(catalog).plan(uncovered)
        assert plan.info.strategy == "gaggr"
        assert "no covering" in plan.info.reason

    def test_avg_requires_sum_sma(self, catalog, big_sales):
        covered = query(
            aggregates=(OutputAggregate("a", average(col("qty"))),)
        )
        plan = Planner(catalog).plan(covered)
        assert plan.info.strategy == "sma_gaggr"

    def test_plans_execute_identically(self, catalog, sales_table, sales_sma_set):
        from tests.conftest import assert_rows_equal

        planner = Planner(catalog)
        _, sma_rows = planner.plan(query(), mode="sma").run()[0], \
            planner.plan(query(), mode="sma").run()[1]
        _, scan_rows = planner.plan(query(), mode="scan").run()
        assert_rows_equal(sorted(sma_rows, key=repr), sorted(scan_rows, key=repr))

    def test_invalid_mode_rejected(self, catalog, sales_table, sales_sma_set):
        with pytest.raises(PlanningError):
            Planner(catalog).plan(query(), mode="bogus")

    def test_unknown_order_by_rejected(self, catalog, sales_table, sales_sma_set):
        with pytest.raises(PlanningError):
            AggregateQuery(
                table="SALES",
                aggregates=(OutputAggregate("n", count_star()),),
                group_by=("flag",),
                order_by=("missing",),
            ).validate(sales_table.schema)

    def test_estimates_reported(self, catalog, sales_table, sales_sma_set):
        info = Planner(catalog).plan(query()).info
        assert info.fraction_ambivalent is not None
        assert info.est_scan_seconds == pytest.approx(
            PAPER_DISK.scan_seconds(
                sales_table.num_pages, sales_table.num_records
            )
            + PAPER_DISK.random_page_s
        )


@pytest.fixture
def competing_sets(catalog, tmp_path):
    """Two covering SMA sets where the one registered FIRST is strictly
    more expensive: 'fat' materializes its aggregates at a needlessly
    fine grouping (flag, cat), so serving a GROUP BY flag query reads
    more SMA-files (and pays more positioning seeks) than 'lean'."""
    from repro.core import (
        SmaDefinition, build_sma_set, count_star, maximum, minimum, total,
    )
    from repro.storage import DATE, FLOAT64, INT32, Schema, char

    schema = Schema.of(
        ("id", INT32),
        ("ship", DATE),
        ("qty", FLOAT64),
        ("flag", char(1)),
        ("cat", char(1)),
    )
    table = catalog.create_table("SALES", schema, clustered_on="ship")
    table.append_rows(
        [
            (
                i,
                BASE_DATE + datetime.timedelta(days=i // 500),
                float(i % 7),
                "AR"[i % 2],
                "XY"[i % 3 % 2],
            )
            for i in range(20_000)
        ]
    )

    def definitions(group_by):
        return [
            SmaDefinition("smin", "SALES", minimum(col("ship"))),
            SmaDefinition("smax", "SALES", maximum(col("ship"))),
            SmaDefinition("cnt", "SALES", count_star(), group_by),
            SmaDefinition("sqty", "SALES", total(col("qty")), group_by),
        ]

    fat, _ = build_sma_set(
        table, definitions(("flag", "cat")),
        directory=str(tmp_path / "fat"), name="fat",
    )
    catalog.register_sma_set("SALES", fat)  # registered first
    lean, _ = build_sma_set(
        table, definitions(("flag",)),
        directory=str(tmp_path / "lean"), name="lean",
    )
    catalog.register_sma_set("SALES", lean)
    return table


class TestCheapestCoveringSet:
    """Regression: the planner must pick the CHEAPEST covering SMA set,
    not the first registered one (the old ``covering[0]`` behavior)."""

    def test_auto_picks_cheapest_not_first(self, catalog, competing_sets):
        plan = Planner(catalog).plan(query())
        assert plan.info.strategy == "sma_gaggr"
        assert plan.info.sma_set_name == "lean"
        assert "cheapest of 2" in plan.info.reason

    def test_forced_sma_also_picks_cheapest(self, catalog, competing_sets):
        plan = Planner(catalog).plan(query(), mode="sma")
        assert plan.info.sma_set_name == "lean"
        assert "cheapest covering set" in plan.info.reason

    def test_both_sets_costed_in_alternatives(self, catalog, competing_sets):
        explanation = Planner(catalog).plan(query()).explanation
        by_set = {
            path.sma_set_name: path
            for path in explanation.alternatives
            if path.sma_set_name is not None
        }
        assert set(by_set) == {"fat", "lean"}
        assert by_set["lean"].est_seconds < by_set["fat"].est_seconds
        assert by_set["lean"].chosen and not by_set["fat"].chosen

    def test_explicit_set_restriction_still_honored(
        self, catalog, competing_sets
    ):
        plan = Planner(catalog).plan(query(), sma_set="fat")
        assert plan.info.sma_set_name == "fat"


class TestScanPlanning:
    def test_auto_picks_sma_scan_for_selective_predicate(
        self, catalog, sales_table, sales_sma_set
    ):
        scan_query = ScanQuery("SALES", where=cmp("ship", "<=", mid(2)))
        plan = Planner(catalog).plan(scan_query)
        assert plan.info.strategy == "sma_scan"

    def test_auto_picks_seq_scan_for_unselective_predicate(
        self, catalog, sales_table, sales_sma_set
    ):
        scan_query = ScanQuery("SALES", where=cmp("ship", "<=", mid(10_000)))
        plan = Planner(catalog).plan(scan_query)
        # Everything qualifies: fetching all buckets via SMA costs the
        # scan plus the SMA read — scan wins.
        assert plan.info.strategy == "seq_scan"

    def test_ungradeable_predicate_falls_back(
        self, catalog, sales_table, sales_sma_set
    ):
        scan_query = ScanQuery("SALES", where=cmp("id", "<", 50))
        plan = Planner(catalog).plan(scan_query)
        assert plan.info.strategy == "seq_scan"

    def test_forced_sma_scan_runs(self, catalog, sales_table, sales_sma_set):
        scan_query = ScanQuery(
            "SALES", where=cmp("ship", "<=", mid(2)), columns=("id",)
        )
        columns, rows = Planner(catalog).plan(scan_query, mode="sma").run()
        assert columns == ["id"]
        everything = sales_table.read_all()
        from repro.storage.types import date_to_int

        expected = (everything["ship"] <= date_to_int(mid(2))).sum()
        assert len(rows) == expected

    def test_forced_sma_scan_without_smas_raises(self, catalog, sales_table):
        scan_query = ScanQuery("SALES", where=cmp("ship", "<=", mid(2)))
        with pytest.raises(PlanningError):
            Planner(catalog).plan(scan_query, mode="sma")
