"""MIN/MAX output aggregates served from grouped min/max SMA-files.

Exercises the SMA_GAggr advance-from-SMA path for MIN and MAX (with
validity masks — groups absent from a bucket must not poison the
extremum) and the pure-SMA answering of unfiltered extremum queries.
"""

import datetime

import pytest

from repro.core import (
    SmaDefinition,
    build_sma_set,
    count_star,
    maximum,
    minimum,
)
from repro.lang import cmp, col
from repro.lang.predicate import TruePredicate
from repro.query.gaggr import GAggr
from repro.query.query import AggregateQuery, OutputAggregate
from repro.query.session import Session
from repro.query.sma_gaggr import SmaGAggr

from tests.conftest import BASE_DATE, assert_rows_equal


@pytest.fixture
def minmax_set(catalog, sales_table, tmp_path):
    definitions = [
        SmaDefinition("smin", "SALES", minimum(col("ship"))),
        SmaDefinition("smax", "SALES", maximum(col("ship"))),
        SmaDefinition("cnt", "SALES", count_star(), ("flag",)),
        SmaDefinition("gmin", "SALES", minimum(col("ship")), ("flag",)),
        SmaDefinition("gmax", "SALES", maximum(col("ship")), ("flag",)),
        SmaDefinition("qmin", "SALES", minimum(col("qty")), ("flag",)),
        SmaDefinition("qmax", "SALES", maximum(col("qty")), ("flag",)),
    ]
    sma_set, _ = build_sma_set(
        sales_table, definitions, directory=str(tmp_path / "minmax"),
        name="minmax",
    )
    catalog.register_sma_set("SALES", sma_set)
    return sma_set


AGGS = (
    OutputAggregate("first_ship", minimum(col("ship"))),
    OutputAggregate("last_ship", maximum(col("ship"))),
    OutputAggregate("min_qty", minimum(col("qty"))),
    OutputAggregate("max_qty", maximum(col("qty"))),
    OutputAggregate("n", count_star()),
)


def run_both(table, sma_set, predicate):
    _, sma_rows = SmaGAggr(
        table, predicate, ("flag",), AGGS, sma_set
    ).execute()
    _, scan_rows = GAggr(table, predicate, ("flag",), AGGS).execute()
    assert_rows_equal(sorted(sma_rows, key=repr), sorted(scan_rows, key=repr))
    return sma_rows


class TestMinMaxFromSmas:
    def test_unfiltered(self, sales_table, minmax_set):
        rows = run_both(sales_table, minmax_set, TruePredicate())
        assert len(rows) == 2
        # Dates come back as datetime.date, qty as float.
        assert isinstance(rows[0][1], datetime.date)
        assert isinstance(rows[0][3], float)

    def test_range_filtered(self, sales_table, minmax_set):
        cutoff = BASE_DATE + datetime.timedelta(days=20)
        run_both(sales_table, minmax_set, cmp("ship", "<=", cutoff))

    def test_extremum_equals_global_truth(self, sales_table, minmax_set):
        rows = run_both(sales_table, minmax_set, TruePredicate())
        everything = sales_table.read_all()
        from repro.storage.types import int_to_date

        for flag, first, last, qmin, qmax, n in rows:
            mask = everything["flag"] == flag.encode()
            assert first == int_to_date(int(everything["ship"][mask].min()))
            assert last == int_to_date(int(everything["ship"][mask].max()))
            assert qmin == everything["qty"][mask].min()
            assert qmax == everything["qty"][mask].max()

    def test_unfiltered_query_never_touches_relation(
        self, catalog, sales_table, minmax_set
    ):
        catalog.reset_stats()
        SmaGAggr(
            sales_table, TruePredicate(), ("flag",), AGGS, minmax_set
        ).execute()
        assert catalog.stats.buckets_fetched == 0
        assert catalog.stats.tuples_scanned == 0

    def test_validity_respected_with_rare_group(
        self, catalog, sales_table, minmax_set
    ):
        """A group living in exactly one bucket must not contaminate
        others' extrema (validity masks gate the qualifying reads)."""
        from repro.core import SmaMaintainer
        from tests.conftest import SALES_SCHEMA

        maintainer = SmaMaintainer(sales_table, [minmax_set])
        rare = SALES_SCHEMA.batch_from_rows(
            [(77_000, BASE_DATE + datetime.timedelta(days=999), 42.0, "Z")]
        )
        maintainer.insert(rare)
        rows = run_both(sales_table, minmax_set, TruePredicate())
        by_flag = {row[0]: row for row in rows}
        assert by_flag["Z"][3] == 42.0  # min_qty
        assert by_flag["Z"][4] == 42.0  # max_qty
        assert by_flag["A"][4] == 6.0   # unaffected

    def test_planner_covers_minmax_query(self, catalog, sales_table, minmax_set):
        session = Session(catalog)
        query = AggregateQuery(
            table="SALES",
            aggregates=AGGS,
            group_by=("flag",),
            order_by=("flag",),
        )
        result = session.execute(query, mode="sma", sma_set="minmax")
        scan = session.execute(query, mode="scan")
        assert_rows_equal(result.rows, scan.rows)
