"""SMA_GAggr must return exactly what plain GAggr returns.

This is the central correctness property of the whole system: whatever
the predicate, grouping and aggregates, answering from SMA-files plus
ambivalent buckets gives the same rows as the full scan.  We check it
on fixtures and with randomized predicates.
"""

import datetime

import numpy as np
import pytest

from repro.core.aggregates import average, count_star, maximum, minimum, total
from repro.lang import and_, cmp, col, or_
from repro.lang.predicate import TruePredicate
from repro.query.gaggr import GAggr
from repro.query.query import OutputAggregate
from repro.query.sma_gaggr import SmaGAggr

from tests.conftest import BASE_DATE, assert_rows_equal


def run_both(table, sma_set, predicate, group_by, aggregates):
    sma_columns, sma_rows = SmaGAggr(
        table, predicate, group_by, aggregates, sma_set
    ).execute()
    scan_columns, scan_rows = GAggr(table, predicate, group_by, aggregates).execute()
    assert sma_columns == scan_columns
    # Deterministic order for comparison.
    assert_rows_equal(sorted(sma_rows, key=repr), sorted(scan_rows, key=repr))
    return sma_rows


AGGS = (
    OutputAggregate("s", total(col("qty"))),
    OutputAggregate("a", average(col("qty"))),
    OutputAggregate("n", count_star()),
)


def mid(offset):
    return BASE_DATE + datetime.timedelta(days=offset)


class TestEquivalence:
    def test_simple_range_predicate(self, sales_table, sales_sma_set):
        rows = run_both(
            sales_table, sales_sma_set, cmp("ship", "<=", mid(20)),
            ("flag",), AGGS,
        )
        assert len(rows) == 2

    def test_true_predicate(self, sales_table, sales_sma_set):
        run_both(sales_table, sales_sma_set, TruePredicate(), ("flag",), AGGS)

    def test_empty_result_predicate(self, sales_table, sales_sma_set):
        rows = run_both(
            sales_table, sales_sma_set, cmp("ship", ">", mid(10_000)),
            ("flag",), AGGS,
        )
        assert rows == []

    def test_everything_qualifies(self, sales_table, sales_sma_set):
        run_both(
            sales_table, sales_sma_set, cmp("ship", "<=", mid(10_000)),
            ("flag",), AGGS,
        )

    def test_conjunction(self, sales_table, sales_sma_set):
        predicate = and_(
            cmp("ship", ">=", mid(5)), cmp("ship", "<=", mid(30)),
            cmp("qty", ">", 1.0),
        )
        run_both(sales_table, sales_sma_set, predicate, ("flag",), AGGS)

    def test_disjunction(self, sales_table, sales_sma_set):
        predicate = or_(cmp("ship", "<=", mid(2)), cmp("ship", ">=", mid(38)))
        run_both(sales_table, sales_sma_set, predicate, ("flag",), AGGS)

    def test_ungrouped(self, sales_table, sales_sma_set):
        # Requires ungrouped count/sum SMAs — build them on the fly.
        from repro.core import SmaDefinition, build_sma_set
        import os

        definitions = [
            SmaDefinition("umin", "SALES", minimum(col("ship"))),
            SmaDefinition("umax", "SALES", maximum(col("ship"))),
            SmaDefinition("ucnt", "SALES", count_star()),
            SmaDefinition("usum", "SALES", total(col("qty"))),
        ]
        directory = os.path.join(
            os.path.dirname(sales_table.heap.path), "ungrouped"
        )
        sma_set, _ = build_sma_set(
            sales_table, definitions, directory=directory, name="ungrouped"
        )
        rows = run_both(
            sales_table, sma_set, cmp("ship", "<=", mid(20)), (), AGGS
        )
        assert len(rows) == 1

    @pytest.mark.parametrize("seed", range(6))
    def test_randomized_predicates(self, sales_table, sales_sma_set, seed):
        rng = np.random.default_rng(seed)
        offsets = sorted(rng.integers(-5, 50, size=2).tolist())
        ops = rng.choice(["<", "<=", ">", ">=", "=", "<>"], size=2)
        predicate = and_(
            cmp("ship", str(ops[0]), mid(int(offsets[0]))),
            cmp("ship", str(ops[1]), mid(int(offsets[1]))),
        )
        run_both(sales_table, sales_sma_set, predicate, ("flag",), AGGS)


class TestSmaGAggrBehaviour:
    def test_rejects_uncovered_aggregates(self, sales_table, sales_sma_set):
        from repro.errors import PlanningError

        uncovered = (OutputAggregate("m", maximum(col("qty"))),)
        with pytest.raises(PlanningError):
            SmaGAggr(
                sales_table, TruePredicate(), ("flag",), uncovered, sales_sma_set
            )

    def test_qualifying_buckets_never_fetched(
        self, catalog, sales_table, sales_sma_set
    ):
        predicate = cmp("ship", "<=", mid(20))
        catalog.reset_stats()
        operator = SmaGAggr(
            sales_table, predicate, ("flag",), AGGS, sales_sma_set
        )
        operator.execute()
        partitioning = operator.partitioning
        assert catalog.stats.buckets_fetched == partitioning.num_ambivalent
        assert catalog.stats.tuples_scanned < sales_table.num_records

    def test_count_aggregate_uses_shared_count(self, sales_table, sales_sma_set):
        only_count = (OutputAggregate("n", count_star()),)
        _, rows = SmaGAggr(
            sales_table, TruePredicate(), ("flag",), only_count, sales_sma_set
        ).execute()
        assert sum(r[-1] for r in rows) == sales_table.num_records
