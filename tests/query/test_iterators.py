"""Tests for the physical operators: Scan (sequential, filtered and
graded by SMAs) and Project."""

import datetime

import numpy as np
import pytest

from repro.errors import ExecutionError
from repro.lang import TruePredicate, cmp
from repro.query.iterators import Project, Scan

from tests.conftest import BASE_DATE


TRUE = TruePredicate()


def mid(offset=20):
    return BASE_DATE + datetime.timedelta(days=offset)


class TestSeqScan:
    def test_yields_every_tuple_in_order(self, sales_table):
        scan = Scan(sales_table, TRUE)
        collected = np.concatenate(list(scan.batches()))
        assert len(collected) == sales_table.num_records
        assert list(collected["id"][:3]) == [0, 1, 2]

    def test_charges_per_tuple(self, catalog, sales_table):
        catalog.reset_stats()
        list(Scan(sales_table, TRUE).batches())
        assert catalog.stats.tuples_scanned == sales_table.num_records
        assert catalog.stats.buckets_fetched == sales_table.num_buckets

    def test_rows_iteration(self, sales_table):
        first = next(iter(Scan(sales_table, TRUE).rows()))
        assert first[0] == 0

    def test_schema_passthrough(self, sales_table):
        assert Scan(sales_table, TRUE).schema == sales_table.schema


class TestFilter:
    def test_filters_tuples(self, sales_table):
        operator = Scan(sales_table, cmp("qty", "=", 3.0))
        collected = np.concatenate(list(operator.batches()))
        assert (collected["qty"] == 3.0).all()
        everything = sales_table.read_all()
        assert len(collected) == (everything["qty"] == 3.0).sum()

    def test_binds_constants(self, sales_table):
        operator = Scan(sales_table, cmp("ship", "<=", mid()))
        collected = np.concatenate(list(operator.batches()))
        assert len(collected) > 0

    def test_all_pass_short_circuit(self, sales_table):
        operator = Scan(sales_table, cmp("id", ">=", 0))
        total = sum(len(b) for b in operator.batches())
        assert total == sales_table.num_records


class TestProject:
    def test_keeps_and_orders_columns(self, sales_table):
        operator = Project(Scan(sales_table, TRUE), ("qty", "id"))
        batch = next(operator.batches())
        assert batch.dtype.names == ("qty", "id")

    def test_empty_projection_rejected(self, sales_table):
        with pytest.raises(ExecutionError):
            Project(Scan(sales_table, TRUE), ())

    def test_values_survive(self, sales_table):
        operator = Project(Scan(sales_table, TRUE), ("id",))
        collected = np.concatenate(list(operator.batches()))
        assert collected["id"][-1] == sales_table.num_records - 1


class TestSmaScan:
    """A scan given the selection SMAs' grading (Figure 6)."""

    @staticmethod
    def graded(table, predicate, sma_set):
        partitioning = sma_set.partition(predicate.bind(table.schema))
        return Scan(table, predicate, partitioning)

    def test_same_tuples_as_filtered_seqscan(self, sales_table, sales_sma_set):
        predicate = cmp("ship", "<=", mid())
        via_sma = np.concatenate(
            list(self.graded(sales_table, predicate, sales_sma_set).batches())
        )
        via_scan = np.concatenate(
            list(Scan(sales_table, predicate).batches())
        )
        np.testing.assert_array_equal(np.sort(via_sma["id"]), np.sort(via_scan["id"]))

    def test_skips_disqualifying_buckets(self, catalog, sales_table, sales_sma_set):
        predicate = cmp("ship", "<=", mid(2))
        operator = self.graded(sales_table, predicate, sales_sma_set)
        catalog.reset_stats()
        list(operator.batches())
        stats = catalog.stats
        assert stats.buckets_skipped > 0
        assert stats.buckets_fetched < sales_table.num_buckets
        assert stats.buckets_fetched + stats.buckets_skipped == sales_table.num_buckets

    def test_qualifying_buckets_returned_whole(self, sales_table, sales_sma_set):
        predicate = cmp("id", ">=", -1)  # ungradeable -> all ambivalent
        operator = self.graded(sales_table, predicate, sales_sma_set)
        collected = np.concatenate(list(operator.batches()))
        assert len(collected) == sales_table.num_records

    def test_precomputed_partitioning_reused(
        self, catalog, sales_table, sales_sma_set
    ):
        predicate = cmp("ship", "<=", mid()).bind(sales_table.schema)
        partitioning = sales_sma_set.partition(predicate)
        catalog.reset_stats()
        operator = Scan(sales_table, predicate, partitioning)
        list(operator.batches())
        # No further SMA reads were charged: partitioning was injected.
        assert catalog.stats.sma_entries_read == 0
