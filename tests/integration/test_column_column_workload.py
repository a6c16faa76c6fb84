"""End-to-end A θ B grading: a late-delivery workload over two date
columns of LINEITEM (the fourth atomic form of Section 3.1)."""

import numpy as np
import pytest

from repro.core import SmaDefinition, build_sma_set, maximum, minimum
from repro.lang import cmp, col
from repro.query.iterators import Scan
from repro.query.query import ScanQuery
from repro.query.session import Session
from repro.tpcd.loader import load_lineitem


@pytest.fixture(scope="module")
def env(tmp_path_factory):
    from repro.storage import Catalog

    root = tmp_path_factory.mktemp("ab-db")
    catalog = Catalog(str(root), buffer_pages=4096)
    loaded = load_lineitem(
        catalog, scale_factor=0.003, clustering="sorted", build_smas=False
    )
    definitions = [
        SmaDefinition("cmin", "LINEITEM", minimum(col("L_COMMITDATE"))),
        SmaDefinition("cmax", "LINEITEM", maximum(col("L_COMMITDATE"))),
        SmaDefinition("rmin", "LINEITEM", minimum(col("L_RECEIPTDATE"))),
        SmaDefinition("rmax", "LINEITEM", maximum(col("L_RECEIPTDATE"))),
        SmaDefinition("smin", "LINEITEM", minimum(col("L_SHIPDATE"))),
        SmaDefinition("smax", "LINEITEM", maximum(col("L_SHIPDATE"))),
    ]
    sma_set, _ = build_sma_set(
        loaded.table, definitions, directory=str(root / "dates"), name="dates"
    )
    catalog.register_sma_set("LINEITEM", sma_set)
    yield catalog, loaded.table, sma_set
    catalog.close()


LATE = cmp("L_RECEIPTDATE", ">", col("L_COMMITDATE"))
IMPOSSIBLE = cmp("L_RECEIPTDATE", "<=", col("L_SHIPDATE"))


class TestGrading:
    def test_soundness(self, env):
        catalog, table, sma_set = env
        bound = LATE.bind(table.schema)
        partitioning = sma_set.partition(bound, charge=False)
        for bucket_no in range(table.num_buckets):
            records = table.read_bucket(bucket_no)
            satisfied = bound.evaluate(records)
            if partitioning.qualifying[bucket_no]:
                assert bool(satisfied.all())
            if partitioning.disqualifying[bucket_no]:
                assert not bool(satisfied.any())

    def test_impossible_condition_heavily_pruned(self, env):
        """Receipt <= ship never holds (dbgen enforces receipt > ship):
        buckets whose receipt range clears the ship range disqualify
        wholesale."""
        catalog, table, sma_set = env
        bound = IMPOSSIBLE.bind(table.schema)
        partitioning = sma_set.partition(bound, charge=False)
        assert partitioning.num_qualifying == 0
        assert partitioning.num_disqualifying > 0


def graded_scan(table, sma_set):
    """LATE through the selection SMAs (Figure 6)."""
    return Scan(table, LATE, sma_set.partition(LATE.bind(table.schema)))


class TestExecution:
    def test_sma_scan_equals_filtered_scan(self, env):
        catalog, table, sma_set = env
        via_sma = np.concatenate(list(graded_scan(table, sma_set).batches()))
        via_scan = np.concatenate(list(Scan(table, LATE).batches()))
        assert len(via_sma) == len(via_scan)
        np.testing.assert_array_equal(
            np.sort(via_sma["L_ORDERKEY"]), np.sort(via_scan["L_ORDERKEY"])
        )

    def test_planner_handles_column_column(self, env):
        catalog, table, sma_set = env
        session = Session(catalog)
        query = ScanQuery("LINEITEM", where=IMPOSSIBLE, columns=("L_ORDERKEY",))
        result = session.execute(query)
        assert result.rows == []

    def test_every_late_row_is_actually_late(self, env):
        catalog, table, sma_set = env
        matched = np.concatenate(list(graded_scan(table, sma_set).batches()))
        assert (matched["L_RECEIPTDATE"] > matched["L_COMMITDATE"]).all()
