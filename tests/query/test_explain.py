"""EXPLAIN tests: plan trees, costs and grading through every surface.

Golden-structure tests for all four strategies (sma_gaggr, gaggr,
sma_scan, seq_scan) and the forced modes, through ``Session.explain``
and the SQL ``EXPLAIN SELECT`` entry point.
"""

import datetime

import pytest

from repro.core.aggregates import count_star, total
from repro.lang import cmp, col
from repro.query.planner import Explanation
from repro.query.query import AggregateQuery, OutputAggregate, ScanQuery
from repro.query.session import Session

from tests.conftest import BASE_DATE


def mid(offset=20):
    return BASE_DATE + datetime.timedelta(days=offset)


def aggregate_query(offset=20):
    return AggregateQuery(
        table="SALES",
        aggregates=(
            OutputAggregate("s", total(col("qty"))),
            OutputAggregate("n", count_star()),
        ),
        where=cmp("ship", "<=", mid(offset)),
        group_by=("flag",),
    )


@pytest.fixture
def session(catalog, sales_table, sales_sma_set):
    return Session(catalog)


def node_names(tree):
    return [node.name for node in tree.walk()]


class TestStrategyTrees:
    def test_sma_gaggr_tree(self, session):
        explanation = session.explain(aggregate_query(), mode="sma")
        assert explanation.strategy == "sma_gaggr"
        root = explanation.tree
        assert root.name == "SmaGAggr"
        assert root.prop("sma_set") == "default"
        assert node_names(root) == ["SmaGAggr", "SmaGrade", "BucketFetch"]
        grade = root.children[0]
        # The three grading fractions partition the bucket count.
        total_buckets = int(grade.prop("qualifying").split("/")[1])
        parts = sum(
            int(grade.prop(key).split("/")[0])
            for key in ("qualifying", "ambivalent", "disqualifying")
        )
        assert parts == total_buckets

    def test_gaggr_tree(self, session):
        # Toy scale: per-SMA-file seeks exceed the scan, auto mode falls
        # back — and EXPLAIN still shows the grading that lost.
        explanation = session.explain(aggregate_query())
        assert explanation.strategy == "gaggr"
        assert node_names(explanation.tree) == ["GAggr", "Filter", "SeqScan"]
        assert explanation.grading is not None
        assert explanation.info.est_scan_seconds < explanation.info.est_sma_seconds

    def test_sma_scan_tree(self, session):
        scan = ScanQuery("SALES", where=cmp("ship", "<=", mid(2)))
        explanation = session.explain(scan)
        assert explanation.strategy == "sma_scan"
        assert node_names(explanation.tree) == ["SmaScan", "SmaGrade"]
        assert explanation.tree.prop("mode") == "serial"

    def test_seq_scan_tree_forced(self, session):
        scan = ScanQuery("SALES", where=cmp("ship", "<=", mid(2)))
        explanation = session.explain(scan, mode="scan")
        assert explanation.strategy == "seq_scan"
        assert node_names(explanation.tree) == ["Filter", "SeqScan"]
        # Forced scans never grade, so no SMA estimates are reported.
        assert explanation.info.est_sma_seconds is None
        assert explanation.info.est_scan_seconds is None
        assert [path.strategy for path in explanation.alternatives] == ["seq_scan"]

    def test_projection_wraps_scan_tree(self, session):
        scan = ScanQuery(
            "SALES", where=cmp("ship", "<=", mid(2)), columns=("id", "qty")
        )
        explanation = session.explain(scan)
        assert explanation.tree.name == "Project"
        assert explanation.tree.prop("columns") == "id, qty"


class TestForcedModes:
    def test_forced_sma_reason(self, session):
        explanation = session.explain(aggregate_query(), mode="sma")
        assert explanation.info.reason == "forced by caller"
        assert explanation.mode == "sma"

    def test_forced_scan_reason(self, session):
        explanation = session.explain(aggregate_query(), mode="scan")
        assert explanation.info.reason == "forced by caller"
        assert explanation.strategy == "gaggr"

    def test_auto_reports_both_alternatives(self, session):
        explanation = session.explain(aggregate_query())
        strategies = {path.strategy for path in explanation.alternatives}
        assert strategies == {"sma_gaggr", "gaggr"}
        chosen = [path for path in explanation.alternatives if path.chosen]
        assert len(chosen) == 1
        # Alternatives are ordered cheapest-first and the winner leads.
        assert explanation.alternatives[0].chosen


class TestParallelBinding:
    def test_morsel_mode_shows_in_tree(self, catalog, sales_table, sales_sma_set):
        session = Session(catalog, scan_workers=4)
        explanation = session.explain(aggregate_query(), mode="scan")
        assert node_names(explanation.tree) == ["GAggr", "Filter", "SeqScan"]
        scan_node = list(explanation.tree.walk())[-1]
        assert scan_node.prop("workers") == "4"
        assert scan_node.prop("mode") == "morsel(workers=4)"

    def test_serial_session_binds_serial(self, session):
        explanation = session.explain(aggregate_query(), mode="scan")
        scan_node = list(explanation.tree.walk())[-1]
        assert scan_node.prop("mode") == "serial"


class TestRendering:
    def test_render_golden_structure(self, session):
        lines = session.explain(aggregate_query(), mode="sma").render().splitlines()
        # Section order is part of the EXPLAIN contract.
        assert lines[0].startswith("SELECT flag, sum(qty) AS s")
        assert lines[1] == "mode: sma"
        assert "physical plan:" in lines
        tree_start = lines.index("physical plan:") + 1
        assert lines[tree_start].lstrip().startswith("SmaGAggr")
        assert lines[tree_start + 1].lstrip().startswith("├─ SmaGrade")
        assert lines[tree_start + 2].lstrip().startswith("└─ BucketFetch")
        assert any(line.startswith("strategy: sma_gaggr") for line in lines)
        assert any(line.startswith("grading: 9 buckets:") for line in lines)
        assert any(line == "alternatives:" for line in lines)
        assert any("-> sma_gaggr via 'default'" in line for line in lines)

    def test_str_matches_render(self, session):
        explanation = session.explain(aggregate_query())
        assert str(explanation) == explanation.render()


class TestSqlExplain:
    SQL = (
        "EXPLAIN SELECT flag, SUM(qty) AS s, COUNT(*) AS n FROM SALES "
        "WHERE ship <= DATE '1997-01-21' GROUP BY flag"
    )

    def test_returns_plan_rows(self, session):
        result = session.sql(self.SQL)
        assert result.columns == ["QUERY PLAN"]
        text = "\n".join(row[0] for row in result.rows)
        assert "physical plan:" in text
        assert "alternatives:" in text
        assert "strategy:" in text

    def test_does_not_touch_the_heap(self, session):
        result = session.sql(self.SQL)
        # Planning grades SMA-files but never fetches relation buckets.
        assert result.stats.buckets_fetched == 0
        assert result.stats.tuples_scanned == 0

    def test_explain_matches_session_explain(self, session):
        result = session.sql(self.SQL)
        direct = session.explain(aggregate_query())
        assert isinstance(direct, Explanation)
        assert "\n".join(row[0] for row in result.rows) == direct.render()
