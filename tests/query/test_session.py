"""Tests for the Session façade: measurement, SQL entry points, ordering."""

import datetime

import pytest

from repro.core.aggregates import count_star, total
from repro.errors import PlanningError
from repro.lang import cmp, col
from repro.obs import Tracer
from repro.query.query import AggregateQuery, OutputAggregate, ScanQuery
from repro.query.session import Session

from tests.conftest import BASE_DATE


def mid(offset=20):
    return BASE_DATE + datetime.timedelta(days=offset)


@pytest.fixture
def session(catalog, sales_table, sales_sma_set):
    return Session(catalog)


def simple_query(order_by=("flag",)):
    return AggregateQuery(
        table="SALES",
        aggregates=(
            OutputAggregate("s", total(col("qty"))),
            OutputAggregate("n", count_star()),
        ),
        where=cmp("ship", "<=", mid()),
        group_by=("flag",),
        order_by=order_by,
    )


class TestExecution:
    def test_result_carries_rows_and_columns(self, session):
        result = session.execute(simple_query())
        assert result.columns == ["flag", "s", "n"]
        assert len(result.rows) == 2

    def test_order_by_applied(self, session):
        result = session.execute(simple_query())
        assert [row[0] for row in result.rows] == ["A", "R"]

    def test_order_by_desc(self, session):
        result = session.sql(
            "SELECT flag, COUNT(*) AS n FROM SALES "
            "GROUP BY flag ORDER BY flag DESC"
        )
        assert [row[0] for row in result.rows] == ["R", "A"]

    def test_mixed_direction_multi_key_sort(self, session):
        result = session.sql(
            "SELECT flag, qty, COUNT(*) AS n FROM SALES "
            "GROUP BY flag, qty ORDER BY flag, qty DESC"
        )
        flags = [row[0] for row in result.rows]
        assert flags == sorted(flags)
        first_group = [row[1] for row in result.rows if row[0] == flags[0]]
        assert first_group == sorted(first_group, reverse=True)

    def test_column_accessor(self, session):
        result = session.execute(simple_query())
        assert result.column("flag") == ["A", "R"]

    def test_column_accessor_names_available_columns(self, session):
        result = session.execute(simple_query())
        with pytest.raises(KeyError, match=r"'missing'.*'flag'"):
            result.column("missing")

    def test_stats_are_a_window_delta(self, session, catalog):
        first = session.execute(simple_query(), mode="scan", cold=True)
        second = session.execute(simple_query(), mode="scan", cold=True)
        assert first.stats.page_reads == second.stats.page_reads

    def test_cold_costs_more_than_warm(self, session):
        cold = session.execute(simple_query(), mode="sma", cold=True)
        warm = session.execute(simple_query(), mode="sma")
        assert warm.simulated_seconds < cold.simulated_seconds
        assert warm.stats.page_reads < cold.stats.page_reads

    def test_simulated_clock_consistent_with_stats(self, session):
        result = session.execute(simple_query(), mode="scan", cold=True)
        assert result.simulated_seconds == pytest.approx(
            session.disk_model.seconds(result.stats)
        )

    def test_wall_clock_positive(self, session):
        assert session.execute(simple_query()).wall_seconds > 0

    def test_scan_query_execution(self, session, sales_table):
        result = session.execute(
            ScanQuery("SALES", where=cmp("qty", "=", 3.0), columns=("id", "qty"))
        )
        assert result.columns == ["id", "qty"]
        assert all(row[1] == 3.0 for row in result.rows)

    def test_scan_query_returns_python_values(self, session):
        import datetime

        result = session.execute(
            ScanQuery(
                "SALES", where=cmp("qty", "=", 3.0),
                columns=("ship", "flag", "id"),
            )
        )
        first = result.rows[0]
        assert isinstance(first[0], datetime.date)
        assert isinstance(first[1], str)
        assert isinstance(first[2], int)

    def test_explain_does_not_execute(self, session):
        info = session.explain(simple_query())
        assert info.strategy in ("sma_gaggr", "gaggr")

    def test_str_rendering(self, session):
        text = str(session.execute(simple_query()))
        assert "flag" in text and "rows" in text


class TestMeasuredWindow:
    """Every execution path shares one window: root ``execute`` span with
    ``plan`` then ``run`` children, stats equal to the pool-window delta."""

    @pytest.mark.parametrize("path", [
        lambda session: session.execute(simple_query()),
        lambda session: session.execute_partial(simple_query()),
        lambda session: session.sql("DELETE FROM SALES WHERE qty = 3"),
    ], ids=["read", "partial", "dml"])
    def test_spans_and_stats_delta(self, catalog, sales_table, sales_sma_set, path):
        roots = []
        session = Session(catalog, tracer=Tracer(on_trace=[roots.append]))
        before = catalog.pool.stats.snapshot()
        result = path(session)
        delta = catalog.pool.stats.snapshot() - before
        (root,) = roots
        assert root.name == "execute"
        assert [span.name for span in root.sorted_children()] == ["plan", "run"]
        assert result.stats.as_dict() == delta.as_dict()
        assert result.cost == session.disk_model.cost(delta)


class TestSqlEntryPoints:
    def test_sql_select(self, session):
        result = session.sql(
            "SELECT flag, SUM(qty) AS s, COUNT(*) AS n FROM SALES "
            "WHERE ship <= DATE '1997-01-21' GROUP BY flag ORDER BY flag"
        )
        assert result.columns == ["flag", "s", "n"]
        assert len(result.rows) == 2

    def test_sql_equivalence_with_ast(self, session):
        from tests.conftest import assert_rows_equal

        via_sql = session.sql(
            "SELECT flag, SUM(qty) AS s, COUNT(*) AS n FROM SALES "
            "WHERE ship <= DATE '1997-01-21' GROUP BY flag ORDER BY flag"
        )
        via_ast = session.execute(simple_query())
        assert_rows_equal(via_sql.rows, via_ast.rows)

    def test_sql_rejects_define(self, session):
        with pytest.raises(PlanningError):
            session.sql("define sma x select count(*) from SALES")

    def test_define_smas_builds_and_registers(self, catalog, sales_table):
        session = Session(catalog)
        sma_set, reports = session.define_smas(
            "define sma m select min(ship) from SALES;"
            "define sma M select max(ship) from SALES;",
            set_name="bounds",
        )
        assert catalog.sma_set("SALES", "bounds") is sma_set
        assert len(reports) == 2

    def test_define_smas_rejects_mixed_tables(self, catalog, sales_table):
        session = Session(catalog)
        catalog.create_table("OTHER", sales_table.schema)
        with pytest.raises(PlanningError, match="one table"):
            session.define_smas(
                "define sma a select min(ship) from SALES;"
                "define sma b select min(ship) from OTHER;"
            )

    def test_define_smas_rejects_empty_script(self, catalog, sales_table):
        with pytest.raises(PlanningError):
            Session(catalog).define_smas("   ")
