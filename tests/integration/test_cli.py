"""Tests for the command-line interface and catalog discovery."""

import pytest

from repro.cli import main
from repro.storage import Catalog


@pytest.fixture
def db(tmp_path):
    return str(tmp_path / "clidb")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestLoad:
    def test_load_default(self, db, capsys):
        code, out, _ = run(capsys, "load", "--db", db, "--sf", "0.002")
        assert code == 0
        assert "loaded LINEITEM" in out
        assert "26 files" in out

    def test_load_refuses_twice(self, db, capsys):
        run(capsys, "load", "--db", db, "--sf", "0.002")
        code, _, err = run(capsys, "load", "--db", db, "--sf", "0.002")
        assert code == 1
        assert "already contains" in err

    def test_load_specific_tables(self, db, capsys):
        code, out, _ = run(
            capsys, "load", "--db", db, "--sf", "0.002",
            "--tables", "NATION,REGION",
        )
        assert code == 0
        assert "NATION" in out and "REGION" in out


class TestQuery:
    @pytest.fixture
    def loaded(self, db, capsys):
        run(capsys, "load", "--db", db, "--sf", "0.002")
        return db

    def test_query_auto(self, loaded, capsys):
        code, out, _ = run(
            capsys, "query", "--db", loaded,
            "SELECT COUNT(*) AS n FROM LINEITEM "
            "WHERE L_SHIPDATE <= DATE '1998-12-01'",
        )
        assert code == 0
        assert "strategy:" in out
        assert "page reads" in out

    def test_query_forced_scan(self, loaded, capsys):
        code, out, _ = run(
            capsys, "query", "--db", loaded, "--mode", "scan",
            "SELECT COUNT(*) AS n FROM LINEITEM",
        )
        assert code == 0
        assert "gaggr" in out

    def test_query_results_match_across_modes(self, loaded, capsys):
        sql = (
            "SELECT L_RETURNFLAG, COUNT(*) AS n FROM LINEITEM "
            "WHERE L_SHIPDATE <= DATE '1995-06-17' "
            "GROUP BY L_RETURNFLAG ORDER BY L_RETURNFLAG"
        )
        _, out_sma, _ = run(capsys, "query", "--db", loaded, "--mode", "sma", sql)
        _, out_scan, _ = run(capsys, "query", "--db", loaded, "--mode", "scan", sql)
        rows_of = lambda text: [  # noqa: E731
            line for line in text.splitlines() if line.startswith(("A", "N", "R"))
        ]
        assert rows_of(out_sma) == rows_of(out_scan)


class TestCountOptions:
    """A count below 1, or a scale, rate or timeout not above 0, is a
    usage error (exit 2), not an engine traceback or a silent default."""

    @pytest.mark.parametrize("command, flag, value", [
        ("query", "--scan-workers", "0"),
        ("query", "--buffer-pages", "0"),
        ("serve", "--workers", "0"),
        ("serve", "--queue", "-1"),
        ("serve", "--clients", "0"),
        ("serve", "--cache-entries", "0"),
        ("serve", "--shards", "0"),
        ("shard-init", "--shards", "0"),
        ("load", "--sf", "0"),
        ("serve", "--rate", "-1"),
        ("serve", "--timeout", "0"),
        ("serve", "--timeout", "-1"),
    ])
    def test_rejected_by_the_parser(self, db, capsys, command, flag, value):
        extra = {
            "query": ["SELECT COUNT(*) AS n FROM LINEITEM"],
            "shard-init": ["--out", db + "-sharded"],
        }.get(command, [])
        with pytest.raises(SystemExit) as exit_info:
            main([command, "--db", db, flag, value, *extra])
        assert exit_info.value.code == 2
        bound = "> 0" if flag in ("--sf", "--rate", "--timeout") else ">= 1"
        assert f"argument {flag}: must be {bound}, got {value}" in capsys.readouterr().err


class TestExplain:
    @pytest.fixture
    def loaded(self, db, capsys):
        run(capsys, "load", "--db", db, "--sf", "0.002")
        return db

    SQL = (
        "SELECT L_RETURNFLAG, COUNT(*) AS n FROM LINEITEM "
        "WHERE L_SHIPDATE <= DATE '1998-09-02' GROUP BY L_RETURNFLAG"
    )

    def test_explain_prints_full_plan(self, loaded, capsys):
        code, out, _ = run(capsys, "explain", "--db", loaded, self.SQL)
        assert code == 0
        assert "physical plan:" in out
        assert "strategy:" in out
        assert "alternatives:" in out
        assert "estimated cost:" in out

    def test_explain_prefix_accepted(self, loaded, capsys):
        code, out, _ = run(
            capsys, "explain", "--db", loaded, "EXPLAIN " + self.SQL
        )
        assert code == 0
        assert "physical plan:" in out

    def test_explain_forced_scan(self, loaded, capsys):
        code, out, _ = run(
            capsys, "explain", "--db", loaded, "--mode", "scan", self.SQL
        )
        assert code == 0
        assert "forced by caller" in out

    def test_explain_rejects_non_select(self, loaded, capsys):
        code, _, err = run(
            capsys, "explain", "--db", loaded,
            "define sma x select min(L_QUANTITY) from LINEITEM",
        )
        assert code == 1
        assert "SELECT" in err

    def test_query_subcommand_handles_explain_sql(self, loaded, capsys):
        # "repro query" with an EXPLAIN statement plans without running.
        code, out, _ = run(
            capsys, "query", "--db", loaded, "EXPLAIN " + self.SQL
        )
        assert code == 0
        assert "QUERY PLAN" in out
        assert "physical plan:" in out


class TestTrace:
    @pytest.fixture
    def loaded(self, db, capsys):
        run(capsys, "load", "--db", db, "--sf", "0.002")
        return db

    SQL = (
        "SELECT L_RETURNFLAG, COUNT(*) AS n FROM LINEITEM "
        "WHERE L_SHIPDATE <= DATE '1998-09-02' GROUP BY L_RETURNFLAG"
    )

    def test_trace_prints_tree_and_reconciles(self, loaded, capsys):
        code, out, _ = run(capsys, "trace", "--db", loaded, self.SQL)
        assert code == 0
        assert out.startswith("execute")
        for name in ("plan", "grade", "cost_access_path", "run"):
            assert name in out
        assert "io reconciliation:" in out
        assert "-> exact" in out
        assert "MISMATCH" not in out

    def test_trace_parallel_scan_reconciles(self, loaded, capsys):
        code, out, _ = run(
            capsys, "trace", "--db", loaded, "--mode", "scan",
            "--scan-workers", "4", self.SQL,
        )
        assert code == 0
        assert "scan_morsel" in out
        assert "-> exact" in out

    def test_trace_serve_events(self, loaded, capsys, tmp_path):
        import json

        path = str(tmp_path / "events.jsonl")
        code, out, _ = run(
            capsys, "serve", "--db", loaded, "--workers", "2",
            "--clients", "2", "--queries", "6", "--trace-file", path,
            "--report",
        )
        assert code == 0
        assert "trace events:" in out
        events = [json.loads(line) for line in open(path, encoding="utf-8")]
        kinds = {event["event"] for event in events}
        assert {"server_start", "query_start", "trace",
                "query_finish", "server_stop"} <= kinds
        # the report grew the uptime header and per-kind outcome lines
        assert "service: started" in out
        assert "completed" in out


class TestDefineAndInfo:
    def test_define_inline(self, db, capsys):
        run(capsys, "load", "--db", db, "--sf", "0.002")
        code, out, _ = run(
            capsys, "define", "--db", db, "--set", "bounds",
            "--sql", "define sma qlo select min(L_QUANTITY) from LINEITEM",
        )
        assert code == 0
        assert "built sma qlo" in out

    def test_define_from_file(self, db, tmp_path, capsys):
        run(capsys, "load", "--db", db, "--sf", "0.002")
        script = tmp_path / "defs.sql"
        script.write_text(
            "define sma qhi select max(L_QUANTITY) from LINEITEM;"
        )
        code, out, _ = run(
            capsys, "define", "--db", db, "--set", "b2", "--file", str(script)
        )
        assert code == 0
        assert "qhi" in out

    def test_define_needs_exactly_one_source(self, db, capsys):
        run(capsys, "load", "--db", db, "--sf", "0.002")
        code, _, err = run(capsys, "define", "--db", db)
        assert code == 1
        assert "exactly one" in err

    def test_info_lists_everything(self, db, capsys):
        run(capsys, "load", "--db", db, "--sf", "0.002")
        code, out, _ = run(capsys, "info", "--db", db)
        assert code == 0
        assert "table LINEITEM" in out
        assert "sma set 'q1'" in out
        assert "define" not in out  # rendered as one-liners, not SQL


class TestBenchFilter:
    def test_unknown_id_errors(self, capsys):
        for only in ("E99", "E5,E99"):
            code, _, err = run(capsys, "bench", "--only", only)
            assert code == 1
            assert "no experiment matches" in err
            assert "E99" in err

    def test_single_cheap_experiment(self, capsys):
        code, out, _ = run(capsys, "bench", "--only", "E5")
        assert code == 0
        assert "E5" in out

    def test_bench_out_writes_file(self, tmp_path, capsys):
        target = tmp_path / "results.txt"
        code, out, _ = run(
            capsys, "bench", "--only", "E5", "--out", str(target)
        )
        assert code == 0
        assert "wrote 1 experiment" in out
        assert "E5" in target.read_text()


class TestDiscovery:
    def test_discover_restores_tables_and_sets(self, db, capsys):
        run(capsys, "load", "--db", db, "--sf", "0.002")
        catalog = Catalog.discover(db)
        assert catalog.has_table("LINEITEM")
        assert catalog.sma_set("LINEITEM", "q1").num_files == 26
        assert catalog.table("LINEITEM").clustered_on == "L_SHIPDATE"
        catalog.close()

    def test_discover_empty_directory(self, tmp_path):
        catalog = Catalog.discover(str(tmp_path / "fresh"))
        assert list(catalog.tables()) == []
        catalog.close()


class TestSharedOptions:
    """A flag carried by several subcommands means one thing everywhere."""

    #: where a subcommand's default legitimately differs, and why
    DEFAULT_EXCEPTIONS = {
        ("shard-worker", "--workers"): 2,  # one of N workers on the same box
    }

    def test_same_type_choices_and_default_everywhere(self):
        import argparse

        from repro.cli import build_parser

        (subparsers,) = [
            action for action in build_parser()._actions
            if isinstance(action, argparse._SubParsersAction)
        ]
        by_flag: dict[str, dict] = {}
        for command, parser in subparsers.choices.items():
            for action in parser._actions:
                for flag in action.option_strings:
                    if flag.startswith("--") and flag != "--help":
                        by_flag.setdefault(flag, {})[command] = action
        shared = {flag: uses for flag, uses in by_flag.items() if len(uses) > 1}
        assert {"--scan-backend", "--scan-workers", "--mode", "--sma-set",
                "--workers", "--queue", "--events",
                "--faults", "--db"} <= set(shared)
        for flag, uses in shared.items():
            if flag == "--shards":  # serve: how many to launch; shard-init: to cut
                continue
            reference = next(
                action for command, action in uses.items()
                if (command, flag) not in self.DEFAULT_EXCEPTIONS
            )
            for command, action in uses.items():
                assert type(action) is type(reference), (flag, command)
                assert action.type == reference.type, (flag, command)
                assert action.choices == reference.choices, (flag, command)
                expected = self.DEFAULT_EXCEPTIONS.get(
                    (command, flag), reference.default
                )
                assert action.default == expected, (flag, command)
