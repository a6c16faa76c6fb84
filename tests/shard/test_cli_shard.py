"""CLI surface: shard-init, EXPLAIN routing, serve --shards, metrics port."""

import json
import re
import urllib.request

import pytest

from repro.cli import main
from repro.obs import MetricsServer


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture(scope="module")
def cli_env(tmp_path_factory):
    """A loaded catalog + a 2-shard root, built through the CLI."""
    root = tmp_path_factory.mktemp("cli-shard")
    db = str(root / "db")
    sharded = str(root / "db-sharded")
    assert main(["load", "--db", db, "--sf", "0.002"]) == 0
    assert main([
        "shard-init", "--db", db, "--out", sharded, "--shards", "2",
    ]) == 0
    return db, sharded


SQL = (
    "SELECT L_RETURNFLAG, COUNT(*) AS n, SUM(L_QUANTITY) AS q FROM LINEITEM "
    "WHERE L_SHIPDATE <= DATE '1998-09-02' GROUP BY L_RETURNFLAG"
)


class TestShardInit:
    def test_prints_ranges(self, tmp_path, capsys):
        db = str(tmp_path / "db")
        run(capsys, "load", "--db", db, "--sf", "0.002")
        code, out, _ = run(
            capsys, "shard-init", "--db", db,
            "--out", str(tmp_path / "sharded"), "--shards", "2",
        )
        assert code == 0
        assert "2 shards" in out
        assert re.search(r"LINEITEM: \[0, \d+\), \[\d+, \d+\)", out)

    def test_refuses_reinit(self, cli_env, capsys):
        db, sharded = cli_env
        with pytest.raises(Exception, match="refusing to re-init"):
            run(capsys, "shard-init", "--db", db,
                "--out", sharded, "--shards", "2")


class TestExplainRouting:
    def test_routing_section_shape(self, cli_env, capsys):
        _, sharded = cli_env
        code, out, _ = run(capsys, "explain", "--db", sharded, SQL)
        assert code == 0
        assert "Routing: scatter_gather across 2 shards" in out
        assert "partitioning=contiguous-bucket-ranges" in out
        # one line per shard: id, directory, bucket range, strategy
        shard_lines = re.findall(
            r"shard (\d+) \(shard-\d{4}\): buckets \[(\d+), (\d+)\) -> (\S+)",
            out,
        )
        assert [line[0] for line in shard_lines] == ["0", "1"]
        assert shard_lines[0][2] == shard_lines[1][1]  # contiguous
        assert "Gather: merge partial aggregation states in shard order" in out

    def test_scan_gather_is_concatenation(self, cli_env, capsys):
        _, sharded = cli_env
        code, out, _ = run(
            capsys, "explain", "--db", sharded,
            "SELECT L_ORDERKEY FROM LINEITEM "
            "WHERE L_SHIPDATE >= DATE '1998-09-01'",
        )
        assert code == 0
        assert "Gather: concatenate shard rows in shard order" in out

    def test_plain_catalog_unaffected(self, cli_env, capsys):
        db, _ = cli_env
        code, out, _ = run(capsys, "explain", "--db", db, SQL)
        assert code == 0
        assert "Routing:" not in out
        assert "physical plan:" in out


class TestServeSharded:
    def test_scatter_gather_workload(self, cli_env, capsys, tmp_path):
        _, sharded = cli_env
        events_dir = str(tmp_path / "shard-events")
        code, out, _ = run(
            capsys, "serve", "--db", sharded, "--shards", "2",
            "--workers", "2", "--clients", "2", "--queries", "6",
            "--report", "--shard-events", events_dir,
        )
        assert code == 0
        assert "shard 0: up" in out and "shard 1: up" in out
        assert "6 completed" in out
        assert "fan-out: 6 scattered, 12 subqueries" in out
        assert "scatter_gather[" in out
        for shard_id in (0, 1):
            lines = open(
                f"{events_dir}/shard-{shard_id}.jsonl", encoding="utf-8"
            ).readlines()
            kinds = {json.loads(line)["event"] for line in lines}
            assert "shard_worker_start" in kinds
            assert "query_finish" in kinds

    def test_scan_backend_and_trace_file_reach_the_tier(
        self, cli_env, capsys, tmp_path
    ):
        _, sharded = cli_env
        events_dir = str(tmp_path / "shard-events")
        trace_file = str(tmp_path / "router.jsonl")
        code, out, _ = run(
            capsys, "serve", "--db", sharded, "--shards", "2",
            "--workers", "2", "--clients", "2", "--queries", "4",
            "--scan-backend", "process", "--trace-file", trace_file,
            "--shard-events", events_dir,
        )
        assert code == 0
        assert "trace events:" in out
        for shard_id in (0, 1):
            with open(f"{events_dir}/shard-{shard_id}.jsonl", encoding="utf-8") as f:
                events = [json.loads(line) for line in f]
            (start,) = [e for e in events if e["event"] == "server_start"]
            assert start["scan_backend"] == "process"
        with open(trace_file, encoding="utf-8") as f:
            kinds = {json.loads(line)["event"] for line in f}
        # the flag's help promises span trees and ledgers, not just lifecycle
        assert {"router_start", "query_finish", "trace", "query_ledger"} <= kinds

    @pytest.mark.parametrize("flag", [
        ("--slow-ms", "5"), ("--fault-events", "faults.jsonl"),
    ])
    def test_single_node_only_flag_is_refused_not_dropped(
        self, cli_env, capsys, flag
    ):
        _, sharded = cli_env
        code, _, err = run(
            capsys, "serve", "--db", sharded, "--shards", "2", *flag
        )
        assert code == 1
        assert flag[0] in err and "--shards" in err

    def test_shard_count_mismatch_rejected(self, cli_env, capsys):
        _, sharded = cli_env
        code, _, err = run(
            capsys, "serve", "--db", sharded, "--shards", "3",
        )
        assert code == 1
        assert "holds 2 shard(s), not 3" in err

    def test_plain_catalog_rejected(self, cli_env, capsys):
        db, _ = cli_env
        from repro.errors import ShardError

        with pytest.raises(ShardError, match="not a sharded root"):
            run(capsys, "serve", "--db", db, "--shards", "2")


class TestMetricsServerEphemeralPort:
    def test_port_zero_binds_and_reports(self, caplog):
        import logging

        with caplog.at_level(logging.INFO, logger="repro.obs"):
            server = MetricsServer(lambda: {"queries": {}}, port=0)
            with server as started:
                assert started is server  # start() returns the server
                assert server.port > 0  # a real bound port, not 0
                assert f":{server.port}" in server.url
                # bound address is reported in the startup log
                assert any(
                    server.url in record.getMessage()
                    for record in caplog.records
                )
                with urllib.request.urlopen(server.url + "/healthz") as reply:
                    assert json.loads(reply.read())["status"] == "ok"
