"""The benchmark's own contract, at a twentieth of the data size."""

from __future__ import annotations

import dataclasses
import json
import os
import re

import pytest

from perf import OUT, ROOT, cli, layers, metrics, ops, oracle, probes, runner, trace, workloads

SCALE = 0.05
SECONDS = 0.3
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def test_names_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        declared = json.load(handle)
    assert [w["name"] for w in declared["workloads"]] == list(workloads.WORKLOADS)
    assert list(cli.WORKLOAD_NAMES) == list(workloads.WORKLOADS)
    assert declared["run_seconds"] == cli.RUN_SECONDS
    assert [
        (m["name"], m["unit"], m["better"], m["bound"]) for m in declared["end_to_end"]
    ] == [(m.name, m.unit, m.better, m.bound) for m in metrics.END_TO_END]
    assert [(m["name"], m["unit"], m["better"]) for m in declared["per_layer"]] == [
        (m.name, m.unit, m.better) for m in metrics.PER_LAYER
    ]
    names = [m.name for m in metrics.END_TO_END + metrics.PER_LAYER]
    names += list(workloads.WORKLOADS)
    assert len(set(names)) == len(names)
    assert all(NAME.match(name) for name in names)


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_operation_list_is_a_function_of_the_seed(workload):
    assert ops.describe(ops.read_ops(workload, 3)) == ops.describe(ops.read_ops(workload, 3))
    assert ops.describe(ops.read_ops(workload, 3)) != ops.describe(ops.read_ops(workload, 4))
    assert ops.insert_batch(3, 0).sql() == ops.insert_batch(3, 0).sql()
    assert ops.insert_batch(3, 0).sql() != ops.insert_batch(4, 0).sql()


@pytest.mark.parametrize("workload", ["q1_qualifying", "shard2_q1"])
def test_count_metrics_repeat(workload):
    first = cli.run_workload(workload, 5, SECONDS, 0, SCALE)
    second = cli.run_workload(workload, 5, SECONDS, 0, SCALE)
    assert first["failed"] == second["failed"] == 0
    assert first["attempted"] > 0
    # exactly where nothing depends on timing; elsewhere well inside the bound
    tolerance = 0.0 if workloads.WORKLOADS[workload].exact_counts else 0.005
    for name in metrics.COUNT_METRICS:
        assert first["metrics"][name] == pytest.approx(
            second["metrics"][name], rel=tolerance, abs=0.0
        ), name


def test_missing_probe_reads_null_not_crash(monkeypatch):
    # as if a refactor had renamed Planner.plan under the probe table's feet
    broken = tuple(
        dataclasses.replace(
            p, site="repro.query.planner:Planner.renamed_away", public_name=p.name
        )
        if p.site == "repro.query.planner:Planner.plan"
        else p
        for p in probes.PROBES
    )
    monkeypatch.setattr(layers, "PROBES", broken)
    record = runner.run_once("q1_qualifying", 2, SECONDS, True, SCALE)
    assert record["failed"] == 0
    assert record["metrics"]["perf.trace.probes_missing"] == 1
    assert record["metrics"]["query.planner.plan_self_ms_per_op"] is None
    # every other probe still reports (at this size the planner prefers a scan)
    m = record["metrics"]
    assert m["query.sma_gaggr.fold_self_ms_per_op"] + m["query.gaggr.scan_self_ms_per_op"] > 0
    sends_per_pass = len(ops.read_ops("q1_qualifying", 2)) * workloads.Q1Qualifying.rounds
    assert sum(m[f"query.planner.strategy_counts.{s}"] for s in layers.STRATEGIES) == sends_per_pass


def test_planted_wrong_row_fails_the_run(monkeypatch, capsys):
    real = oracle._query1

    def tampered(records, cutoff):
        rows = real(records, cutoff)
        rows[0] = rows[0][:-1] + (rows[0][-1] + 1,)  # one count off by one
        return rows

    monkeypatch.setattr(oracle, "_query1", tampered)
    monkeypatch.setenv("PYTHONHASHSEED", "0")  # no re-exec: stay in this process
    status = cli.main([
        "once", "--workload", "q1_unclustered", "--seed", "2",
        "--seconds", str(SECONDS), "--scale", str(SCALE),
    ])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert status != 0
    assert result["correct"] is False
    assert result["failed"] > 0


def test_self_times_never_exceed_their_span():
    runner.run_once("serve_rw", 2, SECONDS, True, SCALE)
    spans = []
    with open(os.path.join(OUT, "trace_serve_rw.jsonl"), encoding="utf-8") as handle:
        for line in handle:
            s = json.loads(line)
            spans.append(trace.Span(
                s["id"], s["parent"], s["name"], s["layer"],
                s["start"], s["end"], s["thread"], s["op"],
            ))
    assert {s.layer for s in spans} >= {"perf.op", "query.session", "core.ingest"}
    by_id = {s.id: s for s in spans}
    selfs = trace.self_times(spans)
    for span in spans:
        assert -1e-9 <= selfs[span.id] <= span.duration + 1e-9
        parent = by_id.get(span.parent)
        if parent is not None and parent.thread == span.thread:
            assert parent.start - 1e-6 <= span.start and span.end <= parent.end + 1e-6
    # a layer's self time summed over an operation cannot exceed the operation
    for root in (s for s in spans if s.layer == "perf.op"):
        inside = sum(selfs[s.id] for s in spans if s.op == root.id and s.thread == root.thread)
        assert inside <= root.duration + 1e-6
