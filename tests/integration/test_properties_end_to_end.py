"""Hypothesis end-to-end properties over the whole stack.

Random tables, random predicates, random DML — the invariants:

1. SMA_GAggr(query) == GAggr(query) for any covered query;
2. SMA grading stays sound after any DML sequence;
3. heap files round-trip any generated batch.
"""

import datetime

import numpy as np
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core import (
    SmaDefinition,
    SmaMaintainer,
    build_sma_set,
    count_star,
    maximum,
    minimum,
    total,
)
from repro.core.aggregates import average
from repro.lang import and_, cmp, col, or_
from repro.query.gaggr import GAggr
from repro.query.query import OutputAggregate
from repro.query.sma_gaggr import SmaGAggr
from repro.storage import Catalog, DATE, FLOAT64, INT32, Schema, char

from tests.conftest import assert_rows_equal

SCHEMA = Schema.of(
    ("k", INT32), ("d", DATE), ("v", FLOAT64), ("g", char(1))
)
BASE = datetime.date(1996, 1, 1)

SLOW = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


@st.composite
def random_rows(draw, max_rows=600):
    n = draw(st.integers(1, max_rows))
    seed = draw(st.integers(0, 2**31 - 1))
    sortedness = draw(st.sampled_from(["sorted", "noisy", "shuffled"]))
    rng = np.random.default_rng(seed)
    days = rng.integers(0, 120, size=n)
    if sortedness == "sorted":
        days = np.sort(days)
    elif sortedness == "noisy":
        days = np.sort(days) + rng.integers(-3, 4, size=n)
    return SCHEMA.batch_from_columns(
        k=np.arange(n, dtype=np.int32),
        d=days.astype(np.int32) + (BASE.toordinal() - datetime.date(1970, 1, 1).toordinal()),
        v=rng.integers(0, 50, size=n).astype(np.float64),
        g=rng.choice([b"A", b"B", b"C"], size=n).astype("S1"),
    )


@st.composite
def random_predicate(draw):
    def atom():
        column = draw(st.sampled_from(["d", "v"]))
        op = draw(st.sampled_from(["<", "<=", ">", ">=", "=", "<>"]))
        if column == "d":
            constant = BASE + datetime.timedelta(days=draw(st.integers(-5, 125)))
        else:
            constant = float(draw(st.integers(-2, 52)))
        return cmp(column, op, constant)

    shape = draw(st.sampled_from(["atom", "and", "or"]))
    if shape == "atom":
        return atom()
    if shape == "and":
        return and_(atom(), atom())
    return or_(atom(), atom())


def build_instance(tmp_path, rows, tag):
    catalog = Catalog(str(tmp_path / f"db-{tag}"), buffer_pages=512)
    table = catalog.create_table(f"T{tag}", SCHEMA)
    table.append_batch(rows)
    definitions = [
        SmaDefinition("dmin", table.name, minimum(col("d"))),
        SmaDefinition("dmax", table.name, maximum(col("d"))),
        SmaDefinition("vmin", table.name, minimum(col("v"))),
        SmaDefinition("vmax", table.name, maximum(col("v"))),
        SmaDefinition("cnt", table.name, count_star(), ("g",)),
        SmaDefinition("sv", table.name, total(col("v")), ("g",)),
    ]
    sma_set, _ = build_sma_set(
        table, definitions, directory=str(tmp_path / f"smas-{tag}")
    )
    return catalog, table, sma_set


AGGS = (
    OutputAggregate("s", total(col("v"))),
    OutputAggregate("a", average(col("v"))),
    OutputAggregate("n", count_star()),
)

_counter = [0]


@given(rows=random_rows(), predicate=random_predicate())
@SLOW
def test_sma_gaggr_equals_gaggr(tmp_path, rows, predicate):
    _counter[0] += 1
    catalog, table, sma_set = build_instance(tmp_path, rows, _counter[0])
    try:
        sma_columns, sma_rows = SmaGAggr(
            table, predicate, ("g",), AGGS, sma_set
        ).execute()
        scan_columns, scan_rows = GAggr(table, predicate, ("g",), AGGS).execute()
        assert sma_columns == scan_columns
        assert_rows_equal(
            sorted(sma_rows, key=repr), sorted(scan_rows, key=repr), rel=1e-9
        )
    finally:
        catalog.close()


@given(
    rows=random_rows(max_rows=400),
    predicate=random_predicate(),
    dml_seed=st.integers(0, 2**31 - 1),
)
@SLOW
def test_grading_sound_after_random_dml(tmp_path, rows, predicate, dml_seed):
    _counter[0] += 1
    catalog, table, sma_set = build_instance(tmp_path, rows, _counter[0])
    try:
        maintainer = SmaMaintainer(table, [sma_set])
        rng = np.random.default_rng(dml_seed)
        for op in rng.choice(["insert", "update", "delete"], size=3):
            if op == "insert":
                extra = rows[rng.permutation(len(rows))][: max(len(rows) // 4, 1)]
                maintainer.insert(extra.copy())
            elif op == "update":
                maintainer.update_where(
                    cmp("v", "<=", float(rng.integers(0, 50))),
                    {"v": float(rng.integers(0, 50))},
                )
            else:
                maintainer.delete_where(
                    cmp("v", "=", float(rng.integers(0, 50)))
                )
        bound = predicate.bind(table.schema)
        partitioning = sma_set.partition(bound, charge=False)
        for bucket_no in range(table.num_buckets):
            records = table.read_bucket(bucket_no)
            satisfied = bound.evaluate(records)
            if partitioning.qualifying[bucket_no]:
                assert len(records) and bool(satisfied.all())
            if partitioning.disqualifying[bucket_no]:
                assert not bool(satisfied.any())
    finally:
        catalog.close()


@given(rows=random_rows())
@SLOW
def test_heapfile_roundtrip_any_batch(tmp_path, rows):
    _counter[0] += 1
    catalog = Catalog(str(tmp_path / f"hf-{_counter[0]}"), buffer_pages=64)
    try:
        table = catalog.create_table(f"R{_counter[0]}", SCHEMA)
        table.append_batch(rows)
        np.testing.assert_array_equal(table.read_all(), rows)
        catalog.go_cold()
        np.testing.assert_array_equal(table.read_all(), rows)
    finally:
        catalog.close()
