"""The morsel-task seam (:mod:`repro.query.morsel`), in-process, no pool.

Two properties carry every backend's byte-identity:

* a task that crossed a pickle boundary runs to the same bits as the
  task itself — what the process backend relies on;
* any contiguous split of a bucket range, run task by task and merged in
  order, equals the serial operator — what both backends rely on.

All tasks run on a pinned :class:`~repro.storage.table.TableView` whose
trailing bucket is *partial*: rows appended to the heap after the pin
sit in that bucket on disk and must never reach a result.
"""

import datetime
import pickle

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import (
    SmaDefinition,
    average,
    build_sma_set,
    count_star,
    maximum,
    minimum,
    total,
)
from repro.lang import cmp, col
from repro.query.gaggr import GAggr
from repro.query.iterators import Scan
from repro.query.morsel import FoldSpec, FoldTask, ScanTask, SmaRangeTask
from repro.query.query import OutputAggregate
from repro.query.sma_gaggr import SmaGAggr
from repro.storage import Catalog

from tests.conftest import BASE_DATE, SALES_SCHEMA, sales_rows

GROUP_BY = ("flag",)
SMA_AGGREGATES = (
    OutputAggregate("s", total(col("qty"))),
    OutputAggregate("a", average(col("qty"))),
    OutputAggregate("n", count_star()),
)
HEAP_AGGREGATES = SMA_AGGREGATES + (
    OutputAggregate("lo", minimum(col("ship"))),
    OutputAggregate("hi", maximum(col("qty"))),
)


def shipped_by(days):
    return cmp("ship", "<=", BASE_DATE + datetime.timedelta(days=days))


@pytest.fixture(scope="module")
def env(tmp_path_factory):
    """(view, sma_set): SALES pinned, then grown inside its last bucket."""
    root = tmp_path_factory.mktemp("morsel-db")
    cat = Catalog(str(root / "db"))
    table = cat.create_table(
        "SALES", SALES_SCHEMA, page_size=1024, clustered_on="ship"
    )
    rows = sales_rows(1000, days_per_step=20)
    table.append_rows(rows)
    definitions = [
        SmaDefinition("smin", "SALES", minimum(col("ship"))),
        SmaDefinition("smax", "SALES", maximum(col("ship"))),
        SmaDefinition("cnt", "SALES", count_star(), GROUP_BY),
        SmaDefinition("sqty", "SALES", total(col("qty")), GROUP_BY),
    ]
    sma_set, _ = build_sma_set(
        table, definitions, directory=str(root / "db" / "SALES.smas")
    )
    cat.register_sma_set("SALES", sma_set)
    view = cat.pin_view("SALES")
    pinned = int(view.bucket_counts()[-1])
    # Top the trailing bucket up underneath the pin: same bucket count
    # (the SMA-files still line up), more records on disk than pinned.
    table.append_rows(
        [(10_000, BASE_DATE, 1e9, "A")] * 2
    )
    assert table.num_buckets == view.num_buckets > 8
    assert table.heap.bucket_count(view.num_buckets - 1) > pinned
    yield view, sma_set
    cat.close()


def state_bits(state):
    """Every group's accumulators as raw bytes — exact, dtype included."""

    def raw(value):
        return None if value is None else np.asarray(value).tobytes()

    return {
        key: (
            group.count,
            [[raw(part) for part in parts] for parts in group.sums],
            [raw(low) for low in group.mins],
            [raw(high) for high in group.maxs],
        )
        for key, group in state.group_items()
    }


def batch_bits(batches):
    return [(batch.dtype, batch.tobytes()) for batch in batches]


def fold_specs(view):
    return (
        FoldSpec(shipped_by(20).bind(view.schema), GROUP_BY, HEAP_AGGREGATES),
        FoldSpec(shipped_by(45).bind(view.schema), (), SMA_AGGREGATES),
    )


def sma_task(view, sma_set, days, lo, hi):
    """The SmaRangeTask SmaGAggr builds for buckets [lo, hi)."""
    operator = SmaGAggr(view, shipped_by(days), GROUP_BY, SMA_AGGREGATES, sma_set)
    partitioning = operator.partitioning
    return SmaRangeTask(
        lo,
        hi,
        partitioning.qualifying[lo:hi],
        partitioning.ambivalent[lo:hi],
        operator._load_sma_entries().slice(lo, hi),
        FoldSpec(operator.predicate, GROUP_BY, SMA_AGGREGATES),
    )


def chunks(num_buckets, cuts):
    """Contiguous [lo, hi) ranges covering [0, num_buckets) cut at *cuts*."""
    edges = [0, *sorted(set(cuts) - {0, num_buckets}), num_buckets]
    return list(zip(edges, edges[1:]))


cut_points = st.lists(st.integers(min_value=0, max_value=17), max_size=5)
bounded = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


class TestPickleRoundTrip:
    """``loads(dumps(task)).run(view)`` is ``task.run(view)``, bit for bit."""

    def test_fold_task(self, env):
        view, _ = env
        for spec in fold_specs(view):
            task = FoldTask(list(range(view.num_buckets)), spec)
            shipped = pickle.loads(pickle.dumps(task))
            mine, theirs = task.run(view), shipped.run(view)
            assert state_bits(mine) == state_bits(theirs)
            assert mine.finalize() == theirs.finalize()

    def test_partial_state_survives_the_trip_back(self, env):
        view, _ = env
        for spec in fold_specs(view):
            state = FoldTask(list(range(view.num_buckets)), spec).run(view)
            returned = pickle.loads(pickle.dumps(state))
            assert state_bits(returned) == state_bits(state)
            assert returned.aggregates == state.aggregates
            assert returned.finalize() == state.finalize()

    def test_sma_range_task(self, env):
        view, sma_set = env
        # A range that starts mid-table and ends on the partial bucket.
        task = sma_task(view, sma_set, 30, 3, view.num_buckets)
        assert task.qualifying.any() and task.ambivalent.any()
        shipped = pickle.loads(pickle.dumps(task))
        mine, theirs = task.run(view), shipped.run(view)
        assert state_bits(mine) == state_bits(theirs)

    def test_scan_task(self, env):
        view, sma_set = env
        predicate = shipped_by(45).bind(view.schema)
        qualifying = sma_set.partition(predicate, charge=False).qualifying
        buckets = list(range(view.num_buckets))
        task = ScanTask(buckets, qualifying[buckets].tolist(), predicate)
        assert any(task.qualifying) and not all(task.qualifying)
        shipped = pickle.loads(pickle.dumps(task))
        assert batch_bits(task.run(view)) == batch_bits(shipped.run(view))

    def test_rows_past_the_pin_never_surface(self, env):
        view, _ = env
        spec = FoldSpec(shipped_by(10_000).bind(view.schema), (), SMA_AGGREGATES)
        state = FoldTask([view.num_buckets - 1], spec).run(view)
        ((total_qty, _, count),) = state.finalize()[1]
        assert count == int(view.bucket_counts()[-1])
        assert total_qty < 1e9


class TestContiguousSplitsMergeToSerial:
    """Cut the range anywhere: partials merged in order equal serial."""

    @bounded
    @given(cuts=cut_points)
    def test_fold_equals_gaggr(self, env, cuts):
        view, _ = env
        for spec in fold_specs(view):
            state = spec.new_state(view.schema)
            for lo, hi in chunks(view.num_buckets, cuts):
                state.merge(FoldTask(list(range(lo, hi)), spec).run(view))
            serial = GAggr(
                view, spec.predicate, spec.group_by, spec.aggregates
            ).collect_state()
            assert state_bits(state) == state_bits(serial)
            assert state.finalize() == serial.finalize()

    @bounded
    @given(cuts=cut_points, days=st.integers(min_value=0, max_value=55))
    def test_sma_ranges_equal_sma_gaggr(self, env, cuts, days):
        view, sma_set = env
        serial = SmaGAggr(
            view, shipped_by(days), GROUP_BY, SMA_AGGREGATES, sma_set
        ).collect_state()
        state = FoldSpec(None, GROUP_BY, SMA_AGGREGATES).new_state(view.schema)
        for lo, hi in chunks(view.num_buckets, cuts):
            state.merge(sma_task(view, sma_set, days, lo, hi).run(view))
        assert state_bits(state) == state_bits(serial)
        # ...and the SMA answer is the heap answer, to the bit.
        heap = GAggr(view, shipped_by(days), GROUP_BY, SMA_AGGREGATES).collect_state()
        assert state.finalize() == heap.finalize()

    @bounded
    @given(cuts=cut_points, days=st.integers(min_value=0, max_value=55))
    def test_scan_batches_equal_serial_scans(self, env, cuts, days):
        view, sma_set = env
        predicate = shipped_by(days).bind(view.schema)
        partitioning = sma_set.partition(predicate, charge=False)
        fetched = np.flatnonzero(~partitioning.disqualifying).tolist()
        graded, plain = [], []
        for lo, hi in chunks(view.num_buckets, cuts):
            part = [b for b in fetched if lo <= b < hi]
            graded += ScanTask(
                part, partitioning.qualifying[part].tolist(), predicate
            ).run(view)
            every = list(range(lo, hi))
            plain += ScanTask(every, [False] * len(every), predicate).run(view)
        assert batch_bits(graded) == batch_bits(
            Scan(view, predicate, partitioning).batches()
        )
        assert batch_bits(plain) == batch_bits(
            Scan(view, predicate).batches()
        )
