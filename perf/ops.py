"""Seeded operation lists: the only thing the program under test ever sees.

Every read is a small value with a SQL rendering (what ``serve_rw``
sends) and a logical-query rendering (what the other workloads send);
INSERT batches only ever travel as SQL.
The lists are pure functions of ``(workload, seed)``.

Parameters are drawn *stratified* — one value per equal-width slice of
the range, then shuffled — so two seeds give different operations but
nearly the same total work: the seed-to-seed spread of every metric then
measures the machine, not the luck of the draw.
"""

from __future__ import annotations

import datetime
import functools
from dataclasses import dataclass

import numpy as np

from repro.lang.predicate import and_, cmp
from repro.query.query import ScanQuery
from repro.storage.types import date_to_int, int_to_date
from repro.tpcd import LINEITEM, QUERY1_BASE_DATE, query1

TABLE = "LINEITEM"
#: ship dates of the generated data span about this window
DATA_FIRST = datetime.date(1992, 1, 2)
DATA_LAST = datetime.date(1998, 12, 1)
RANGE_DAYS = 30
RANGE_FIRST_START = datetime.date(1992, 6, 1)
RANGE_LAST_START = datetime.date(1998, 7, 1)
RANGE_COLUMNS = ("L_ORDERKEY", "L_SHIPDATE", "L_QUANTITY", "L_EXTENDEDPRICE")
BATCH_ROWS = 2
#: tail ingest: new rows ship in 1998-06 .. 1998-11
INGEST_FIRST = datetime.date(1998, 6, 1)
INGEST_DAYS = 183

_Q1_SQL = (
    "SELECT L_RETURNFLAG, L_LINESTATUS, SUM(L_QUANTITY) AS SUM_QTY, "
    "SUM(L_EXTENDEDPRICE) AS SUM_BASE_PRICE, "
    "SUM(L_EXTENDEDPRICE*(1-L_DISCOUNT)) AS SUM_DISC_PRICE, "
    "SUM(L_EXTENDEDPRICE*(1-L_DISCOUNT)*(1+L_TAX)) AS SUM_CHARGE, "
    "AVG(L_QUANTITY) AS AVG_QTY, AVG(L_EXTENDEDPRICE) AS AVG_PRICE, "
    "AVG(L_DISCOUNT) AS AVG_DISC, COUNT(*) AS COUNT_ORDER "
    f"FROM {TABLE} WHERE L_SHIPDATE <= DATE '{{cutoff}}' "
    "GROUP BY L_RETURNFLAG, L_LINESTATUS ORDER BY L_RETURNFLAG, L_LINESTATUS"
)


@dataclass(frozen=True)
class Q1:
    """TPC-D Query 1 with its ship-date cut-off."""

    cutoff: datetime.date
    kind = "q1"

    def sql(self) -> str:
        return _Q1_SQL.format(cutoff=self.cutoff.isoformat())

    def query(self):
        return query1(cutoff=self.cutoff)


@dataclass(frozen=True)
class Range:
    """A range SELECT returning the rows shipped in ``[first, last]``."""

    first: datetime.date
    last: datetime.date
    kind = "range"

    def sql(self) -> str:
        return (
            f"SELECT {', '.join(RANGE_COLUMNS)} FROM {TABLE} "
            f"WHERE L_SHIPDATE >= DATE '{self.first.isoformat()}' "
            f"AND L_SHIPDATE <= DATE '{self.last.isoformat()}'"
        )

    def query(self):
        return ScanQuery(
            table=TABLE,
            where=and_(
                cmp("L_SHIPDATE", ">=", self.first),
                cmp("L_SHIPDATE", "<=", self.last),
            ),
            columns=RANGE_COLUMNS,
        )


@dataclass(frozen=True, eq=False)
class Insert:
    """One INSERT batch; ``records`` is the batch in storage form."""

    records: np.ndarray
    kind = "insert"

    def sql(self) -> str:
        return self._sql

    @functools.cached_property
    def _sql(self) -> str:
        dates = {"L_SHIPDATE", "L_COMMITDATE", "L_RECEIPTDATE"}

        def literal(name: str, value: object) -> str:
            if name in dates:
                return f"DATE '{int_to_date(value).isoformat()}'"
            if isinstance(value, bytes):
                return f"'{value.decode('ascii')}'"
            return repr(value)

        rows = ", ".join(
            "(" + ", ".join(map(literal, LINEITEM.names, record)) + ")"
            for record in self.records.tolist()
        )
        return f"INSERT INTO {TABLE} VALUES {rows}"


def _stratified(rng: np.random.Generator, low: float, high: float, n: int) -> list[int]:
    """One integer from the middle half of each of *n* equal-width slices
    of ``[low, high)``, shuffled: a jittered grid."""
    width = (high - low) / n
    values = [int(low + (i + 0.25 + 0.5 * rng.random()) * width) for i in range(n)]
    rng.shuffle(values)
    return values


def _q1_deltas(rng: np.random.Generator, n: int) -> list[Q1]:
    """Q1 variants with the paper's ``delta`` in [30, 150]: on shipdate-
    sorted data at least 94 % of the buckets qualify."""
    return [
        Q1(QUERY1_BASE_DATE - datetime.timedelta(days=d))
        for d in _stratified(rng, 30, 151, n)
    ]


def _ranges(rng: np.random.Generator, n: int) -> list[Range]:
    """30-day windows inside the stretch where the ship-date density is
    flat, so every window returns about the same number of rows."""
    span = (RANGE_LAST_START - RANGE_FIRST_START).days
    return [
        Range(
            RANGE_FIRST_START + datetime.timedelta(days=start),
            RANGE_FIRST_START + datetime.timedelta(days=start + RANGE_DAYS - 1),
        )
        for start in _stratified(rng, 0, span, n)
    ]


def _mixed(rng: np.random.Generator, q1s: int, ranges: int) -> list:
    ops: list = _q1_deltas(rng, q1s) + _ranges(rng, ranges)
    rng.shuffle(ops)
    return ops


def read_ops(workload: str, seed: int) -> list:
    """The distinct read operations of one pass, in sending order."""
    rng = np.random.default_rng([seed, sum(workload.encode())])
    if workload == "q1_qualifying":
        return _q1_deltas(rng, 8)
    if workload == "q1_unclustered":
        # cut-offs between the 10 % and 90 % quantile of the (roughly
        # uniform) ship dates, so 10-90 % of the tuples pass
        span = (DATA_LAST - DATA_FIRST).days
        return [
            Q1(DATA_FIRST + datetime.timedelta(days=day))
            for day in _stratified(rng, 0.1 * span, 0.9 * span, 6)
        ]
    if workload == "serve_rw":
        return _mixed(rng, 7, 3)
    if workload == "shard2_q1":
        return _mixed(rng, 8, 2)
    raise ValueError(f"unknown workload {workload!r}")


def insert_batch(seed: int, number: int) -> Insert:
    """The *number*-th INSERT batch of the ``serve_rw`` writer.

    Batches are deterministic in ``(seed, number)`` and apply in order,
    one epoch each — which is what lets the oracle rebuild the row set a
    read saw from nothing but the epoch it reports.
    """
    rng = np.random.default_rng([seed, 7919, number])
    n = BATCH_ROWS
    records = np.zeros(n, dtype=LINEITEM.record_dtype)
    records["L_ORDERKEY"] = 10_000_000 + number * n + np.arange(n)
    records["L_PARTKEY"] = rng.integers(1, 200_000, n)
    records["L_SUPPKEY"] = rng.integers(1, 10_000, n)
    records["L_LINENUMBER"] = rng.integers(1, 8, n)
    records["L_QUANTITY"] = rng.integers(1, 51, n).astype(np.float64)
    records["L_EXTENDEDPRICE"] = np.round(rng.uniform(900.0, 100_000.0, n), 2)
    records["L_DISCOUNT"] = rng.integers(0, 11, n) / 100.0
    records["L_TAX"] = rng.integers(0, 9, n) / 100.0
    groups = [(b"N", b"O"), (b"R", b"F"), (b"A", b"F"), (b"N", b"F")]
    picks = rng.integers(0, len(groups), n)
    records["L_RETURNFLAG"] = [groups[i][0] for i in picks]
    records["L_LINESTATUS"] = [groups[i][1] for i in picks]
    ship = date_to_int(INGEST_FIRST) + rng.integers(0, INGEST_DAYS, n)
    records["L_SHIPDATE"] = ship
    records["L_COMMITDATE"] = ship + rng.integers(-30, 31, n)
    records["L_RECEIPTDATE"] = ship + rng.integers(1, 31, n)
    records["L_SHIPINSTRUCT"] = b"NONE"
    records["L_SHIPMODE"] = b"TRUCK"
    records["L_COMMENT"] = b"perf ingest"
    return Insert(records)


def describe(ops: list) -> str:
    """A stable text form of an operation list (for the seed tests)."""
    return "\n".join(op.sql() for op in ops)
