"""Reference evaluator: plain numpy over the regenerated record arrays.

No SMAs, planner, buffer pool or caches — only dbgen's output in its
physical order plus the INSERT batches applied so far.  Floating-point
sums here accumulate in numpy's order, not the engine's, so floats are
compared with a relative tolerance; everything else must be equal.
"""

from __future__ import annotations

import math

import numpy as np

from perf.ops import Q1, RANGE_COLUMNS, Range
from repro.storage.types import date_to_int, int_to_date
from repro.tpcd import GenConfig, generate_tables, physical_order

FLOAT_RTOL = 1e-9
DATASET_SEED = 42  # load_lineitem's default: the data never depends on --seed


class Oracle:
    def __init__(self, scale_factor: float, clustering: str):
        records = generate_tables(
            GenConfig(scale_factor=scale_factor, seed=DATASET_SEED), ("LINEITEM",)
        )["LINEITEM"]
        rng = np.random.default_rng(DATASET_SEED + 1)
        self.base = physical_order(records, clustering, rng)
        self.batches: list[np.ndarray] = []
        self._latest: tuple[int, np.ndarray] | None = None

    def records(self, batches_applied: int = 0) -> np.ndarray:
        """The table after the first *batches_applied* INSERT batches."""
        if not batches_applied:
            return self.base
        if self._latest is None or self._latest[0] != batches_applied:
            # reads are checked in epoch order: one cached table is enough
            self._latest = (
                batches_applied,
                np.concatenate([self.base, *self.batches[:batches_applied]]),
            )
        return self._latest[1]

    def rows(self, op: Q1 | Range, batches_applied: int = 0) -> list[tuple]:
        records = self.records(batches_applied)
        if isinstance(op, Q1):
            return _query1(records, date_to_int(op.cutoff))
        return _range(records, date_to_int(op.first), date_to_int(op.last))


def _query1(records: np.ndarray, cutoff: int) -> list[tuple]:
    # column by column: masking whole records would copy every field
    passing = records["L_SHIPDATE"] <= cutoff
    flag, status, quantity, price, discount, tax = (
        records[name][passing]
        for name in ("L_RETURNFLAG", "L_LINESTATUS", "L_QUANTITY",
                     "L_EXTENDEDPRICE", "L_DISCOUNT", "L_TAX")
    )
    discounted = price * (1 - discount)
    # one small integer per (flag, status) pair: both are CHAR(1)
    code = flag.view(np.uint8).astype(np.intp) * 256 + status.view(np.uint8)
    counts = np.bincount(code)
    sums = [
        np.bincount(code, weights=column)
        for column in (quantity, price, discounted, discounted * (1 + tax), discount)
    ]
    rows = []
    for pair in np.flatnonzero(counts).tolist():
        count = int(counts[pair])
        qty, base, disc, charge, discounts = (float(column[pair]) for column in sums)
        rows.append(
            (chr(pair // 256), chr(pair % 256), qty, base, disc, charge,
             qty / count, base / count, discounts / count, count)
        )
    return rows


def _range(records: np.ndarray, first: int, last: int) -> list[tuple]:
    ship = records["L_SHIPDATE"]
    hit = records[(ship >= first) & (ship <= last)]
    columns = [hit[name].tolist() for name in RANGE_COLUMNS]
    at = RANGE_COLUMNS.index("L_SHIPDATE")
    columns[at] = [int_to_date(day) for day in columns[at]]
    return list(zip(*columns))


def rows_match(actual: list[tuple], expected: list[tuple]) -> bool:
    """Floats within ``FLOAT_RTOL``, everything else exactly equal."""
    if len(actual) != len(expected):
        return False
    for got, want in zip(actual, expected):
        if len(got) != len(want):
            return False
        for a, b in zip(got, want):
            if isinstance(a, float) and isinstance(b, float):
                if not math.isclose(a, b, rel_tol=FLOAT_RTOL):
                    return False
            elif type(a) is not type(b) or a != b:
                return False
    return True
