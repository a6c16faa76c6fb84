"""Hierarchical (two-level) SMAs — Section 4.

"Every SMA-file is again partitioned into buckets and for each bucket a
second level SMA is computed. ... If a second level bucket qualifies or
disqualifies, the first level SMA-file need not to have to be accessed,
which saves some I/O."

A :class:`HierarchicalMinMax` wraps the first-level min/max SMA-files of
one column with second-level files of min-of-mins / max-of-maxs, one
entry per *page* of the first-level file.  Grading consults level 2
first and drills into level 1 only for ambivalent second-level buckets.
The resulting partitioning is bit-identical to flat grading — only the
I/O differs — which the tests assert.

The paper stops at two levels ("Since second level SMA-files will be
very small we do not think that higher levels are useful"); so do we.
"""

from __future__ import annotations

import os

import numpy as np

from repro.core.grade import partition_column_const
from repro.core.partition import BucketPartitioning
from repro.core.sma_file import SmaFile
from repro.errors import SmaStateError
from repro.lang.predicate import ColumnConstCmp
from repro.storage.buffer import BufferPool


def _reduce_blocks(
    values: np.ndarray,
    valid: np.ndarray | None,
    block: int,
    take_min: bool,
) -> tuple[np.ndarray, np.ndarray | None]:
    """Per-block min or max of a 1-D array, honouring a validity mask.

    Returns ``(block_values, block_valid)``; block_valid is None when
    every block has at least one defined entry.
    """
    num_blocks = (len(values) + block - 1) // block
    out = np.zeros(num_blocks, dtype=values.dtype)
    out_valid = np.ones(num_blocks, dtype=bool)
    for i in range(num_blocks):
        chunk = values[i * block : (i + 1) * block]
        if valid is not None:
            chunk = chunk[valid[i * block : (i + 1) * block]]
        if len(chunk) == 0:
            out_valid[i] = False
            continue
        out[i] = chunk.min() if take_min else chunk.max()
    return out, (None if out_valid.all() else out_valid)


class HierarchicalMinMax:
    """Two-level min/max SMA on one column."""

    def __init__(
        self,
        column: str,
        level1_min: SmaFile,
        level1_max: SmaFile,
        level2_min: SmaFile,
        level2_max: SmaFile,
        entries_per_block: int,
        complete_blocks: np.ndarray | None = None,
    ):
        self.column = column
        self.level1_min = level1_min
        self.level1_max = level1_max
        self.level2_min = level2_min
        self.level2_max = level2_max
        self.entries_per_block = entries_per_block
        #: blocks whose first-level entries are all defined may settle
        #: their base buckets from level 2 alone; incomplete blocks must
        #: drill down so undefined buckets grade ambivalent, exactly as
        #: flat grading would.  None means every block is complete.
        self.complete_blocks = complete_blocks

    @classmethod
    def build(
        cls,
        column: str,
        level1_min: SmaFile,
        level1_max: SmaFile,
        pool: BufferPool,
        directory: str,
        *,
        entries_per_block: int | None = None,
    ) -> "HierarchicalMinMax":
        """Derive the second level from existing first-level files.

        The default block is one *page* of the first-level file — the
        paper's "the SMA-file is again partitioned into buckets" with
        bucket = page.
        """
        if level1_min.num_entries != level1_max.num_entries:
            raise SmaStateError("first-level min/max files disagree on length")
        block = (
            entries_per_block
            if entries_per_block is not None
            else level1_min.entries_per_page
        )
        if block <= 0:
            raise SmaStateError(f"entries_per_block must be positive, got {block}")
        os.makedirs(directory, exist_ok=True)
        mins, mins_valid = _reduce_blocks(
            level1_min.values(charge=False),
            level1_min.valid_mask(),
            block,
            take_min=True,
        )
        maxs, maxs_valid = _reduce_blocks(
            level1_max.values(charge=False),
            level1_max.valid_mask(),
            block,
            take_min=False,
        )
        level2_min = SmaFile.build(
            os.path.join(directory, f"{column}__l2min.sma"),
            mins,
            pool,
            valid=mins_valid,
            page_size=level1_min.page_size,
        )
        level2_max = SmaFile.build(
            os.path.join(directory, f"{column}__l2max.sma"),
            maxs,
            pool,
            valid=maxs_valid,
            page_size=level1_max.page_size,
        )
        complete = _complete_blocks(
            _combine_valid(level1_min.valid_mask(), level1_max.valid_mask()),
            len(mins),
            block,
            level1_min.num_entries,
        )
        return cls(
            column, level1_min, level1_max, level2_min, level2_max, block, complete
        )

    # ------------------------------------------------------------------
    # grading
    # ------------------------------------------------------------------

    def partition(
        self, predicate: ColumnConstCmp, num_buckets: int, *, charge: bool = True
    ) -> BucketPartitioning:
        """Grade all base buckets, reading level-1 pages only when needed.

        Level-2 grading uses the same Section 3.1 rules (a second-level
        block's min/max bound every base bucket underneath).  Qualifying
        or disqualifying blocks settle all their base buckets at once;
        ambivalent blocks drill into the first-level range.
        """
        if predicate.column != self.column:
            raise SmaStateError(
                f"hierarchy indexes {self.column!r}, not {predicate.column!r}"
            )
        if num_buckets != self.level1_min.num_entries:
            raise SmaStateError(
                f"{num_buckets} buckets but {self.level1_min.num_entries} "
                f"first-level entries"
            )
        l2_mins = self.level2_min.values(charge=charge)
        l2_maxs = self.level2_max.values(charge=charge)
        l2_valid = _combine_valid(
            self.level2_min.valid_mask(), self.level2_max.valid_mask()
        )
        coarse = partition_column_const(
            predicate.op,
            predicate.constant,
            len(l2_mins),
            mins=l2_mins,
            maxs=l2_maxs,
            valid=l2_valid,
        )
        qualifying = np.zeros(num_buckets, dtype=bool)
        disqualifying = np.zeros(num_buckets, dtype=bool)
        block = self.entries_per_block
        for block_no in range(len(l2_mins)):
            first = block_no * block
            last = min(first + block, num_buckets) - 1
            complete = (
                self.complete_blocks is None or self.complete_blocks[block_no]
            )
            if complete and coarse.qualifying[block_no]:
                qualifying[first : last + 1] = True
            elif complete and coarse.disqualifying[block_no]:
                disqualifying[first : last + 1] = True
            else:
                fine = partition_column_const(
                    predicate.op,
                    predicate.constant,
                    last - first + 1,
                    mins=self.level1_min.read_range(first, last, charge=charge),
                    maxs=self.level1_max.read_range(first, last, charge=charge),
                    valid=_combine_valid(
                        self.level1_min.valid_range(first, last),
                        self.level1_max.valid_range(first, last),
                    ),
                )
                qualifying[first : last + 1] = fine.qualifying
                disqualifying[first : last + 1] = fine.disqualifying
        return BucketPartitioning(qualifying, disqualifying)

    def flat_partition(
        self, predicate: ColumnConstCmp, num_buckets: int, *, charge: bool = True
    ) -> BucketPartitioning:
        """Grade using the first level only (the comparison baseline)."""
        return partition_column_const(
            predicate.op,
            predicate.constant,
            num_buckets,
            mins=self.level1_min.values(charge=charge),
            maxs=self.level1_max.values(charge=charge),
            valid=_combine_valid(
                self.level1_min.valid_mask(), self.level1_max.valid_mask()
            ),
        )

    @property
    def level2_pages(self) -> int:
        return self.level2_min.num_pages + self.level2_max.num_pages

    def delete_files(self) -> None:
        self.level2_min.delete_files()
        self.level2_max.delete_files()


def _complete_blocks(
    level1_valid: np.ndarray | None,
    num_blocks: int,
    block: int,
    num_entries: int,
) -> np.ndarray | None:
    """Per-block flag: every first-level entry in the block is defined."""
    if level1_valid is None:
        return None
    complete = np.ones(num_blocks, dtype=bool)
    for i in range(num_blocks):
        chunk = level1_valid[i * block : min((i + 1) * block, num_entries)]
        complete[i] = bool(chunk.all())
    return complete


def _combine_valid(
    first: np.ndarray | None, second: np.ndarray | None
) -> np.ndarray | None:
    """Intersection of two optional validity masks."""
    if first is None:
        return second
    if second is None:
        return first
    return first & second
