"""Every table and figure of the paper's evaluation, as runnable experiments.

Each ``exp_*`` function stands up its own scratch database, runs the
measurement, and returns an :class:`~repro.bench.harness.ExperimentResult`
whose ``metrics`` the tests assert on.  The experiment ids (E1–E10, F2,
F5, X1–X7) key :data:`ALL_EXPERIMENTS` and are indexed in DESIGN.md;
paper-vs-measured numbers are recorded in EXPERIMENTS.md.

All experiments run at laptop scale (default SF ≤ 0.05) and report the
*simulated 1998 seconds* from exact I/O counts next to measured
wall-clock; where the paper quotes absolute SF=1 numbers, a linear
projection (page/tuple counts scale with SF; per-file positioning does
not) is reported alongside.
"""

from __future__ import annotations

import dataclasses
import os
import time

import numpy as np

from repro.baselines.btree import BPlusTree
from repro.baselines.datacube import DataCube, cube_bytes, paper_cube_comparison
from repro.baselines.projection import ProjectionIndex
from repro.core.definition import SmaDefinition
from repro.core.hierarchy import HierarchicalMinMax
from repro.core.maintenance import SmaMaintainer
from repro.core.semijoin import semijoin
from repro.core.aggregates import count_star, maximum, minimum, total
from repro.lang.expr import col
from repro.lang.predicate import cmp
from repro.query.query import OutputAggregate
from repro.query.session import Session
from repro.storage.disk import DiskModel, MODERN_DISK, PAPER_DISK
from repro.storage.stats import IoStats
from repro.storage.types import date_to_int, int_to_date
from repro.bench.harness import (
    ExperimentResult,
    ScratchCatalog,
    human_bytes,
    human_seconds,
)
from repro.tpcd.dbgen import GenConfig, generate_tables
from repro.tpcd.distributions import diagonal_distribution
from repro.tpcd.loader import load_lineitem, load_table
from repro.tpcd.queries import (
    QUERY1_BASE_DATE,
    query1,
    query1_sma_definitions,
    query6,
    query6_sma_definitions,
)

#: LINEITEM bucket count at SF = 1 in the paper's configuration; used to
#: project small-scale runs onto the paper's absolute numbers.
PAPER_SF1_BUCKETS = 187_733


def _project_stats(stats: IoStats, factor: float) -> IoStats:
    """Scale one run's counters to a larger database.

    Sequential/skip reads, writes, tuples and SMA entries grow linearly
    with scale; random positioning reads (one per file/scan start) do
    not.
    """
    scaled = IoStats()
    for field in dataclasses.fields(IoStats):
        value = getattr(stats, field.name)
        if field.name == "random_page_reads":
            scaled.random_page_reads = value
        else:
            setattr(scaled, field.name, int(value * factor))
    return scaled


# ----------------------------------------------------------------------
# E1 — SMA creation time and size (Section 2.4, first table)
# ----------------------------------------------------------------------

def exp_sma_creation(
    scale_factor: float = 0.02, disk: DiskModel = PAPER_DISK
) -> ExperimentResult:
    """Per-SMA creation time and SMA-file sizes, one scan per SMA."""
    paper_pages = {
        "count": 736, "max": 184, "min": 184, "qty": 1468,
        "dis": 1468, "ext": 1468, "extdis": 1468, "extdistax": 1468,
    }
    paper_seconds = {
        "count": 117, "max": 116, "min": 103, "qty": 104,
        "dis": 100, "ext": 101, "extdis": 95, "extdistax": 99,
    }
    # Buffer far smaller than the relation (as at warehouse scale), so
    # each per-SMA build pass really reads the data from disk.
    with ScratchCatalog(buffer_pages=256) as catalog:
        loaded = load_lineitem(
            catalog, scale_factor=scale_factor, clustering="sorted",
            separate_scans=True,
        )
        buckets = loaded.table.num_buckets
        factor = PAPER_SF1_BUCKETS / buckets
        rows = []
        total_sim = 0.0
        for report in loaded.build_reports:
            simulated = disk.seconds(report.stats)
            projected = disk.seconds(_project_stats(report.stats, factor))
            total_sim += simulated
            rows.append(
                (
                    report.definition_name,
                    report.num_files,
                    report.pages,
                    human_bytes(report.size_bytes),
                    human_seconds(report.wall_seconds),
                    human_seconds(simulated),
                    human_seconds(projected),
                    f"{paper_seconds[report.definition_name]} s",
                    paper_pages[report.definition_name],
                )
            )
        sma_pages = loaded.sma_set.total_pages
        metrics = {
            "total_simulated_s": total_sim,
            "sma_pages": sma_pages,
            "buckets": buckets,
            "pages_per_1k_buckets_min": (
                loaded.sma_set.definition_pages("min") / buckets * 1000
            ),
            "pages_per_1k_buckets_count": (
                loaded.sma_set.definition_pages("count") / buckets * 1000
            ),
            "pages_per_1k_buckets_qty": (
                loaded.sma_set.definition_pages("qty") / buckets * 1000
            ),
        }
    return ExperimentResult(
        exp_id="E1",
        title=f"SMA creation time and size (SF={scale_factor}, {buckets} buckets)",
        headers=[
            "sma", "files", "pages", "size", "wall", "simulated",
            "proj@SF=1", "paper time", "paper pages@SF=1",
        ],
        rows=rows,
        paper_reference="Section 2.4, creation-time/size table",
        notes=[
            "paper page counts normalize to ~0.98 (dates), ~3.92 (count), "
            "~7.82 (8-byte sums) pages per 1000 buckets — compare the "
            "pages_per_1k_buckets metrics",
        ],
        metrics=metrics,
    )


# ----------------------------------------------------------------------
# E2 — space overhead vs the relation and vs a B+-tree (Section 2.4)
# ----------------------------------------------------------------------

def exp_space_overhead(
    scale_factor: float = 0.02, disk: DiskModel = PAPER_DISK
) -> ExperimentResult:
    with ScratchCatalog(buffer_pages=256) as catalog:
        loaded = load_lineitem(
            catalog, scale_factor=scale_factor, clustering="sorted"
        )
        table = loaded.table
        sma_bytes = loaded.sma_set.total_bytes
        sma_build_stats = IoStats()
        for report in loaded.build_reports:
            sma_build_stats.merge(report.stats)

        before = catalog.stats.snapshot()
        started = time.perf_counter()
        btree = BPlusTree.build("l_shipdate", table, "L_SHIPDATE", catalog.pool)
        btree_wall = time.perf_counter() - started
        btree_stats = catalog.stats.snapshot() - before

        rows = [
            (
                "LINEITEM", human_bytes(table.size_bytes), "100.0%", "-", "-",
            ),
            (
                "all 26 SMA-files",
                human_bytes(sma_bytes),
                f"{sma_bytes / table.size_bytes:.1%}",
                human_seconds(disk.seconds(sma_build_stats)),
                "33.78 MB (4.6%) / < 15 min",
            ),
            (
                "B+-tree on L_SHIPDATE (bulk load)",
                human_bytes(btree.size_bytes),
                f"{btree.size_bytes / table.size_bytes:.1%}",
                human_seconds(disk.seconds(btree_stats)),
                "~230 MB (31%) / far beyond 15 min",
            ),
            (
                "B+-tree, tuple-wise insertion (1998-style)",
                human_bytes(btree.size_bytes),
                f"{btree.size_bytes / table.size_bytes:.1%}",
                human_seconds(table.num_records * disk.random_page_s),
                "(each insert seeks a random leaf; index >> buffer)",
            ),
        ]
        metrics = {
            "sma_fraction": sma_bytes / table.size_bytes,
            "btree_fraction": btree.size_bytes / table.size_bytes,
            "sma_build_sim_s": disk.seconds(sma_build_stats),
            "btree_build_sim_s": disk.seconds(btree_stats),
            "btree_tuplewise_sim_s": table.num_records * disk.random_page_s,
            "btree_wall_s": btree_wall,
        }
    return ExperimentResult(
        exp_id="E2",
        title=f"Space and build cost: SMAs vs B+-tree (SF={scale_factor})",
        headers=["structure", "size", "of relation", "build (simulated)", "paper@SF=1"],
        rows=rows,
        paper_reference="Section 2.4 (space requirements, B+-tree comparison)",
        metrics=metrics,
    )


# ----------------------------------------------------------------------
# E3 — data cube space arithmetic (Section 2.4)
# ----------------------------------------------------------------------

def exp_datacube_space(scale_factor: float = 0.005) -> ExperimentResult:
    paper_values = ("479.25 KB", "1196.25 MB", "2985.95 GB")
    rows = []
    reports = paper_cube_comparison()
    for report, paper in zip(reports, paper_values):
        rows.append(
            (
                f"cube, {len(report.dimensions) - 1} date dim(s) x 4 flags",
                human_bytes(report.total_bytes),
                paper,
            )
        )
    # SMAs for all three dates: the Figure 4 set plus min/max for the
    # two other date attributes of LINEITEM.
    with ScratchCatalog() as catalog:
        extra = [
            SmaDefinition("commit_min", "LINEITEM", minimum(col("L_COMMITDATE"))),
            SmaDefinition("commit_max", "LINEITEM", maximum(col("L_COMMITDATE"))),
            SmaDefinition("receipt_min", "LINEITEM", minimum(col("L_RECEIPTDATE"))),
            SmaDefinition("receipt_max", "LINEITEM", maximum(col("L_RECEIPTDATE"))),
        ]
        loaded = load_lineitem(
            catalog,
            scale_factor=scale_factor,
            clustering="sorted",
            sma_definitions=query1_sma_definitions() + extra,
        )
        sma_bytes = loaded.sma_set.total_bytes
        projected = sma_bytes * (PAPER_SF1_BUCKETS / loaded.table.num_buckets)
        rows.append(
            (
                "all SMAs, 3 dates supported (projected to SF=1)",
                human_bytes(projected),
                "51.12 MB",
            )
        )

        # Validate the closed-form model against a materialized cube.
        cube = DataCube.build(
            loaded.table,
            ("L_RETURNFLAG", "L_LINESTATUS"),
            (
                OutputAggregate("sum_qty", total(col("L_QUANTITY"))),
                OutputAggregate("n", count_star()),
            ),
        )
        formula = cube_bytes(cube.dimension_cardinalities(), cube.entry_bytes)
        rows.append(
            (
                "materialized 2-flag cube vs formula",
                f"{human_bytes(cube.allocated_bytes)} = {human_bytes(formula)}",
                "(validates the space model)",
            )
        )
        metrics = {
            "cube3_over_sma": reports[2].total_bytes / projected,
            "cube1_bytes": float(reports[0].total_bytes),
            "cube3_bytes": float(reports[2].total_bytes),
            "sma_projected_bytes": projected,
            "formula_matches": float(cube.allocated_bytes == formula),
        }
    return ExperimentResult(
        exp_id="E3",
        title="Data cube space vs SMA space",
        headers=["structure", "size", "paper"],
        rows=rows,
        paper_reference="Section 2.4 (cube storage arithmetic, 2556-day dates)",
        notes=[
            "the 2985.95 GB / 51.12 MB contrast is the paper's headline "
            "space argument: ratio "
            f"~{cube_bytes([2556] * 3 + [4]) / (51.12 * 1024 ** 2):.0f}x",
        ],
        metrics=metrics,
    )


# ----------------------------------------------------------------------
# E4 — Query 1 runtime: scan vs SMA cold vs SMA warm (Section 2.4)
# ----------------------------------------------------------------------

def exp_query1_speedup(
    scale_factor: float = 0.05,
    delta: int = 90,
    disk: DiskModel = PAPER_DISK,
) -> ExperimentResult:
    with ScratchCatalog() as catalog:
        loaded = load_lineitem(
            catalog, scale_factor=scale_factor, clustering="sorted"
        )
        factor = PAPER_SF1_BUCKETS / loaded.table.num_buckets
        session = Session(catalog, disk)
        query = query1(delta=delta)

        result_scan = session.execute(query, mode="scan", cold=True)
        result_cold = session.execute(query, mode="sma", cold=True)
        result_warm = session.execute(query, mode="sma")

        def row(label: str, result, paper: str):
            projected = disk.seconds(_project_stats(result.stats, factor))
            return (
                label,
                human_seconds(result.wall_seconds),
                human_seconds(result.simulated_seconds),
                human_seconds(projected),
                paper,
            )

        rows = [
            row("Query 1 without SMAs (cold)", result_scan, "128 s"),
            row("Query 1 with SMAs (cold)", result_cold, "4.9 s"),
            row("Query 1 with SMAs (warm)", result_warm, "1.9 s"),
        ]
        proj_scan = disk.seconds(_project_stats(result_scan.stats, factor))
        proj_cold = disk.seconds(_project_stats(result_cold.stats, factor))
        proj_warm = disk.seconds(_project_stats(result_warm.stats, factor))
        metrics = {
            "speedup_cold": result_scan.simulated_seconds
            / result_cold.simulated_seconds,
            "speedup_warm": result_scan.simulated_seconds
            / result_warm.simulated_seconds,
            "proj_scan_s": proj_scan,
            "proj_cold_s": proj_cold,
            "proj_warm_s": proj_warm,
            "fraction_ambivalent": result_cold.plan.fraction_ambivalent or 0.0,
            "wall_speedup_warm": result_scan.wall_seconds
            / max(result_warm.wall_seconds, 1e-9),
        }
        # Result correctness cross-check: SMA and scan rows must agree.
        assert len(result_scan.rows) == len(result_cold.rows)
    return ExperimentResult(
        exp_id="E4",
        title=f"Query 1 runtime, LINEITEM sorted on shipdate (SF={scale_factor})",
        headers=["configuration", "wall", "simulated", "proj@SF=1", "paper@SF=1"],
        rows=rows,
        paper_reference="Section 2.4, query response time table",
        notes=[
            "the paper's claim: 'Processing Query 1 with SMAs becomes two "
            "orders of magnitude faster!' — compare speedup_warm",
        ],
        metrics=metrics,
    )


# ----------------------------------------------------------------------
# F5 — runtime vs fraction of ambivalent buckets; break-even (Figure 5)
# ----------------------------------------------------------------------

def exp_breakeven_sweep(
    scale_factor: float = 0.02,
    fractions: tuple[float, ...] = (
        0.0, 0.05, 0.10, 0.15, 0.20, 0.25, 0.30, 0.35, 0.40, 0.45, 0.50,
    ),
    disk: DiskModel = PAPER_DISK,
) -> ExperimentResult:
    """Sweep the contaminated-bucket fraction and find the break-even.

    The buffer pool is sized to hold the SMA-files but not the relation,
    reproducing the paper's warm regime (SMA-files cached, data pages
    always from disk — at SF=1 a 733 MB relation can never stay warm in
    an 8 MB buffer).
    """
    rows = []
    sma_seconds: list[float] = []
    scan_seconds: list[float] = []
    ambivalent: list[float] = []
    for fraction in fractions:
        with ScratchCatalog(buffer_pages=256) as catalog:
            loaded = load_lineitem(
                catalog,
                scale_factor=scale_factor,
                clustering="sorted",
                contaminate_fraction=fraction,
            )
            # Place the cutoff at the median shipdate so every planted
            # swap straddles the predicate (the paper varies the
            # ambivalent fraction directly; the predicate constant is
            # immaterial to the Figure 5 mechanism).
            max_values = loaded.sma_set.files_of("max")[()].values(charge=False)
            cutoff = int_to_date(int(np.median(max_values)))
            session = Session(catalog, disk)
            query = query1(cutoff=cutoff)
            result_scan = session.execute(query, mode="scan", cold=True)
            session.execute(query, mode="sma", cold=True)  # warm the SMA files
            result_sma = session.execute(query, mode="sma")
            sma_seconds.append(result_sma.simulated_seconds)
            scan_seconds.append(result_scan.simulated_seconds)
            ambivalent.append(result_sma.plan.fraction_ambivalent or 0.0)
            rows.append(
                (
                    f"{fraction:.2f}",
                    f"{ambivalent[-1]:.3f}",
                    human_seconds(result_scan.simulated_seconds),
                    human_seconds(result_sma.simulated_seconds),
                    f"{result_sma.simulated_seconds / result_scan.simulated_seconds:.2f}",
                )
            )

    breakeven = None
    for i in range(1, len(fractions)):
        if (sma_seconds[i - 1] <= scan_seconds[i - 1]) and (
            sma_seconds[i] > scan_seconds[i]
        ):
            # Linear interpolation between the two sweep points.
            gap_before = scan_seconds[i - 1] - sma_seconds[i - 1]
            gap_after = sma_seconds[i] - scan_seconds[i]
            t = gap_before / (gap_before + gap_after)
            breakeven = ambivalent[i - 1] + t * (ambivalent[i] - ambivalent[i - 1])
            break
    metrics = {
        "breakeven_fraction": breakeven if breakeven is not None else float("nan"),
        "sma_over_scan_at_max": sma_seconds[-1] / scan_seconds[-1],
        "scan_flatness": max(scan_seconds) / max(min(scan_seconds), 1e-12),
    }
    return ExperimentResult(
        exp_id="F5",
        title=f"Runtime vs ambivalent-bucket fraction (SF={scale_factor})",
        headers=["planted", "ambivalent", "scan (sim)", "SMA (sim)", "SMA/scan"],
        rows=rows,
        paper_reference="Figure 5 — break-even at ~25% of buckets",
        notes=[
            "paper: 'The breakeven point is at about 25% of the total "
            "number of buckets'",
        ],
        metrics=metrics,
    )


# ----------------------------------------------------------------------
# F2 — diagonal data distribution (Figure 2) and its clustering payoff
# ----------------------------------------------------------------------

def exp_diagonal_distribution(
    scale_factor: float = 0.01, sample: int = 20_000, seed: int = 7
) -> ExperimentResult:
    rng = np.random.default_rng(seed)
    events, intro = diagonal_distribution(rng, sample)
    lag = intro - events
    correlation = float(np.corrcoef(events, intro)[0, 1])
    rows = [
        (
            "diagonal sample",
            f"{sample} points",
            f"corr(event, introduction) = {correlation:.4f}",
        ),
        (
            "lag (days)",
            f"mean {lag.mean():.1f}",
            f"std {lag.std():.1f}; all points right of diagonal: "
            f"{bool((lag >= 0).all())}",
        ),
    ]
    ambivalent_by_clustering: dict[str, float] = {}
    cutoff = QUERY1_BASE_DATE
    for clustering in ("sorted", "toc", "uniform"):
        with ScratchCatalog() as catalog:
            loaded = load_lineitem(
                catalog, scale_factor=scale_factor, clustering=clustering
            )
            maxs = loaded.sma_set.files_of("max")[()].values(charge=False)
            mins = loaded.sma_set.files_of("min")[()].values(charge=False)
            mid = int_to_date((int(mins.min()) + int(maxs.max())) // 2)
            partitioning = loaded.sma_set.partition(
                cmp("L_SHIPDATE", "<=", mid), charge=False
            )
            fraction = partitioning.fraction_ambivalent
            ambivalent_by_clustering[clustering] = fraction
            rows.append(
                (
                    f"clustering={clustering}",
                    f"{loaded.table.num_buckets} buckets",
                    f"ambivalent at median shipdate predicate: {fraction:.3f}",
                )
            )
    metrics = {
        "correlation": correlation,
        "amb_sorted": ambivalent_by_clustering["sorted"],
        "amb_toc": ambivalent_by_clustering["toc"],
        "amb_uniform": ambivalent_by_clustering["uniform"],
    }
    return ExperimentResult(
        exp_id="F2",
        title="Diagonal data distribution and implicit clustering payoff",
        headers=["subject", "size", "observation"],
        rows=rows,
        paper_reference="Figure 2 / Section 2.2 (time-of-creation clustering)",
        notes=[
            "expected ordering: ambivalence sorted < toc << uniform "
            "(~1.0 for uniform: every bucket spans the full date range)",
        ],
        metrics=metrics,
    )


# ----------------------------------------------------------------------
# E5 — SMA-file size ratio (Section 2.1: 1/1000th of the data)
# ----------------------------------------------------------------------

def exp_sma_file_ratio(scale_factor: float = 0.01) -> ExperimentResult:
    with ScratchCatalog() as catalog:
        loaded = load_lineitem(
            catalog, scale_factor=scale_factor, clustering="sorted"
        )
        table = loaded.table
        min_file = loaded.sma_set.files_of("min")[()]
        ratio = min_file.size_bytes / table.size_bytes
        rows = [
            ("LINEITEM", human_bytes(table.size_bytes), f"{table.num_pages} pages"),
            (
                "min(L_SHIPDATE) SMA-file (4-byte entries)",
                human_bytes(min_file.size_bytes),
                f"{min_file.num_pages} pages",
            ),
            ("ratio", f"1 : {1 / ratio:.0f}", "paper: ~1/1000"),
        ]
        metrics = {"ratio": ratio}
    return ExperimentResult(
        exp_id="E5",
        title="SMA-file size relative to the indexed data",
        headers=["object", "size", "pages"],
        rows=rows,
        paper_reference="Section 2.1 ('only 1/1000th of the size of the original data')",
        metrics=metrics,
    )


# ----------------------------------------------------------------------
# E7 — hierarchical SMAs (Section 4)
# ----------------------------------------------------------------------

def exp_hierarchical(
    scale_factor: float = 0.05, entries_per_block: int | None = None
) -> ExperimentResult:
    """Imperfect (toc) clustering so mid-selectivity predicates leave
    ambivalent level-2 blocks — the regime the paper argues hierarchy
    helps at 'rather high and rather low selectivities'."""
    with ScratchCatalog() as catalog:
        loaded = load_lineitem(
            catalog, scale_factor=scale_factor, clustering="toc", lag_std=60.0
        )
        sma_set = loaded.sma_set
        min_file = sma_set.files_of("min")[()]
        max_file = sma_set.files_of("max")[()]
        hierarchy = HierarchicalMinMax.build(
            "L_SHIPDATE",
            min_file,
            max_file,
            catalog.pool,
            os.path.join(catalog.root_dir, "hierarchy"),
            entries_per_block=entries_per_block,
        )
        mins = min_file.values(charge=False)
        maxs = max_file.values(charge=False)
        lo, hi = int(mins.min()), int(maxs.max())
        rows = []
        savings = {}
        for label, cutoff in (
            ("low selectivity (2%)", lo + int(0.02 * (hi - lo))),
            ("mid selectivity (50%)", lo + int(0.50 * (hi - lo))),
            ("high selectivity (98%)", lo + int(0.98 * (hi - lo))),
        ):
            predicate = cmp("L_SHIPDATE", "<=", int_to_date(cutoff)).bind(
                loaded.table.schema
            )
            catalog.go_cold()
            before = catalog.stats.snapshot()
            flat = hierarchy.flat_partition(predicate, loaded.table.num_buckets)
            flat_stats = catalog.stats.snapshot() - before
            catalog.go_cold()
            before = catalog.stats.snapshot()
            hier = hierarchy.partition(predicate, loaded.table.num_buckets)
            hier_stats = catalog.stats.snapshot() - before
            assert flat == hier  # identical partitionings, cheaper I/O
            rows.append(
                (
                    label,
                    flat_stats.page_reads,
                    hier_stats.page_reads,
                    flat_stats.sma_entries_read,
                    hier_stats.sma_entries_read,
                )
            )
            savings[label] = flat_stats.sma_entries_read - hier_stats.sma_entries_read
        metrics = {
            "entries_saved_low": float(savings["low selectivity (2%)"]),
            "entries_saved_high": float(savings["high selectivity (98%)"]),
            "entries_saved_mid": float(savings["mid selectivity (50%)"]),
            "level2_pages": float(hierarchy.level2_pages),
        }
    return ExperimentResult(
        exp_id="E7",
        title=f"Hierarchical SMAs: level-1 reads saved (SF={scale_factor})",
        headers=[
            "predicate", "flat pages", "hier pages",
            "flat entries", "hier entries",
        ],
        rows=rows,
        paper_reference="Section 4 (hierarchical SMAs)",
        notes=[
            "expected: big entry savings at extreme selectivities (level-2 "
            "blocks settle wholesale), little at mid (the boundary block "
            "must drill down, everything else settles at level 2 anyway)",
        ],
        metrics=metrics,
    )


# ----------------------------------------------------------------------
# E8 — semi-join SMAs (Section 4)
# ----------------------------------------------------------------------

def exp_semijoin(scale_factor: float = 0.01, seed: int = 42) -> ExperimentResult:
    with ScratchCatalog() as catalog:
        loaded = load_lineitem(
            catalog, scale_factor=scale_factor, clustering="sorted"
        )
        config = GenConfig(scale_factor=scale_factor, seed=seed + 100)
        orders = generate_tables(config, ("ORDERS",))["ORDERS"]
        # S: the earliest 2% of orders — a narrow O_ORDERDATE range, so
        # the semi-join bound disqualifies most LINEITEM buckets.
        orders = orders[np.argsort(orders["O_ORDERDATE"], kind="stable")]
        subset = orders[: max(len(orders) // 50, 1)]
        s_table = load_table(catalog, "ORDERS", subset)

        before = catalog.stats.snapshot()
        with_sma, predicate = semijoin(
            loaded.table, "L_SHIPDATE", "<", s_table, "O_ORDERDATE",
            sma_set=loaded.sma_set,
        )
        stats_sma = catalog.stats.snapshot() - before

        before = catalog.stats.snapshot()
        without_sma, _ = semijoin(
            loaded.table, "L_SHIPDATE", "<", s_table, "O_ORDERDATE"
        )
        stats_scan = catalog.stats.snapshot() - before

        assert len(with_sma) == len(without_sma)
        rows = [
            (
                "with SMA reduction",
                stats_sma.buckets_fetched,
                stats_sma.buckets_skipped,
                len(with_sma),
            ),
            (
                "without (full scan)",
                stats_scan.buckets_fetched,
                stats_scan.buckets_skipped,
                len(without_sma),
            ),
        ]
        metrics = {
            "buckets_fetched_sma": float(stats_sma.buckets_fetched),
            "buckets_fetched_scan": float(stats_scan.buckets_fetched),
            "reduction": 1.0
            - stats_sma.buckets_fetched / max(stats_scan.buckets_fetched, 1),
            "result_tuples": float(len(with_sma)),
        }
    return ExperimentResult(
        exp_id="E8",
        title=f"Semi-join input reduction via SMAs (SF={scale_factor})",
        headers=["strategy", "buckets fetched", "buckets skipped", "result tuples"],
        rows=rows,
        paper_reference="Section 4 (SMAs encompassing semi-joins)",
        metrics=metrics,
    )


# ----------------------------------------------------------------------
# E9 — maintenance cost (Section 2.1)
# ----------------------------------------------------------------------

def exp_maintenance(scale_factor: float = 0.005, seed: int = 3) -> ExperimentResult:
    with ScratchCatalog() as catalog:
        loaded = load_lineitem(
            catalog, scale_factor=scale_factor, clustering="sorted"
        )
        table = loaded.table
        maintainer = SmaMaintainer(table, [loaded.sma_set])

        config = GenConfig(scale_factor=scale_factor, seed=seed)
        fresh = generate_tables(config, ("LINEITEM",))["LINEITEM"]
        fresh = fresh[np.argsort(fresh["L_SHIPDATE"], kind="stable")][:16384]

        before = catalog.stats.snapshot()
        maintainer.insert(fresh)
        insert_stats = catalog.stats.snapshot() - before
        data_pages = (
            len(fresh) + table.layout.tuples_per_page - 1
        ) // table.layout.tuples_per_page
        sma_writes_insert = insert_stats.page_writes - data_pages

        cutoff = int_to_date(int(fresh["L_SHIPDATE"][64]))
        before = catalog.stats.snapshot()
        updated = maintainer.update_where(
            cmp("L_SHIPDATE", "=", cutoff), {"L_QUANTITY": 1.0}
        )
        update_stats = catalog.stats.snapshot() - before

        rows = [
            (
                f"bulk insert of {len(fresh)} tuples",
                insert_stats.page_writes,
                f"{insert_stats.page_writes / max(len(fresh), 1):.4f}",
                f"~{data_pages} data pages + {max(sma_writes_insert, 0)} SMA pages",
            ),
            (
                f"update of {updated} tuples",
                update_stats.page_writes,
                f"{update_stats.page_writes / max(updated, 1):.2f}",
                "bucket rewrite + <=1 SMA page per touched SMA entry",
            ),
        ]
        metrics = {
            "insert_writes_per_tuple": insert_stats.page_writes / max(len(fresh), 1),
            "sma_write_overhead": max(sma_writes_insert, 0) / max(data_pages, 1),
            "updated_tuples": float(updated),
        }
    return ExperimentResult(
        exp_id="E9",
        title="Maintenance cost: inserts and updates",
        headers=["operation", "page writes", "writes/tuple", "breakdown"],
        rows=rows,
        paper_reference="Section 2.1 (bulkload ~1 SMA page per 1000 data "
        "pages; at most one additional page access per updated tuple)",
        metrics=metrics,
    )


# ----------------------------------------------------------------------
# E10 — bucket-size trade-off (Section 4)
# ----------------------------------------------------------------------

def exp_bucket_size(
    scale_factor: float = 0.02,
    pages_per_bucket: tuple[int, ...] = (1, 2, 4, 8, 16),
    disk: DiskModel = PAPER_DISK,
) -> ExperimentResult:
    rows = []
    sim_by_ppb = {}
    sma_pages_by_ppb = {}
    for ppb in pages_per_bucket:
        with ScratchCatalog(buffer_pages=256) as catalog:
            loaded = load_lineitem(
                catalog,
                scale_factor=scale_factor,
                clustering="toc",
                pages_per_bucket=ppb,
                lag_std=40.0,
            )
            max_values = loaded.sma_set.files_of("max")[()].values(charge=False)
            cutoff = int_to_date(int(np.median(max_values)))
            session = Session(catalog, disk)
            query = query1(cutoff=cutoff)
            session.execute(query, mode="sma", cold=True)  # warm the SMA files
            result = session.execute(query, mode="sma")
            sim_by_ppb[ppb] = result.simulated_seconds
            sma_pages_by_ppb[ppb] = loaded.sma_set.total_pages
            rows.append(
                (
                    ppb,
                    loaded.table.num_buckets,
                    loaded.sma_set.total_pages,
                    f"{result.plan.fraction_ambivalent or 0.0:.3f}",
                    human_seconds(result.simulated_seconds),
                )
            )
    metrics = {
        "sma_pages_ppb1": float(sma_pages_by_ppb[pages_per_bucket[0]]),
        "sma_pages_ppb_max": float(sma_pages_by_ppb[pages_per_bucket[-1]]),
        "sim_ppb1": sim_by_ppb[pages_per_bucket[0]],
        "sim_ppb_max": sim_by_ppb[pages_per_bucket[-1]],
    }
    return ExperimentResult(
        exp_id="E10",
        title=f"Bucket-size trade-off on imperfectly clustered data (SF={scale_factor})",
        headers=["pages/bucket", "buckets", "SMA pages", "ambivalent", "Q1 SMA (sim)"],
        rows=rows,
        paper_reference="Section 4 (bucket-size tuning trade-off)",
        notes=[
            "small buckets: more SMA I/O; large buckets: more ambivalent "
            "data to re-scan — the paper's stated trade-off",
        ],
        metrics=metrics,
    )


# ----------------------------------------------------------------------
# extensions beyond the paper's tables
# ----------------------------------------------------------------------

def exp_query6(
    scale_factor: float = 0.02, disk: DiskModel = PAPER_DISK
) -> ExperimentResult:
    """Query 6 — conjunctive multi-attribute grading (versatility claim)."""
    with ScratchCatalog(buffer_pages=512) as catalog:
        loaded = load_lineitem(
            catalog,
            scale_factor=scale_factor,
            clustering="sorted",
            sma_definitions=query6_sma_definitions(),
            sma_set_name="q6",
        )
        session = Session(catalog, disk)
        query = query6()
        result_scan = session.execute(query, mode="scan", cold=True)
        result_sma = session.execute(query, mode="sma", cold=True)
        assert result_scan.rows[0][1] == result_sma.rows[0][1]  # MATCHES equal
        rows = [
            (
                "full scan",
                human_seconds(result_scan.simulated_seconds),
                result_scan.stats.buckets_fetched,
                result_scan.rows[0][1],
            ),
            (
                "SMA plan",
                human_seconds(result_sma.simulated_seconds),
                result_sma.stats.buckets_fetched,
                result_sma.rows[0][1],
            ),
        ]
        metrics = {
            "speedup": result_scan.simulated_seconds / result_sma.simulated_seconds,
            "fraction_ambivalent": result_sma.plan.fraction_ambivalent or 0.0,
            "matches": float(result_sma.rows[0][1]),
        }
    return ExperimentResult(
        exp_id="X1",
        title=f"Query 6: conjunctive grading on three attributes (SF={scale_factor})",
        headers=["strategy", "simulated", "buckets fetched", "matches"],
        rows=rows,
        paper_reference="Section 3.1 (and/or combination of partitionings)",
        metrics=metrics,
    )


def exp_btree_uselessness(
    scale_factor: float = 0.01, disk: DiskModel = PAPER_DISK
) -> ExperimentResult:
    """The Section 1 argument: at 95–97% selectivity an unclustered
    B+-tree turns sequential I/O into random I/O."""
    with ScratchCatalog(buffer_pages=256) as catalog:
        loaded = load_lineitem(
            catalog,
            scale_factor=scale_factor,
            clustering="uniform",  # index is unclustered w.r.t. physical order
            build_smas=False,
        )
        table = loaded.table
        btree = BPlusTree.build("ship_idx", table, "L_SHIPDATE", catalog.pool)
        cutoff = date_to_int(QUERY1_BASE_DATE) - 90

        catalog.go_cold()
        before = catalog.stats.snapshot()
        from repro.lang.predicate import CmpOp

        rids = btree.search_cmp(CmpOp.LE, cutoff)
        # Fetch in key order — the index access pattern.
        fetched = btree.fetch(table, rids)
        btree_stats = catalog.stats.snapshot() - before

        catalog.go_cold()
        before = catalog.stats.snapshot()
        from repro.baselines.fullscan import scan_count

        matched = scan_count(table, cmp("L_SHIPDATE", "<=", int_to_date(cutoff)))
        scan_stats = catalog.stats.snapshot() - before
        assert matched == len(fetched)

        selectivity = matched / table.num_records
        rows = [
            (
                "B+-tree rid fetch",
                human_seconds(disk.seconds(btree_stats)),
                btree_stats.random_page_reads + btree_stats.skip_page_reads,
                btree_stats.sequential_page_reads,
            ),
            (
                "sequential scan",
                human_seconds(disk.seconds(scan_stats)),
                scan_stats.random_page_reads + scan_stats.skip_page_reads,
                scan_stats.sequential_page_reads,
            ),
        ]
        metrics = {
            "slowdown": disk.seconds(btree_stats) / disk.seconds(scan_stats),
            "selectivity": selectivity,
        }
    return ExperimentResult(
        exp_id="X2",
        title=f"Unclustered B+-tree at {selectivity:.0%} selectivity",
        headers=["strategy", "simulated", "random+skip reads", "sequential reads"],
        rows=rows,
        paper_reference="Section 1 ('the only effect of using an index is to "
        "turn sequential I/O into random I/O')",
        metrics=metrics,
    )


def exp_modern_hardware(scale_factor: float = 0.02) -> ExperimentResult:
    """Ablation: the same Query 1 comparison under an NVMe-era model."""
    rows = []
    metrics = {}
    for label, disk in (("1998 Barracuda", PAPER_DISK), ("2020s NVMe", MODERN_DISK)):
        with ScratchCatalog(buffer_pages=512) as catalog:
            loaded = load_lineitem(
                catalog, scale_factor=scale_factor, clustering="sorted"
            )
            session = Session(catalog, disk)
            query = query1()
            result_scan = session.execute(query, mode="scan", cold=True)
            result_sma = session.execute(query, mode="sma", cold=True)
            speedup = result_scan.simulated_seconds / result_sma.simulated_seconds
            rows.append(
                (
                    label,
                    human_seconds(result_scan.simulated_seconds),
                    human_seconds(result_sma.simulated_seconds),
                    f"{speedup:.1f}x",
                )
            )
            key = "speedup_1998" if "1998" in label else "speedup_modern"
            metrics[key] = speedup
    return ExperimentResult(
        exp_id="X3",
        title="Hardware ablation: SMA advantage then and now",
        headers=["hardware model", "scan (sim)", "SMA (sim)", "speedup"],
        rows=rows,
        paper_reference="(extension) — why zone maps survived 25 years",
        metrics=metrics,
    )


def exp_projection_index(
    scale_factor: float = 0.01, disk: DiskModel = PAPER_DISK
) -> ExperimentResult:
    """SMAs vs the projection index they generalize (Section 1/2.2)."""
    with ScratchCatalog(buffer_pages=512) as catalog:
        loaded = load_lineitem(
            catalog, scale_factor=scale_factor, clustering="sorted"
        )
        table = loaded.table
        projection = ProjectionIndex.build(
            table, "L_SHIPDATE", os.path.join(catalog.root_dir, "ship.proj")
        )
        cutoff = int_to_date(date_to_int(QUERY1_BASE_DATE) - 90)
        predicate = cmp("L_SHIPDATE", "<=", cutoff).bind(table.schema)

        catalog.go_cold()
        before = catalog.stats.snapshot()
        positions = projection.matching_positions(predicate)
        projection_stats = catalog.stats.snapshot() - before

        catalog.go_cold()
        before = catalog.stats.snapshot()
        partitioning = loaded.sma_set.partition(predicate)
        sma_stats = catalog.stats.snapshot() - before

        min_file = loaded.sma_set.files_of("min")[()]
        max_file = loaded.sma_set.files_of("max")[()]
        rows = [
            (
                "projection index (per-tuple values)",
                projection.num_pages,
                projection_stats.page_reads,
                f"{len(positions)} matching positions",
            ),
            (
                "min+max SMAs (per-bucket values)",
                min_file.num_pages + max_file.num_pages,
                sma_stats.page_reads,
                f"{partitioning.num_qualifying} q / "
                f"{partitioning.num_ambivalent} a buckets",
            ),
        ]
        metrics = {
            "projection_pages": float(projection.num_pages),
            "sma_pages": float(min_file.num_pages + max_file.num_pages),
            "page_ratio": projection.num_pages
            / max(min_file.num_pages + max_file.num_pages, 1),
        }
    return ExperimentResult(
        exp_id="X4",
        title="Projection index vs min/max SMAs for predicate evaluation",
        headers=["structure", "size (pages)", "pages read", "result"],
        rows=rows,
        paper_reference="Section 1 (SMAs generalize projection indexes [16])",
        notes=["per-bucket summaries cost ~tuples_per_bucket x less I/O"],
        metrics=metrics,
    )


def exp_versatility(
    scale_factor: float = 0.02,
    num_queries: int = 20,
    seed: int = 17,
    disk: DiskModel = PAPER_DISK,
) -> ExperimentResult:
    """One SMA set, many queries — the flexibility argument of §2.3.

    "If another query with restrictions on any of the attributes
    aggregated in some SMA occures, the SMA can be used to more
    efficiently answer the query."  We fire a batch of random ad-hoc
    range/aggregate queries (different cutoffs, operators, groupings and
    aggregate subsets) at the single Figure 4 SMA set and report how
    many the planner serves from SMAs and the aggregate speedup.  A data
    cube built for Query 1 alone can serve none of the shifted-range
    variants (its dimensions fix the answerable selections).
    """
    from repro.core.aggregates import average
    from repro.query.query import AggregateQuery, OutputAggregate
    from repro.tpcd.distributions import END_INT, START_INT

    rng = np.random.default_rng(seed)
    with ScratchCatalog(buffer_pages=256) as catalog:
        loaded = load_lineitem(
            catalog, scale_factor=scale_factor, clustering="sorted"
        )
        session = Session(catalog, disk)
        pool_of_aggregates = [
            OutputAggregate("SUM_QTY", total(col("L_QUANTITY"))),
            OutputAggregate("AVG_DISC", average(col("L_DISCOUNT"))),
            OutputAggregate("SUM_BASE", total(col("L_EXTENDEDPRICE"))),
            OutputAggregate("N", count_star()),
        ]
        served = 0
        speedups = []
        rows = []
        for i in range(num_queries):
            cutoff = int_to_date(int(rng.integers(START_INT, END_INT)))
            op = str(rng.choice(["<", "<=", ">", ">="]))
            chosen = rng.choice(
                len(pool_of_aggregates), size=rng.integers(1, 4), replace=False
            )
            query = AggregateQuery(
                table="LINEITEM",
                aggregates=tuple(pool_of_aggregates[j] for j in sorted(chosen)),
                where=cmp("L_SHIPDATE", op, cutoff),
                group_by=("L_RETURNFLAG", "L_LINESTATUS"),
            )
            auto = session.execute(query, cold=True)
            scan = session.execute(query, mode="scan", cold=True)
            if auto.plan.strategy == "sma_gaggr":
                served += 1
            speedups.append(
                scan.simulated_seconds / max(auto.simulated_seconds, 1e-12)
            )
            if i < 5:  # show a sample of the batch
                rows.append(
                    (
                        f"L_SHIPDATE {op} {cutoff}",
                        len(query.aggregates),
                        auto.plan.strategy,
                        f"{speedups[-1]:.1f}x",
                    )
                )
        rows.append(
            (
                f"... {num_queries} ad-hoc queries total",
                "-",
                f"{served}/{num_queries} SMA-served",
                f"geomean {float(np.exp(np.log(speedups).mean())):.1f}x",
            )
        )
        metrics = {
            "fraction_served": served / num_queries,
            "geomean_speedup": float(np.exp(np.log(speedups).mean())),
            "min_speedup": float(min(speedups)),
        }
    return ExperimentResult(
        exp_id="X7",
        title=f"Versatility: one Figure 4 SMA set vs {num_queries} ad-hoc queries",
        headers=["query", "#aggs", "plan", "speedup (sim)"],
        rows=rows,
        paper_reference="Section 2.3 (flexibility vs data cubes)",
        notes=[
            "a Query-1 data cube answers only its own fixed selection "
            "dimensions; the SMA set serves every shifted variant",
        ],
        metrics=metrics,
    )


def exp_bitmap_vs_sma(
    scale_factor: float = 0.01, disk: DiskModel = PAPER_DISK
) -> ExperimentResult:
    """Bitmaps vs count-SMAs on a low-cardinality predicate (intro, [15]).

    Both answer ``COUNT(*) WHERE L_RETURNFLAG = 'R'`` without touching
    the relation; only SMAs also answer the SUM variant from
    materialized aggregates, while the bitmap must fetch every matching
    tuple.
    """
    from repro.baselines.bitmap import BitmapIndex
    from repro.lang.predicate import CmpOp

    with ScratchCatalog(buffer_pages=512) as catalog:
        definitions = [
            SmaDefinition("cnt_rf", "LINEITEM", count_star(), ("L_RETURNFLAG",)),
            SmaDefinition(
                "qty_rf", "LINEITEM", total(col("L_QUANTITY")), ("L_RETURNFLAG",)
            ),
        ]
        loaded = load_lineitem(
            catalog, scale_factor=scale_factor, clustering="sorted",
            sma_definitions=definitions, sma_set_name="rf",
        )
        table = loaded.table
        bitmap = BitmapIndex.build(
            table, "L_RETURNFLAG", os.path.join(catalog.root_dir, "rf.bmp")
        )

        # COUNT via bitmap: popcount, no relation access.
        catalog.go_cold()
        before = catalog.stats.snapshot()
        bitmap_count = bitmap.count(CmpOp.EQ, b"R")
        bitmap_stats = catalog.stats.snapshot() - before

        # COUNT via count-SMA: sum one group's per-bucket counts.
        catalog.go_cold()
        before = catalog.stats.snapshot()
        count_files = loaded.sma_set.files_of("cnt_rf")
        sma_count = int(count_files[("R",)].values().sum())
        sma_count_stats = catalog.stats.snapshot() - before
        assert bitmap_count == sma_count

        # SUM(L_QUANTITY) via sum-SMA: materialized; bitmap needs the
        # base tuples (positions -> scattered bucket fetches).
        catalog.go_cold()
        before = catalog.stats.snapshot()
        sma_sum = float(
            loaded.sma_set.files_of("qty_rf")[("R",)].values().sum()
        )
        sma_sum_stats = catalog.stats.snapshot() - before

        catalog.go_cold()
        before = catalog.stats.snapshot()
        positions = bitmap.positions(CmpOp.EQ, b"R")
        per_bucket = table.layout.tuples_per_bucket
        stats = catalog.stats
        bitmap_sum = 0.0
        for bucket_no in np.unique(positions // per_bucket):
            records = table.read_bucket(int(bucket_no))
            stats.buckets_fetched += 1
            stats.tuples_scanned += len(records)
            mask = records["L_RETURNFLAG"] == b"R"
            bitmap_sum += float(records["L_QUANTITY"][mask].sum())
        bitmap_sum_stats = catalog.stats.snapshot() - before
        assert bitmap_sum == pytest_approx(sma_sum)

        rows = [
            (
                "COUNT via bitmap popcount",
                human_seconds(disk.seconds(bitmap_stats)),
                bitmap_stats.buckets_fetched,
                bitmap_count,
            ),
            (
                "COUNT via count-SMA",
                human_seconds(disk.seconds(sma_count_stats)),
                sma_count_stats.buckets_fetched,
                sma_count,
            ),
            (
                "SUM via sum-SMA (materialized)",
                human_seconds(disk.seconds(sma_sum_stats)),
                sma_sum_stats.buckets_fetched,
                round(sma_sum, 2),
            ),
            (
                "SUM via bitmap + tuple fetch",
                human_seconds(disk.seconds(bitmap_sum_stats)),
                bitmap_sum_stats.buckets_fetched,
                round(bitmap_sum, 2),
            ),
        ]
        metrics = {
            "count_parity": disk.seconds(bitmap_stats)
            / max(disk.seconds(sma_count_stats), 1e-12),
            "sum_advantage": disk.seconds(bitmap_sum_stats)
            / max(disk.seconds(sma_sum_stats), 1e-12),
            "bitmap_bytes": float(bitmap.size_bytes),
            "sma_bytes": float(loaded.sma_set.total_bytes),
        }
    return ExperimentResult(
        exp_id="X6",
        title="Bitmap index vs SMAs on a low-cardinality attribute",
        headers=["strategy", "simulated", "buckets fetched", "answer"],
        rows=rows,
        paper_reference="Section 1 (bitmaps [15] among applied index structures)",
        notes=[
            "bitmaps locate tuples, SMAs answer aggregates: counts tie, "
            "sums need no base access with SMAs",
        ],
        metrics=metrics,
    )


def pytest_approx(value: float, rel: float = 1e-9):
    """Tiny local stand-in to avoid importing pytest in library code."""

    class _Approx:
        def __eq__(self, other: object) -> bool:
            return abs(float(other) - value) <= rel * max(abs(value), 1.0)

    return _Approx()


def exp_scaling_linearity(
    scale_factors: tuple[float, ...] = (0.01, 0.02, 0.04),
    disk: DiskModel = PAPER_DISK,
) -> ExperimentResult:
    """Creation and query costs are linear in the bucket count.

    "Since creation and query processing times are also linear in the
    number of buckets, it suffices to give the performance for a single
    sufficiently large database" (Section 2.4) — the claim that also
    justifies this reproduction's SF=1 projections.  We measure Q1 and
    the SMA build at three scales and fit cost = a·buckets + b.
    """
    buckets: list[float] = []
    scan_costs: list[float] = []
    sma_costs: list[float] = []
    build_costs: list[float] = []
    rows = []
    for scale_factor in scale_factors:
        with ScratchCatalog(buffer_pages=256) as catalog:
            loaded = load_lineitem(
                catalog, scale_factor=scale_factor, clustering="sorted"
            )
            build_stats = IoStats()
            for report in loaded.build_reports:
                build_stats.merge(report.stats)
            session = Session(catalog, disk)
            query = query1()
            result_scan = session.execute(query, mode="scan", cold=True)
            result_sma = session.execute(query, mode="sma", cold=True)
            buckets.append(float(loaded.table.num_buckets))
            scan_costs.append(result_scan.simulated_seconds)
            sma_costs.append(result_sma.simulated_seconds)
            build_costs.append(disk.seconds(build_stats))
            rows.append(
                (
                    scale_factor,
                    loaded.table.num_buckets,
                    human_seconds(scan_costs[-1]),
                    human_seconds(sma_costs[-1]),
                    human_seconds(build_costs[-1]),
                )
            )

    def r_squared(ys: list[float]) -> float:
        xs = np.asarray(buckets)
        ys_arr = np.asarray(ys)
        slope, intercept = np.polyfit(xs, ys_arr, 1)
        predicted = slope * xs + intercept
        residual = ((ys_arr - predicted) ** 2).sum()
        total_var = ((ys_arr - ys_arr.mean()) ** 2).sum()
        return 1.0 - residual / total_var if total_var else 1.0

    metrics = {
        "r2_scan": r_squared(scan_costs),
        "r2_sma": r_squared(sma_costs),
        "r2_build": r_squared(build_costs),
    }
    return ExperimentResult(
        exp_id="X5",
        title="Linearity in the number of buckets",
        headers=["SF", "buckets", "Q1 scan (sim)", "Q1 SMA cold (sim)", "build (sim)"],
        rows=rows,
        paper_reference="Section 2.4 (scaling argument)",
        notes=["r² of the linear fits should be ~1.0, validating the "
               "SF=1 projections used throughout EXPERIMENTS.md"],
        metrics=metrics,
    )


#: Every experiment by its id, in the DESIGN.md index order — drives
#: ``repro bench --only`` and the full evaluation run.
ALL_EXPERIMENTS = {
    "E1": exp_sma_creation,
    "E2": exp_space_overhead,
    "E3": exp_datacube_space,
    "E4": exp_query1_speedup,
    "F5": exp_breakeven_sweep,
    "F2": exp_diagonal_distribution,
    "E5": exp_sma_file_ratio,
    "E7": exp_hierarchical,
    "E8": exp_semijoin,
    "E9": exp_maintenance,
    "E10": exp_bucket_size,
    "X1": exp_query6,
    "X2": exp_btree_uselessness,
    "X3": exp_modern_hardware,
    "X4": exp_projection_index,
    "X6": exp_bitmap_vs_sma,
    "X5": exp_scaling_linearity,
    "X7": exp_versatility,
}
