"""Benchmark harness and the paper's experiments (E1–E10, F2, F5, X1–X7).

:data:`ALL_EXPERIMENTS` maps each experiment id to its ``exp_*`` function.
"""

from repro.bench.harness import (
    ExperimentResult,
    ScratchCatalog,
    format_table,
    human_bytes,
    human_seconds,
)
from repro.bench.experiments import ALL_EXPERIMENTS

__all__ = [
    "ALL_EXPERIMENTS",
    "ExperimentResult",
    "ScratchCatalog",
    "format_table",
    "human_bytes",
    "human_seconds",
]
