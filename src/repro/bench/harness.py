"""Experiment harness: structured results, paper-style table rendering.

Every experiment in :mod:`repro.bench.experiments` returns an
:class:`ExperimentResult` — machine-checkable rows plus human-readable
rendering — so the same code drives pytest assertions, the
pytest-benchmark targets, and the EXPERIMENTS.md regeneration.
"""

from __future__ import annotations

import re
import shutil
import tempfile
from dataclasses import dataclass, field
from typing import Callable

from repro.storage.catalog import Catalog
# human_* are not used below: the bench modules, tests/bench and examples/
# import all three formatters from the harness.
from repro.textfmt import format_table, human_bytes, human_seconds  # noqa: F401

#: latency-percentile metric names: ``p50``, ``p95_s4``, ``read_p99_x`` ...
_PERCENTILE_RE = re.compile(r"(?:^|_)p\d{1,3}(?:_|$)")


def metric_unit(name: str) -> str:
    """Canonical unit for a benchmark metric, from its naming convention.

    The BENCH_*.json artifacts label every metric with a unit so CI
    dashboards don't have to guess.  Time is always ``"seconds"`` —
    including latency percentiles (``p50_s4``), which name a duration
    even when the suffix encodes a shard count rather than seconds.
    Dimensionless tallies (batch/row/epoch counters) are ``"count"``;
    only a genuinely unit-less metric falls through to ``"value"``.
    """
    if name.startswith("qps") or "_qps" in name:
        return "queries/s"
    if "speedup" in name or name.endswith("_ratio"):
        return "x"
    if "rate" in name or "fraction" in name:
        return "fraction"
    if "bytes" in name:
        return "bytes"
    if (
        "wall" in name
        or "seconds" in name
        or "latency" in name
        or name.endswith("_s")
        or _PERCENTILE_RE.search(name)
    ):
        return "seconds"
    if (
        "completed" in name
        or "batches" in name
        or "rows" in name
        or "epoch" in name
        or name.startswith("num_")
        or name.endswith("_count")
    ):
        return "count"
    return "value"


@dataclass
class ExperimentResult:
    """One reproduced table or figure."""

    exp_id: str
    title: str
    headers: list[str]
    rows: list[tuple]
    paper_reference: str = ""
    notes: list[str] = field(default_factory=list)
    metrics: dict[str, float] = field(default_factory=dict)

    def render(self) -> str:
        lines = [f"== {self.exp_id}: {self.title} =="]
        if self.paper_reference:
            lines.append(f"paper: {self.paper_reference}")
        lines.append(format_table(self.headers, self.rows))
        for note in self.notes:
            lines.append(f"note: {note}")
        if self.metrics:
            rendered = ", ".join(
                f"{name}={value:.4g}" for name, value in sorted(self.metrics.items())
            )
            lines.append(f"metrics: {rendered}")
        return "\n".join(lines)

    def metric(self, name: str) -> float:
        try:
            return self.metrics[name]
        except KeyError:
            raise KeyError(
                f"experiment {self.exp_id} has no metric {name!r}; "
                f"have {sorted(self.metrics)}"
            ) from None


class ScratchCatalog:
    """A temporary-directory catalog that cleans up after itself."""

    def __init__(self, *, buffer_pages: int = 8192):
        self._dir = tempfile.mkdtemp(prefix="repro-bench-")
        self.catalog = Catalog(self._dir, buffer_pages=buffer_pages)

    def __enter__(self) -> Catalog:
        return self.catalog

    def __exit__(self, *exc_info: object) -> None:
        self.catalog.close()
        shutil.rmtree(self._dir, ignore_errors=True)


def run_and_render(experiment: Callable[[], ExperimentResult]) -> ExperimentResult:
    """Run one experiment and print its rendering (for -s bench runs)."""
    result = experiment()
    print()
    print(result.render())
    return result
