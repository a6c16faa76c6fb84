"""Experiment harness: structured results, paper-style table rendering.

Every experiment in :mod:`repro.bench.experiments` returns an
:class:`ExperimentResult` — machine-checkable rows plus human-readable
rendering — so the same code drives pytest assertions, ``repro bench``
and the EXPERIMENTS.md regeneration.
"""

from __future__ import annotations

import shutil
import tempfile
from dataclasses import dataclass, field

from repro.storage.catalog import Catalog
# human_* are not used below: experiments.py, tests/bench and examples/
# import all three formatters from the harness.
from repro.textfmt import format_table, human_bytes, human_seconds  # noqa: F401


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

