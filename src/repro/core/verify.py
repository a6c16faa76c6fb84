"""Offline integrity verification and repair (``repro verify``).

SMA-files are *derived* data: everything in them can be recomputed from
the heap.  So the verifier's contract is asymmetric —

* heap pages are ground truth: a page failing its CRC is reported as
  **unrepairable** (restore from backup; we will not guess at bytes),
  and the table's SMA sets are neither recomputed nor rebuilt, because
  both would read the damaged page;
* SMA damage of any kind (bad body checksum, truncated file, entry
  count drifting from the bucket count, values disagreeing with a fresh
  recompute) is **repairable**: ``--repair`` rebuilds the definition
  from the heap via the bulkload path and re-verifies it.

Verification recomputes every definition with the same accumulator the
builder uses, so "verified" means *byte-for-byte what a fresh build
would produce*, not merely "checksums match".
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.builder import (
    absent_entries,
    accumulate,
    changed_entries,
    materialize,
)
from repro.errors import ChecksumError
from repro.storage.catalog import Catalog

__all__ = ["VerifyIssue", "VerifyReport", "verify_catalog"]


@dataclass
class VerifyIssue:
    """One detected integrity problem."""

    kind: str  #: heap_page | heap_intent | sma_corrupt | sma_content
    table: str
    target: str  #: file path or definition name the issue is about
    detail: str
    repairable: bool
    repaired: bool = False

    def render(self) -> str:
        if self.repaired:
            status = "REPAIRED"
        elif self.repairable:
            status = "repairable"
        else:
            status = "UNREPAIRABLE"
        return (
            f"[{status}] {self.kind} {self.table}/{self.target}: {self.detail}"
        )


@dataclass
class VerifyReport:
    """Everything one ``verify_catalog`` pass found (and fixed)."""

    issues: list[VerifyIssue] = field(default_factory=list)
    tables_checked: int = 0
    heap_pages_checked: int = 0
    sma_files_checked: int = 0
    definitions_checked: int = 0
    #: Tables whose SMA sets were skipped because a heap page is damaged.
    sma_unchecked: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True when nothing is outstanding (clean, or fully repaired)."""
        return all(issue.repaired for issue in self.issues)

    @property
    def repaired_count(self) -> int:
        return sum(1 for issue in self.issues if issue.repaired)

    def render(self) -> str:
        lines = [
            f"checked {self.tables_checked} table(s), "
            f"{self.heap_pages_checked} heap page(s), "
            f"{self.definitions_checked} SMA definition(s), "
            f"{self.sma_files_checked} SMA-file(s)"
        ]
        for issue in self.issues:
            lines.append(issue.render())
        for table in self.sma_unchecked:
            lines.append(
                f"SMA sets of {table} not checked: its heap has damaged pages"
            )
        if not self.issues:
            lines.append("no integrity issues found")
        elif self.ok:
            lines.append(f"all {len(self.issues)} issue(s) repaired")
        else:
            outstanding = len(self.issues) - self.repaired_count
            lines.append(f"{outstanding} issue(s) outstanding")
        return "\n".join(lines)


def _emit(events, issue: VerifyIssue) -> None:
    if events is not None:
        events.emit(
            "verify_issue",
            kind=issue.kind,
            table=issue.table,
            target=issue.target,
            detail=issue.detail,
            repairable=issue.repairable,
            repaired=issue.repaired,
        )


def _verify_intents(
    catalog: Catalog, report: VerifyReport, events, *, repair: bool
) -> None:
    """Settle pending write-ahead intents before anything else runs.

    A pending intent sidecar means a DML batch died between its intent
    append and retire.  Resolution must precede the heap sweep (an
    interrupted insert's torn trailing page would otherwise be reported
    as an unrepairable CRC failure — rolling back restores the clean
    pre-image) and the SMA recompute (which must compare against the
    settled heap).
    """
    from repro.storage.intents import intent_path, load_intent, resolve_intent

    for table in catalog.tables():
        intent = load_intent(table.heap.path)
        if intent is None:
            continue
        issue = VerifyIssue(
            kind="heap_intent",
            table=table.name,
            target=intent_path(table.heap.path),
            detail=(
                f"pending {intent.op} intent at epoch {intent.epoch} "
                f"({intent.before_buckets}->{intent.after_buckets} buckets)"
            ),
            repairable=True,
        )
        report.issues.append(issue)
        if repair:
            action = resolve_intent(table.heap, intent)
            if (
                action == "replayed"
                and catalog.ingest_epoch(table.name) < intent.epoch
            ):
                catalog.bump_ingest_epoch(table.name)
            issue.repaired = True
            issue.detail += f" — {action}"
            catalog.integrity.record_intent_resolution(
                table=table.name,
                op=intent.op,
                epoch=intent.epoch,
                action=action,
            )
            if events is not None:
                events.emit(
                    "intent_replayed",
                    table=table.name,
                    op=intent.op,
                    epoch=intent.epoch,
                    action=action,
                )
        _emit(events, issue)


def _verify_heap(catalog: Catalog, report: VerifyReport, events) -> None:
    for table in catalog.tables():
        heap = table.heap
        for page_no in range(heap.num_pages):
            report.heap_pages_checked += 1
            try:
                heap.read_page_raw(page_no)
            except ChecksumError as exc:
                issue = VerifyIssue(
                    kind="heap_page",
                    table=table.name,
                    target=f"{heap.path}:{page_no}",
                    detail=str(exc),
                    repairable=False,
                )
                report.issues.append(issue)
                _emit(events, issue)
                if table.name not in report.sma_unchecked:
                    report.sma_unchecked.append(table.name)


def _compare_definition(
    table, definition, files, accumulator
) -> str | None:
    """Why *files* differ from a fresh recompute, or None when they agree."""
    expected = accumulator.file_groups()
    num_buckets = table.num_buckets
    for key, sma in files.items():
        if sma.num_entries != num_buckets:
            return (
                f"group {key!r} has {sma.num_entries} entries, "
                f"table has {num_buckets} buckets"
            )
        if key in expected:
            continue
        # The maintainer can leave behind a group whose entries were all
        # withdrawn.  It contributes nothing to any query, so a file a
        # fresh build would not create is fine while it reads as absent.
        absent = absent_entries(
            definition.aggregate.kind, accumulator.value_dtype, num_buckets
        )
        if changed_entries(sma, 0, *absent).size:
            return f"group {key!r} holds data but no heap tuple produces it"
    for key, (exp_values, exp_valid) in expected.items():
        sma = files.get(key)
        if sma is None:
            return f"group {key!r} is missing"
        changed = changed_entries(sma, 0, exp_values, exp_valid)
        if changed.size:
            return (
                f"group {key!r} differs from recompute in {changed.size} "
                f"entries (first: bucket {changed[0]})"
            )
    return None


def _verify_sma_sets(
    catalog: Catalog, report: VerifyReport, events, *, repair: bool
) -> None:
    from repro.errors import SmaIntegrityError

    for table in catalog.tables():
        report.tables_checked += 1
        if table.name in report.sma_unchecked:
            # A recompute or rebuild reads every heap page and would
            # raise on the damaged one.
            continue
        for sma_set in catalog.sma_sets(table.name):
            definitions = list(sma_set.definitions.values())
            if not definitions:
                continue
            accumulators = accumulate(table, definitions)
            to_rebuild: list[str] = []
            for definition in definitions:
                report.definitions_checked += 1
                files = sma_set.files_of(definition.name)
                report.sma_files_checked += len(files)
                detail: str | None = None
                kind = "sma_content"
                corrupt = [
                    sma for sma in files.values() if sma.is_corrupt
                ]
                if corrupt:
                    kind = "sma_corrupt"
                    detail = "; ".join(
                        str(sma.corrupt_reason) for sma in corrupt
                    )
                else:
                    try:
                        detail = _compare_definition(
                            table,
                            definition,
                            files,
                            accumulators[definition.name],
                        )
                    except SmaIntegrityError as exc:
                        kind = "sma_corrupt"
                        detail = str(exc)
                if detail is None:
                    continue
                issue = VerifyIssue(
                    kind=kind,
                    table=table.name,
                    target=f"{sma_set.name}/{definition.name}",
                    detail=detail,
                    repairable=True,
                )
                report.issues.append(issue)
                if repair:
                    to_rebuild.append(definition.name)
                    issue.repaired = True  # rebuilt + re-verified below
                _emit(events, issue)
            if repair and to_rebuild:
                _rebuild(catalog, table, sma_set, to_rebuild, report, events)


def _rebuild(
    catalog: Catalog, table, sma_set, names: list[str], report, events
) -> None:
    """Rebuild *names* from the heap, swap them in, re-verify."""
    for name in names:
        definition = sma_set.definitions[name]
        old_files = sma_set.files_of(name)
        page_size = next(
            (sma.page_size for sma in old_files.values()),
            table.layout.page_size,
        )
        for sma in old_files.values():
            sma.delete_files()
        accumulator = accumulate(table, [definition])[name]
        files = materialize(sma_set, accumulator, page_size)
        sma_set.replace_files(name, files)
        detail = _compare_definition(table, definition, files, accumulator)
        if detail is not None:  # pragma: no cover - rebuild must verify
            for issue in report.issues:
                if issue.target.endswith(f"/{name}"):
                    issue.repaired = False
            continue
        catalog.integrity.record_repair(
            table=table.name, sma_set=sma_set.name, definition=name
        )
        if events is not None:
            events.emit(
                "verify_repair",
                table=table.name,
                sma_set=sma_set.name,
                definition=name,
            )
    sma_set.save()


def verify_catalog(
    catalog: Catalog, *, repair: bool = False, events=None
) -> VerifyReport:
    """Sweep every heap page and SMA definition of *catalog*.

    Pending write-ahead intents are settled first (with ``repair=True``
    they are replayed or rolled back, restoring a clean epoch boundary).
    With ``repair=True``, every SMA issue is rebuilt in place; heap pages
    failing their CRC are ground truth and stay unrepairable, and their
    table's SMA sets are left unchecked and untouched.
    """
    report = VerifyReport()
    _verify_intents(catalog, report, events, repair=repair)
    _verify_heap(catalog, report, events)
    _verify_sma_sets(catalog, report, events, repair=repair)
    return report
