"""Pure text formatters shared by the CLI, the service report and the
experiment harness — no imports from the rest of the package, so the
engine never reaches into :mod:`repro.bench` for string formatting."""

from __future__ import annotations


def human_bytes(size: float) -> str:
    """Render a byte count with a binary-unit suffix."""
    value = float(size)
    for unit in ("B", "KiB", "MiB", "GiB", "TiB"):
        if abs(value) < 1024 or unit == "TiB":
            return f"{value:.2f} {unit}"
        value /= 1024
    raise AssertionError  # pragma: no cover


def human_seconds(seconds: float) -> str:
    """Render a duration compactly."""
    if seconds >= 100:
        return f"{seconds:.0f} s"
    if seconds >= 1:
        return f"{seconds:.2f} s"
    return f"{seconds * 1000:.2f} ms"


def format_table(headers: list[str], rows: list[tuple]) -> str:
    """Monospace-aligned table, right-aligning numeric-looking cells."""
    cells = [[str(value) for value in row] for row in rows]
    widths = [
        max(len(headers[i]), *(len(row[i]) for row in cells)) if cells else len(headers[i])
        for i in range(len(headers))
    ]

    def is_numeric(text: str) -> bool:
        stripped = text.replace(",", "").replace("%", "").replace("x", "")
        stripped = stripped.replace(" s", "").replace(" ms", "")
        for unit in (" B", " KiB", " MiB", " GiB", " TiB"):
            stripped = stripped.replace(unit, "")
        try:
            float(stripped)
            return True
        except ValueError:
            return False

    def render_row(row: list[str]) -> str:
        parts = []
        for i, text in enumerate(row):
            if is_numeric(text):
                parts.append(text.rjust(widths[i]))
            else:
                parts.append(text.ljust(widths[i]))
        return "  ".join(parts).rstrip()

    lines = [render_row(headers), "  ".join("-" * w for w in widths)]
    lines.extend(render_row(row) for row in cells)
    return "\n".join(lines)
