"""Plain-text rendering of tables.

The benchmark harness reproduces the paper's figures as printed series:
each bench prints the same rows/bars the paper plots, so a reader can
compare shapes side by side with the paper.  This helper keeps that
output consistent.
"""

from __future__ import annotations

from typing import Optional, Sequence


def format_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    title: Optional[str] = None,
) -> str:
    """Render an aligned ASCII table."""
    columns = len(headers)
    for row in rows:
        if len(row) != columns:
            raise ValueError("row width does not match headers")
    cells = [[str(header) for header in headers]] + [
        [_format_cell(value) for value in row] for row in rows
    ]
    widths = [max(len(row[i]) for row in cells) for i in range(columns)]
    lines = []
    if title:
        lines.append(title)
    separator = "-+-".join("-" * width for width in widths)
    lines.append(" | ".join(h.ljust(w) for h, w in zip(cells[0], widths)))
    lines.append(separator)
    for row in cells[1:]:
        lines.append(" | ".join(cell.ljust(w) for cell, w in zip(row, widths)))
    return "\n".join(lines)


def _format_cell(value: object) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 100:
            return f"{value:,.0f}"
        if abs(value) >= 1:
            return f"{value:.2f}"
        return f"{value:.4f}"
    if isinstance(value, int):
        return f"{value:,}"
    return str(value)
