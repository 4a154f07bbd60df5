"""Horizontal bar charts for the figure benchmarks, in the cell format
of ``repro.analysis.tables``."""

from __future__ import annotations

from typing import Mapping, Optional

from repro.analysis.tables import _format_cell


def bar_chart(
    data: Mapping[str, float],
    width: int = 50,
    unit: str = "",
    title: Optional[str] = None,
) -> str:
    """Render a horizontal bar chart with proportional bars."""
    if not data:
        raise ValueError("no data")
    peak = max(data.values())
    label_width = max(len(label) for label in data)
    lines = []
    if title:
        lines.append(title)
    for label, value in data.items():
        length = 0 if peak == 0 else int(round(width * value / peak))
        bar = "#" * length
        lines.append(
            f"{label.ljust(label_width)} | {bar} {_format_cell(value)}{unit}"
        )
    return "\n".join(lines)
