"""Plain-text table/series formatting for experiment output.

Every benchmark prints the rows/series the corresponding paper figure
or table reports, through these helpers, so ``pytest benchmarks/ -s``
doubles as a results report.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence


def geomean(values: Iterable[float]) -> float:
    """Geometric mean, the paper's aggregate for speedups."""
    values = [v for v in values]
    if not values:
        return 0.0
    if any(v <= 0 for v in values):
        raise ValueError("geometric mean needs positive values")
    return math.exp(sum(math.log(v) for v in values) / len(values))


def format_cell(value) -> str:
    if isinstance(value, float):
        if value != 0 and abs(value) < 0.01:
            return f"{value:.4f}"
        return f"{value:,.2f}"
    return str(value)


def format_table(
    headers: Sequence[str], rows: Sequence[Sequence], *, title: str | None = None
) -> str:
    """Render an aligned ASCII table."""
    cells = [[format_cell(c) for c in row] for row in rows]
    widths = [
        max(len(headers[i]), *(len(r[i]) for r in cells)) if cells else len(headers[i])
        for i in range(len(headers))
    ]
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)))
    lines.append("  ".join("-" * w for w in widths))
    for row in cells:
        lines.append("  ".join(row[i].ljust(widths[i]) for i in range(len(row))))
    return "\n".join(lines)
