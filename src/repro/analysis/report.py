"""Plain-text table rendering for experiment output.

All benches and examples print their results through :func:`format_table` so
the reproduction's output is uniform and easy to diff against EXPERIMENTS.md.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence


def _render_cell(value) -> str:
    if isinstance(value, float):
        return "%.3f" % value
    return str(value)


def format_table(
    rows: Sequence[Dict[str, object]],
    columns: Optional[Sequence[str]] = None,
    title: Optional[str] = None,
) -> str:
    """Render ``rows`` (dictionaries) as an aligned plain-text table.

    ``columns`` fixes the column order; by default the keys of the first row
    are used.  Missing values render as empty cells.
    """
    if not rows:
        return (title + "\n" if title else "") + "(no rows)"
    if columns is None:
        columns = list(rows[0].keys())

    rendered: List[List[str]] = [[str(col) for col in columns]]
    for row in rows:
        rendered.append([_render_cell(row.get(col, "")) for col in columns])

    widths = [max(len(line[i]) for line in rendered) for i in range(len(columns))]
    lines: List[str] = []
    if title:
        lines.append(title)
    header = "  ".join(cell.ljust(width) for cell, width in zip(rendered[0], widths))
    lines.append(header)
    lines.append("  ".join("-" * width for width in widths))
    for line in rendered[1:]:
        lines.append("  ".join(cell.ljust(width) for cell, width in zip(line, widths)))
    return "\n".join(lines)


def format_percent(value: float) -> str:
    """Render a ratio as a percentage string (0.0423 -> '4.2%')."""
    return "%.1f%%" % (100.0 * value)
