"""Plain-text table rendering.

``repro paper`` prints the regenerated tables in the same row/column
layout the paper uses; keeping the renderer dependency-free (no tabulate, no
pandas) keeps the repository runnable in the offline evaluation environment.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Union

__all__ = ["format_table", "format_resource_table"]

Cell = Union[str, int, float, None]


def _to_text(value: Cell) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        if value == int(value) and abs(value) < 1e12:
            return f"{int(value):,}"
        return f"{value:.2f}"
    if isinstance(value, int):
        return f"{value:,}"
    return str(value)


def format_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[Cell]],
    title: Optional[str] = None,
) -> str:
    """Render a list of rows as an aligned ASCII table (no line ends in a
    blank)."""
    text_rows: List[List[str]] = [[_to_text(cell) for cell in row] for row in rows]
    widths = [len(str(header)) for header in headers]
    for row in text_rows:
        if len(row) != len(headers):
            raise ValueError(
                f"row has {len(row)} cells but there are {len(headers)} headers"
            )
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))

    def render_row(cells: Sequence[str]) -> str:
        return " | ".join(cell.rjust(widths[i]) if i else cell.ljust(widths[i]) for i, cell in enumerate(cells))

    separator = "-+-".join("-" * width for width in widths)
    lines: List[str] = []
    if title:
        lines.append(title)
        lines.append("=" * len(title))
    lines.append(render_row([str(h) for h in headers]))
    lines.append(separator)
    lines.extend(render_row(row) for row in text_rows)
    return "\n".join(line.rstrip() for line in lines)


def format_resource_table(
    rows: Iterable,
    title: Optional[str] = None,
) -> str:
    """Render :class:`~repro.metrics.area.Table1Row` objects in Table I layout:
    the five resource columns, then each row's overhead sets on their own
    labelled lines."""
    headers = ["component", "Slice Regs", "Slice LUTs", "LUT-FF pairs", "BRAMs"]
    body: List[List[Cell]] = []
    notes: List[str] = []
    for row in rows:
        vector = row.resources
        body.append(
            [
                row.label,
                int(vector.slice_registers),
                int(vector.slice_luts),
                int(vector.lut_ff_pairs),
                int(vector.brams),
            ]
        )
        for kind, percent in (
            ("computed from the rows", row.overhead_percent),
            ("printed in the paper", row.paper_overhead_percent),
        ):
            if percent:
                notes.append(f"{row.label} overhead {kind}: {_overheads(percent)}")
    table = format_table(headers, body, title=title)
    return "\n".join([table, "", *notes]) if notes else table


def _overheads(percent: Dict[str, float]) -> str:
    return ", ".join(f"{name.replace('_', ' ')}: +{value:.2f}%" for name, value in percent.items())
