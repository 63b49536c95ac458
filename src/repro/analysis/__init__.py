"""Reporting helpers: ASCII tables, architecture reports, paper comparison,
and cross-scenario comparison tables over stored sweep results."""

from repro.analysis.tables import format_table, format_resource_table
from repro.analysis.report import (
    ArchitectureReport,
    PaperComparison,
    render_table1,
    render_table2,
)
from repro.analysis.compare import (
    comparison_report,
    render_area,
    render_detection,
    render_hop_latency,
    render_placement,
)

__all__ = [
    "format_table",
    "format_resource_table",
    "ArchitectureReport",
    "PaperComparison",
    "render_table1",
    "render_table2",
    "comparison_report",
    "render_area",
    "render_detection",
    "render_hop_latency",
    "render_placement",
]
