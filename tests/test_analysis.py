"""Tests for the table renderer, architecture report and comparison records."""

import pytest

from repro.analysis.report import (
    ArchitectureReport,
    PaperComparison,
    render_table1,
    render_table2,
)
from repro.analysis.tables import format_resource_table, format_table
from repro.core.secure import attach_security
from repro.metrics.area import generate_table1
from repro.metrics.latency import Table2Row
from repro.scenarios import ScenarioBuilder
from repro.scenarios.plan import build_plan

from tests.conftest import figure1_spec


class TestFormatTable:
    def test_basic_layout(self):
        text = format_table(["name", "value"], [["alpha", 1], ["beta", 22]])
        lines = text.splitlines()
        assert lines[0].startswith("name")
        assert "-+-" in lines[1]
        assert "alpha" in lines[2] and "22" in lines[3]

    def test_title(self):
        text = format_table(["a"], [[1]], title="My table")
        assert text.splitlines()[0] == "My table"
        assert text.splitlines()[1] == "========"

    def test_none_rendered_as_dash(self):
        text = format_table(["a", "b"], [[None, 1.5]])
        assert "-" in text.splitlines()[-1]
        assert "1.50" in text

    def test_thousands_separator_for_ints(self):
        text = format_table(["n"], [[123456]])
        assert "123,456" in text

    def test_row_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            format_table(["a", "b"], [[1]])

    def test_resource_table_from_table1_rows(self):
        text = format_resource_table(generate_table1(), title="Table I")
        assert "Generic w/o firewalls" in text
        assert "12,895" in text
        header = [cell.strip() for cell in text.splitlines()[2].split("|")]
        assert header == ["component", "Slice Regs", "Slice LUTs", "LUT-FF pairs", "BRAMs"]
        assert text.splitlines()[-2:] == [
            "Generic w/ firewalls overhead computed from the rows: slice registers: +22.78%, "
            "slice luts: +70.42%, lut ff pairs: +39.15%, brams: +18.87%",
            "Generic w/ firewalls overhead printed in the paper: slice registers: +13.43%, "
            "slice luts: +34.40%, lut ff pairs: +26.50%, brams: +18.87%",
        ]

    def test_no_line_ends_in_a_blank(self):
        text = format_table(["name"], [["a"], ["a longer name"]], title="t")
        assert text.splitlines()[2:] == ["name", "-------------", "a", "a longer name"]


class TestRenderers:
    def test_render_table1_contains_all_rows(self):
        text = render_table1(generate_table1())
        for label in ("Generic w/o", "Generic w/", "SB", "CC", "IC", "Local Firewall"):
            assert label in text

    def test_render_table2(self):
        rows = [
            Table2Row("SB (LF/LCF)", 12.0, 12, None, None, 10),
            Table2Row("CC", 11.0, 11, 1163.6, 450.0, 4),
        ]
        text = render_table2(rows)
        assert "SB (LF/LCF)" in text and "1163.60" in text and "450" in text


class TestPaperComparison:
    def test_relative_error_and_match(self):
        comparison = PaperComparison("x", paper_value=100.0, measured_value=103.0)
        assert comparison.relative_error == pytest.approx(0.03)
        assert comparison.matches(tolerance=0.05)
        assert not comparison.matches(tolerance=0.01)

    def test_zero_paper_value(self):
        assert PaperComparison("x", 0.0, 0.0).relative_error == 0.0
        assert PaperComparison("x", 0.0, 1.0).relative_error == float("inf")


class TestArchitectureReport:
    def test_render_unprotected_vs_protected(self):
        builder = ScenarioBuilder(figure1_spec())
        system = builder.build(protected=False).system
        unprotected = ArchitectureReport(system.describe_topology())
        assert unprotected.firewall_count() == 0
        assert "(no firewall)" in unprotected.render()

        attach_security(system, build_plan(builder.spec))
        protected = ArchitectureReport(system.describe_topology())
        assert protected.firewall_count() == len(system.master_ports) + len(system.slave_ports)
        rendered = protected.render()
        assert "LocalFirewall" in rendered
        assert "LocalCipheringFirewall" in rendered
        assert "external" in rendered
        # All three regions of the memory map are listed.
        for region in ("bram", "ip0_regs", "ddr"):
            assert region in rendered
