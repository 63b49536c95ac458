"""Experiment reporting: architecture description (Figure 1), regenerated
tables, and paper-vs-measured comparison records.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

from repro.analysis.tables import format_resource_table, format_table
from repro.metrics.area import Table1Row
from repro.metrics.latency import Table2Row

__all__ = [
    "ArchitectureReport",
    "PaperComparison",
    "render_table1",
    "render_table2",
    "render_experiment",
    "render_verification",
]


@dataclass
class ArchitectureReport:
    """Textual regeneration of the paper's Figure 1 (structural diagram).

    Built from :meth:`repro.soc.system.SoCSystem.describe_topology`, augmented
    with the firewall placement of a secured platform when available.
    """

    topology: Dict[str, object]

    def render(self) -> str:
        lines: List[str] = ["Platform architecture (paper Figure 1)", ""]
        lines.append(f"shared bus: {self.topology['bus']}")
        lines.append("")
        lines.append("bus masters:")
        for name, info in sorted(self.topology["masters"].items()):  # type: ignore[union-attr]
            filters = info["filters"] or ["(no firewall)"]
            lines.append(f"  {name:<10} --[{', '.join(filters)}]--> bus")
        lines.append("")
        lines.append("bus slaves:")
        for name, info in sorted(self.topology["slaves"].items()):  # type: ignore[union-attr]
            filters = info["filters"] or ["(no firewall)"]
            lines.append(f"  bus --[{', '.join(filters)}]--> {name:<10} ({info['device']})")
        lines.append("")
        lines.append("address map:")
        for region in self.topology["regions"]:  # type: ignore[union-attr]
            location = "external" if region["external"] else "on-chip"
            lines.append(
                f"  {region['name']:<10} {region['base']:#010x} .. "
                f"{region['base'] + region['size'] - 1:#010x}  -> {region['slave']} ({location})"
            )
        return "\n".join(lines)

    def firewall_count(self) -> int:
        """Number of interfaces that carry at least one firewall filter."""
        count = 0
        for info in list(self.topology["masters"].values()) + list(self.topology["slaves"].values()):  # type: ignore[union-attr]
            if info["filters"]:
                count += 1
        return count


@dataclass
class PaperComparison:
    """One paper-reported value next to the value this reproduction obtained."""

    metric: str
    paper_value: float
    measured_value: float
    unit: str = ""
    note: str = ""

    @property
    def relative_error(self) -> float:
        """|measured - paper| / |paper| (0 when the paper value is zero and matched)."""
        if self.paper_value == 0:
            return 0.0 if self.measured_value == 0 else float("inf")
        return abs(self.measured_value - self.paper_value) / abs(self.paper_value)

    def matches(self, tolerance: float = 0.05) -> bool:
        """Whether the measured value is within ``tolerance`` of the paper's."""
        return self.relative_error <= tolerance


def render_experiment(result: Dict[str, object]) -> str:
    """Human-readable report for one ``ExperimentResult.to_dict()`` payload.

    Takes the serialized dictionary (not the dataclass) so the analysis layer
    depends only on the stable result schema, never on :mod:`repro.api`.
    """
    lines: List[str] = []
    lines.append(f"Experiment: {result['scenario']} -- {result['description']}")
    lines.append(
        f"  build      : {'protected' if result['protected'] else 'unprotected'}"
        f" ({result['enforcement']}, placement={result['placement']})"
        + (" [reference mode]" if result.get("reference") else "")
    )
    workload = result["workload"]
    lines.append(
        f"  workload   : {workload['operations']} ops/CPU, final cycle "
        f"{workload['final_cycle']}, makespan {workload['makespan']}, "
        f"{workload['events_processed']} kernel events"
    )
    alerts = result.get("alerts")
    if alerts is not None:
        by_violation = ", ".join(f"{k}={v}" for k, v in sorted(alerts["by_violation"].items()))
        lines.append(f"  alerts     : {alerts['total']}" + (f" ({by_violation})" if by_violation else ""))
    security = result.get("security")
    if security is not None:
        counts = security["firewall_counts"]
        lines.append(
            "  firewalls  : "
            + ", ".join(f"{counts[k]} {k}" for k in ("master", "slave", "bridge", "ciphering"))
        )
    per_hop = result["latency"].get("per_hop") or {}
    if per_hop:
        hops = ", ".join(f"{k}={v}" for k, v in sorted(per_hop.items()))
        lines.append(f"  hop cycles : {hops}")
    area = result.get("area")
    if area:
        overhead = area["overhead_vs_baseline"].get("slice_luts", 0.0)
        lines.append(
            f"  area       : {area['resources']['slice_luts']:.0f} LUTs "
            f"(+{100 * float(overhead):.1f}% vs baseline)"
        )
    campaign = result.get("campaign")
    if campaign:
        summary = campaign["summary"]
        lines.append(
            f"  campaign   : {summary['attacks']} attacks, "
            f"{summary['prevented']} prevented, {summary['detected']} detected"
        )
        rows = [
            [row["attack"], row["unprotected"], row["protected"], row["detected"],
             row["contained_at_if"], row["detection_cycle"]]
            for row in campaign["rows"]
        ]
        lines.append("")
        lines.append(format_table(
            ["attack", "unprotected", "protected", "detected", "contained", "detection cycle"],
            rows,
        ))
    events = result.get("events")
    if events:
        lines.append("")
        lines.append("  events     : " + ", ".join(f"{k}={v}" for k, v in sorted(events.items())))
    return "\n".join(lines)


def _witness_route(witness: Dict[str, object]) -> str:
    segments = witness.get("route_segments") or []
    return "->".join(str(s) for s in segments) if segments else "local"


def render_verification(payload: Dict[str, object]) -> str:
    """Human-readable report for one ``repro verify`` JSON payload.

    Takes the serialized dictionary (the same shape ``--json`` prints), so
    the analysis layer depends only on the verifier's output schema, never
    on :mod:`repro.staticcheck` itself.
    """
    lines: List[str] = []
    reports = payload.get("reports") or []
    summary_rows = [
        [report["scenario"], report["verdict"],
         report["counts"]["error"], report["counts"]["warning"],
         report["counts"]["info"], len(report.get("coverage") or [])]
        for report in reports  # type: ignore[index]
    ]
    lines.append(format_table(
        ["scenario", "verdict", "errors", "warnings", "infos", "coverage"],
        summary_rows,
        title="Static policy/fabric verification",
    ))
    for report in reports:  # type: ignore[assignment]
        findings = report.get("findings") or []
        if not findings:
            continue
        lines.append("")
        lines.append(f"{report['scenario']}:")
        for finding in findings:
            lines.append(
                f"  [{str(finding['severity']).upper():<7}] {finding['code']} "
                f"{finding['subject']}: {finding['message']}"
            )
            witness = finding.get("witness")
            if witness:
                lines.append(
                    f"            witness: {witness['master']} {witness['op']}"
                    f"[{witness['width']}] {int(witness['address']):#010x} "
                    f"-> {witness['target']} (route {_witness_route(witness)}, "
                    f"expect {witness['expectation']})"
                )
    confirmations = payload.get("confirmations")
    if confirmations:
        lines.append("")
        rows = []
        for scenario, results in confirmations.items():  # type: ignore[union-attr]
            for result in results:
                witness = result["witness"]
                rows.append([
                    scenario,
                    f"{witness['master']}->{witness['target']}",
                    witness["expectation"],
                    result["status"],
                    result["alerts"],
                    "yes" if result["confirmed"] else "NO",
                ])
        lines.append(format_table(
            ["scenario", "probe", "expectation", "status", "alerts", "confirmed"],
            rows,
            title="Witness confirmation (simulator replay)",
        ))
    errors = payload.get("errors", 0)
    failed = payload.get("failed_confirmations", 0)
    lines.append("")
    if errors or failed:
        lines.append(f"FAIL: {errors} error finding(s), {failed} failed confirmation(s)")
    else:
        lines.append(f"ok: {len(reports)} scenario(s), no error findings")
    return "\n".join(lines)


def render_table1(rows: Sequence[Table1Row], title: str = "Table I -- synthesis results (area model)") -> str:
    """Render regenerated Table I rows."""
    return format_resource_table(rows, title=title)


def render_table2(rows: Sequence[Table2Row], title: str = "Table II -- firewall module latency") -> str:
    """Render regenerated Table II rows."""
    body = []
    for row in rows:
        body.append(
            [
                row.module,
                row.measured_cycles,
                row.paper_cycles,
                row.ideal_throughput_mbps,
                row.paper_throughput_mbps,
                row.operations,
            ]
        )
    return format_table(
        [
            "module",
            "measured cycles/op",
            "paper cycles",
            "ideal throughput (Mb/s)",
            "paper throughput (Mb/s)",
            "operations",
        ],
        body,
        title=title,
    )
