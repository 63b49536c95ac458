"""Finding model of the static policy/fabric verifier.

A *finding* is one defect (or noteworthy property) the analyzer proved about
a scenario without simulating it: an address-map inconsistency, a
master→slave route no firewall can guard, a configuration-memory rule no
reachable transaction can match, or a bridge-graph hazard.  Every finding
that claims something about traffic carries a :class:`Witness` — a concrete
(master, route, address, op) tuple — so the confirmation harness in
:mod:`repro.staticcheck.confirm` can replay it under the simulator and make
the analyzer *differentially honest*: an unguarded-path witness must reach
protected memory without an alert under the simulator, and a coverage claim
must be blocked or alerted.

Severities:

* ``error`` — the plan claims a protection it cannot deliver (unguarded
  path, protection window with no ciphering firewall, proxy region diverging
  from the routed map).  ``repro verify`` exits non-zero and
  ``ScenarioBuilder(spec, verify=True)`` raises :class:`StaticCheckError`.
* ``warning`` — honest but lossy configurations: per-master restrictions a
  bridge-only placement structurally cannot express, rules no reachable
  tuple can match.
* ``info`` — hazards worth knowing about that the model handles gracefully
  (posted-write acknowledgement ahead of a downstream check, opposing posted
  traffic through a bounded buffer, out-of-scope enforcement models).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

__all__ = [
    "SEVERITIES",
    "EXPECTATIONS",
    "Witness",
    "Finding",
    "VerificationReport",
    "StaticCheckError",
]


#: Finding severities, most severe first.
SEVERITIES: Tuple[str, ...] = ("error", "warning", "info")

#: What a witness's transaction is expected to do under the simulator.
EXPECTATIONS: Tuple[str, ...] = ("reaches_silently", "blocked_or_alerted")


@dataclass(frozen=True)
class Witness:
    """One concrete probe: a (master, route, address, op) tuple.

    ``expectation`` states what the probe must do when compiled into an
    attack: ``"reaches_silently"`` for unguarded-path findings (the
    transaction completes and no firewall raises an alert) and
    ``"blocked_or_alerted"`` for coverage claims (some hop denies it or at
    least raises an alert).  ``route_segments`` / ``route_bridges`` record
    the fabric path the access takes (both empty on a flat bus).
    """

    master: str
    address: int
    op: str  # "read" or "write"
    width: int
    target: str  # slave name
    region: str  # region name in the platform address map
    expectation: str
    route_segments: Tuple[str, ...] = ()
    route_bridges: Tuple[str, ...] = ()
    #: The hop expected to enforce a coverage claim ("" for unguarded paths).
    enforced_by: str = ""

    def __post_init__(self) -> None:
        if self.op not in ("read", "write"):
            raise ValueError(f"witness op must be 'read' or 'write', got {self.op!r}")
        if self.expectation not in EXPECTATIONS:
            raise ValueError(
                f"witness expectation must be one of {EXPECTATIONS}, got {self.expectation!r}"
            )

    def to_dict(self) -> Dict[str, object]:
        return {
            "master": self.master,
            "address": self.address,
            "op": self.op,
            "width": self.width,
            "target": self.target,
            "region": self.region,
            "expectation": self.expectation,
            "route_segments": list(self.route_segments),
            "route_bridges": list(self.route_bridges),
            "enforced_by": self.enforced_by,
        }

    def describe(self) -> str:
        route = "->".join(self.route_segments) if self.route_segments else "local"
        return (
            f"{self.master} {self.op}[{self.width}] {self.address:#010x} "
            f"({self.region}, route {route})"
        )


@dataclass(frozen=True)
class Finding:
    """One verified defect (or hazard) in a scenario's policy/fabric."""

    code: str
    severity: str
    subject: str  # e.g. "cpu2->ip0" or "lf_br12:bram"
    message: str
    witness: Witness | None = None

    def __post_init__(self) -> None:
        if self.severity not in SEVERITIES:
            raise ValueError(
                f"finding severity must be one of {SEVERITIES}, got {self.severity!r}"
            )

    def to_dict(self) -> Dict[str, object]:
        payload: Dict[str, object] = {
            "code": self.code,
            "severity": self.severity,
            "subject": self.subject,
            "message": self.message,
        }
        if self.witness is not None:
            payload["witness"] = self.witness.to_dict()
        return payload


def _severity_rank(finding: Finding) -> int:
    return SEVERITIES.index(finding.severity)


@dataclass
class VerificationReport:
    """Everything one :func:`repro.staticcheck.analyzer.verify_spec` run found.

    ``findings`` are the defects/hazards; ``coverage`` lists the *positive*
    claims — guarded (master, route, address, op) tuples some hop provably
    denies — which the confirmation harness replays to keep the analyzer
    honest in both directions.
    """

    scenario: str
    findings: List[Finding] = field(default_factory=list)
    coverage: List[Witness] = field(default_factory=list)

    def sort(self) -> None:
        """Order findings most-severe-first, stable within a severity."""
        self.findings.sort(key=lambda f: (_severity_rank(f), f.code, f.subject))

    def by_severity(self, severity: str) -> List[Finding]:
        return [f for f in self.findings if f.severity == severity]

    @property
    def errors(self) -> List[Finding]:
        return self.by_severity("error")

    @property
    def has_errors(self) -> bool:
        return any(f.severity == "error" for f in self.findings)

    def counts(self) -> Dict[str, int]:
        return {
            severity: len(self.by_severity(severity)) for severity in SEVERITIES
        }

    def verdict(self) -> str:
        """Compact per-scenario label, e.g. ``ok``, ``1E``, ``2W+3I``."""
        counts = self.counts()
        parts = [
            f"{counts[severity]}{severity[0].upper()}"
            for severity in SEVERITIES
            if counts[severity]
        ]
        return "+".join(parts) if parts else "ok"

    def to_dict(self) -> Dict[str, object]:
        return {
            "scenario": self.scenario,
            "verdict": self.verdict(),
            "counts": self.counts(),
            "findings": [f.to_dict() for f in self.findings],
            "coverage": [w.to_dict() for w in self.coverage],
        }


class StaticCheckError(ValueError):
    """``ScenarioBuilder(spec, verify=True)`` found ERROR findings in a spec."""

    def __init__(self, report: VerificationReport) -> None:
        self.report = report
        lines = [
            f"static verification of {report.scenario!r} failed: "
            f"{len(report.errors)} error finding(s)"
        ]
        for finding in report.errors:
            lines.append(f"  [{finding.code}] {finding.subject}: {finding.message}")
        super().__init__("\n".join(lines))
