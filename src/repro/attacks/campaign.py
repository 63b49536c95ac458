"""Attack campaign results: the detection matrix.

:class:`~repro.attacks.runner.CampaignRunner` runs a battery of attacks
against protected and unprotected platforms and fills the
:class:`CampaignReport` defined here.  This is the harness behind the E6
experiment of DESIGN.md (the paper's qualitative security claims turned into
a measurable matrix) and behind the ``attack_campaign`` example.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.attacks.base import AttackResult
from repro.core.secure import SecuredPlatform
from repro.soc.system import SoCSystem

__all__ = ["CampaignReport", "CampaignRow", "PlatformFactory"]


#: ``factory(protected) -> (system, security_or_None)``: a fresh platform per
#: call, so alerts, quarantines and memory tampering from one attack cannot
#: influence the next.
PlatformFactory = Callable[[bool], Tuple[SoCSystem, Optional[SecuredPlatform]]]


@dataclass
class CampaignRow:
    """Outcome of one attack on both platform variants."""

    attack: str
    goal: str
    unprotected: AttackResult
    protected: AttackResult

    @property
    def prevented(self) -> bool:
        """Attack works on the unprotected platform but not on the protected one."""
        return self.unprotected.achieved_goal and not self.protected.achieved_goal

    @property
    def detected(self) -> bool:
        return self.protected.detected


@dataclass
class CampaignReport:
    """Aggregated campaign results.

    ``monitor_totals`` aggregates the protected-platform SecurityMonitor
    alert counts per violation type across all runs, and ``metrics`` carries
    the run's metadata (wall time, seed, scenario name).
    """

    rows: List[CampaignRow] = field(default_factory=list)
    monitor_totals: Dict[str, int] = field(default_factory=dict)
    metrics: Dict[str, object] = field(default_factory=dict)
    #: Instrumentation-event counts per kind over every platform the campaign
    #: built, when it ran with ``collect_events=True`` (empty otherwise).
    event_totals: Dict[str, int] = field(default_factory=dict)

    def add(self, row: CampaignRow) -> None:
        self.rows.append(row)

    @property
    def n_attacks(self) -> int:
        return len(self.rows)

    @property
    def n_prevented(self) -> int:
        return sum(1 for row in self.rows if row.prevented)

    @property
    def n_detected(self) -> int:
        return sum(1 for row in self.rows if row.detected)

    def detection_rate(self) -> float:
        return self.n_detected / self.n_attacks if self.rows else 0.0

    def prevention_rate(self) -> float:
        return self.n_prevented / self.n_attacks if self.rows else 0.0

    def as_table_rows(self) -> List[Dict[str, object]]:
        """Row dictionaries suitable for the table renderer."""
        out = []
        for row in self.rows:
            out.append(
                {
                    "attack": row.attack,
                    "unprotected": row.unprotected.outcome.value,
                    "protected": row.protected.outcome.value,
                    "detected": "yes" if row.detected else "no",
                    "contained_at_if": "yes" if row.protected.contained_at_interface else "no",
                    "detection_cycle": row.protected.detection_cycle
                    if row.protected.detection_cycle is not None
                    else "-",
                }
            )
        return out

    def chain_totals(self) -> Dict[str, object]:
        """Per-step attribution for multi-transaction attack chains.

        Classic single-transaction attacks score one blocked/alerted decision
        per attempt; a chain needs per-*step* accounting (which link broke,
        at which interface).  Totals are derived purely from the per-row
        ``chain_steps`` records the chain attacks emit on the protected
        platform.
        """
        totals: Dict[str, object] = {
            "attacks": 0,
            "steps_planned": 0,
            "steps_run": 0,
            "blocked_steps": 0,
            "alerted_steps": 0,
            "broken_chains": 0,
            "containment": {},
        }
        containment: Dict[str, int] = totals["containment"]  # type: ignore[assignment]
        for row in self.rows:
            steps = row.protected.extra.get("chain_steps")
            chain = row.protected.extra.get("chain")
            if not isinstance(steps, list) or not isinstance(chain, dict):
                continue
            totals["attacks"] += 1
            totals["steps_planned"] += int(chain.get("steps_planned", len(steps)))
            totals["steps_run"] += len(steps)
            if chain.get("first_blocked_step") is not None:
                totals["broken_chains"] += 1
            for step in steps:
                status = str(step.get("status", ""))
                if status.startswith("blocked") or status == "integrity_error":
                    totals["blocked_steps"] += 1
                    containment[status] = containment.get(status, 0) + 1
                if int(step.get("alerts", 0)) > 0:
                    totals["alerted_steps"] += 1
        return totals

    def summary(self) -> Dict[str, object]:
        summary: Dict[str, object] = {
            "attacks": self.n_attacks,
            "prevented": self.n_prevented,
            "detected": self.n_detected,
            "detection_rate": self.detection_rate(),
            "prevention_rate": self.prevention_rate(),
        }
        chains = self.chain_totals()
        if chains["attacks"]:
            summary["chains"] = chains
        return summary
