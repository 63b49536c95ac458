"""Dynamic confirmation of static findings: compile witnesses into probes.

The verifier is only trustworthy if the simulator agrees with it.  This
module closes that loop: every
:class:`~repro.staticcheck.findings.Witness` compiles into a single-shot
probe attack driven through the existing Experiment/BuiltScenario API, and

* a witness with ``expectation="reaches_silently"`` (an unguarded path)
  must **complete** against the protected platform with **zero** new
  alerts — the static claim "no hop can enforce this" demonstrated live;
* a witness with ``expectation="blocked_or_alerted"`` (a coverage claim)
  must be denied by some hop, or at minimum raise an alert.

A mismatch in either direction is a bug in the analyzer or the simulator —
:func:`confirm_report` surfaces it as ``confirmed=False``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Union

from repro.attacks.base import Attack, AttackResult, issue_sync
from repro.core.secure import SecuredPlatform
from repro.scenarios.spec import ScenarioSpec
from repro.soc.system import SoCSystem
from repro.soc.transaction import BusOperation, BusTransaction, TransactionStatus
from repro.staticcheck.analyzer import PROBE_PAYLOAD, verify_spec
from repro.staticcheck.findings import VerificationReport, Witness

__all__ = ["WitnessProbe", "ConfirmationResult", "confirm_witness", "confirm_report"]


class WitnessProbe(Attack):
    """A single-transaction probe compiled from one static-analysis witness."""

    def __init__(self, witness: Witness) -> None:
        self.witness = witness
        self.name = f"witness_probe_{witness.master}_{witness.target}"
        self.goal = f"{witness.op} {witness.address:#010x} via {witness.master}"

    def run(
        self, system: SoCSystem, security: Optional[SecuredPlatform] = None
    ) -> AttackResult:
        witness = self.witness
        baseline = len(security.monitor.alerts) if security is not None else 0
        operation = BusOperation.WRITE if witness.op == "write" else BusOperation.READ
        data = PROBE_PAYLOAD[: witness.width] if operation is BusOperation.WRITE else None
        txn = BusTransaction(
            master=witness.master,
            operation=operation,
            address=witness.address,
            width=witness.width,
            data=data,
        )
        issue_sync(system, witness.master, txn)
        reached = txn.status is TransactionStatus.COMPLETED
        alerts = self._alerts_since(security, baseline)
        return AttackResult(
            attack=self.name,
            goal=self.goal,
            achieved_goal=reached,
            detected=alerts > 0,
            contained_at_interface=txn.status is TransactionStatus.BLOCKED_AT_MASTER,
            detection_cycle=self._detection_cycle_since(security, baseline),
            alerts=alerts,
            detail=f"status={txn.status.value}",
            extra={"status": txn.status.value, "witness": witness.to_dict()},
        )


@dataclass
class ConfirmationResult:
    """Simulator verdict on one witness."""

    witness: Witness
    reached: bool
    alerts: int
    status: str
    confirmed: bool

    def to_dict(self) -> Dict[str, object]:
        return {
            "witness": self.witness.to_dict(),
            "reached": self.reached,
            "alerts": self.alerts,
            "status": self.status,
            "confirmed": self.confirmed,
        }


def _judge(witness: Witness, result: AttackResult) -> bool:
    if witness.expectation == "reaches_silently":
        return result.achieved_goal and result.alerts == 0
    return (not result.achieved_goal) or result.alerts > 0


def confirm_witness(
    spec: ScenarioSpec,
    witness: Witness,
    *,
    run_workload: bool = False,
) -> ConfirmationResult:
    """Replay one witness against a freshly built protected platform.

    ``run_workload=True`` drains the scenario's workload first, so the probe
    meets the platform in its post-workload state.
    """
    from repro.api.experiment import Experiment

    built = Experiment.from_spec(spec).protected(True).build()
    if run_workload:
        built.run_workload()
    probe = WitnessProbe(witness)
    result = probe.run(built.system, built.security)
    return ConfirmationResult(
        witness=witness,
        reached=result.achieved_goal,
        alerts=result.alerts,
        status=str(result.extra.get("status", "")),
        confirmed=_judge(witness, result),
    )


def confirm_report(
    scenario: Union[str, ScenarioSpec, VerificationReport],
    *,
    max_coverage: Optional[int] = None,
) -> List[ConfirmationResult]:
    """Confirm every witness a verification report carries.

    Accepts a scenario name, a spec, or an already-computed report (the
    first two are verified first).  Finding witnesses are always replayed;
    coverage witnesses can be capped with ``max_coverage`` to bound runtime
    on dense scenarios.
    """
    if isinstance(scenario, VerificationReport):
        report = scenario
        from repro.scenarios.registry import get_scenario

        spec = get_scenario(report.scenario)
    else:
        if isinstance(scenario, ScenarioSpec):
            spec = scenario
        else:
            from repro.scenarios.registry import get_scenario

            spec = get_scenario(scenario)
        report = verify_spec(spec)

    witnesses: List[Witness] = [
        finding.witness for finding in report.findings if finding.witness is not None
    ]
    coverage = list(report.coverage)
    if max_coverage is not None:
        coverage = coverage[:max_coverage]
    witnesses.extend(coverage)
    return [confirm_witness(spec, witness) for witness in witnesses]
