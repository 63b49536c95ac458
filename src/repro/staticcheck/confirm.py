"""Dynamic confirmation of static findings: replay witnesses on the simulator.

The verifier is only trustworthy if the simulator agrees with it.  This
module closes that loop: every
:class:`~repro.staticcheck.findings.Witness` is one
:class:`~repro.soc.transaction.Step` (a write carries the first ``width``
bytes of ``PROBE_PAYLOAD``), issued by its master on a freshly built
protected platform, and

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
from typing import TYPE_CHECKING, Dict, List, Union

from repro.scenarios.spec import ScenarioSpec
from repro.soc.transaction import Step, TransactionStatus
from repro.staticcheck.analyzer import PROBE_PAYLOAD, verify_spec
from repro.staticcheck.findings import VerificationReport, Witness

if TYPE_CHECKING:
    from repro.scenarios.builder import ScenarioBuilder

__all__ = ["ConfirmationResult", "confirm_witness", "confirm_report"]


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


def confirm_witness(
    source: Union[ScenarioSpec, ScenarioBuilder], witness: Witness
) -> ConfirmationResult:
    """Replay one witness against a freshly built protected platform.

    ``source`` is the scenario's spec or a builder of it (pass one builder
    to replay many witnesses of a spec).
    """
    # Imported lazily: the builder loads every device and attack.
    from repro.scenarios.builder import ScenarioBuilder

    builder = source if isinstance(source, ScenarioBuilder) else ScenarioBuilder(source)
    built = builder.build()
    txn, alerts = built.issue(Step(
        witness.master,
        witness.op,
        witness.address,
        width=witness.width,
        data=PROBE_PAYLOAD[: witness.width] if witness.op == "write" else None,
    ))
    reached = txn.status is TransactionStatus.COMPLETED
    if witness.expectation == "reaches_silently":
        confirmed = reached and alerts == 0
    else:
        confirmed = not reached or alerts > 0
    return ConfirmationResult(
        witness=witness,
        reached=reached,
        alerts=alerts,
        status=txn.status.value,
        confirmed=confirmed,
    )


def confirm_report(scenario: Union[str, ScenarioSpec, VerificationReport]) -> List[ConfirmationResult]:
    """Confirm every witness a verification report carries: each finding's,
    then each coverage witness.

    Accepts a scenario name, a spec, or an already-computed report (the
    first two are verified first).
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
    witnesses.extend(report.coverage)
    from repro.scenarios.builder import ScenarioBuilder

    builder = ScenarioBuilder(spec)  # one for every witness of the spec
    return [confirm_witness(builder, witness) for witness in witnesses]
