"""The bypass oracle: "no silent reach of protected memory".

A fuzz case is replayed transaction by transaction against a freshly built
*protected* platform (no synthetic workload — the case is the whole
stimulus).  After every step the oracle compares what happened against what
the scenario's policy promises:

``policy_bypass``
    A step by master M on slave S **completed** although the spec restricts
    M away from S (``accessible`` does not list it, or the access is a write
    to a ``readonly`` target) — and no firewall raised an alert for it.
    This is the paper's containment claim violated live.

``guard_leak``
    A stateful device guard tripped silently: the step grew a device's
    ``leaks`` record (e.g. the secure-boot key bank read back real key
    material) with zero new alerts.  Policy-authorized masters can trigger
    this, which is exactly why it needs a dynamic oracle — statically the
    access is legal.

Findings the static verifier already documents are excluded: a
``reaches_silently`` witness (e.g. the placement-gap of
``bridge_firewalled_centralized``) means that master/slave pair is a *known*
gap, and under centralized enforcement per-master restrictions are out of
scope by construction (the analyzer's ``centralized-enforcement`` note).
Each surviving violation is reported as a :class:`~repro.staticcheck.
findings.Witness` with ``expectation="reaches_silently"``, the same
vocabulary ``repro verify`` speaks, so a found bypass can be triaged — and
replayed — with the PR-9 confirmation machinery.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.fuzz.case import FuzzCase
from repro.scenarios.builder import ScenarioBuilder
from repro.scenarios.spec import MasterSpec, ScenarioSpec, SlaveSpec
from repro.soc.transaction import Step, TransactionStatus
from repro.staticcheck.analyzer import route_witness, segment_paths, verify_spec
from repro.staticcheck.findings import Witness

__all__ = ["Violation", "OracleResult", "BypassOracle"]


@dataclass(frozen=True)
class Violation:
    """One silent reach of protected state, tied to the step that caused it."""

    kind: str  # "policy_bypass" | "guard_leak"
    master: str
    target: str
    op: str
    step_index: int
    address: int
    witness: Witness
    detail: str = ""

    @property
    def identity(self) -> Tuple[str, str, str, str]:
        """Dedup/shrink key: the *hole*, independent of the step position."""
        return (self.kind, self.master, self.target, self.op)

    def to_dict(self) -> Dict[str, object]:
        return {
            "kind": self.kind,
            "master": self.master,
            "target": self.target,
            "op": self.op,
            "step_index": self.step_index,
            "address": self.address,
            "witness": self.witness.to_dict(),
            "detail": self.detail,
        }


@dataclass
class OracleResult:
    """Verdict of one case replay."""

    case: FuzzCase
    violations: List[Violation] = field(default_factory=list)
    steps_run: int = 0
    alerts: int = 0
    blocked_steps: int = 0
    #: (device, counter) pairs whose statistics the case changed — the
    #: coverage signature that steers the mutation pool.
    signature: Tuple[Tuple[str, str], ...] = ()

    @property
    def clean(self) -> bool:
        return not self.violations


class BypassOracle:
    """Judge fuzz cases for one scenario spec."""

    def __init__(self, spec: ScenarioSpec) -> None:
        #: Validates the spec once and builds the platform of every case.
        self.builder = ScenarioBuilder(spec)
        self.spec = spec
        self.masters: Dict[str, MasterSpec] = {m.name: m for m in spec.topology.masters}
        self._slaves = sorted(spec.topology.slaves, key=lambda s: s.base)
        self._paths = segment_paths(spec.topology)
        #: Per-master restriction exemptions the static verifier already
        #: reports as reaching silently (known gaps are not new findings).
        self.static_gaps: frozenset = self._static_gaps()
        #: Centralized enforcement cannot tell masters apart; the analyzer's
        #: `centralized-enforcement` scope note documents that, so per-master
        #: policy checks are off and only device-guard leaks are judged.
        self.centralized = spec.enforcement == "centralized"

    def _static_gaps(self) -> frozenset:
        gaps = set()
        report = verify_spec(self.spec)
        for finding in report.findings:
            witness = finding.witness
            if witness is not None and witness.expectation == "reaches_silently":
                gaps.add((witness.master, witness.target))
        return frozenset(gaps)

    # -- topology lookups ------------------------------------------------------------

    def slave_at(self, address: int) -> Optional[SlaveSpec]:
        for slave in self._slaves:
            if slave.base <= address < slave.end:
                return slave
        return None

    def _restricted(self, master: MasterSpec, slave: SlaveSpec, op: str) -> bool:
        if not master.can_access(slave.name):
            return True
        return op == "write" and slave.name in master.readonly

    def _witness(self, master: str, slave: SlaveSpec, step: Step) -> Witness:
        return route_witness(
            self.spec.topology, self._paths, self.masters[master], slave, step.op,
            "reaches_silently", address=step.address, width=step.width,
        )

    # -- judgement -------------------------------------------------------------------

    def run(self, case: FuzzCase) -> OracleResult:
        """Replay one case on a fresh protected platform and judge it."""
        built = self.builder.build()
        system, security = built.system, built.security
        monitor = built.monitor
        guards = {
            name: device
            for name, device in system.ips.items()
            if hasattr(device, "leaks")
        }
        stats_before = {
            name: dict(system.ips[name].stats) for name in system.ips
        }

        result = OracleResult(case=case)
        for index, step in enumerate(case.steps):
            if step.master not in self.masters:
                continue
            leaks_before = {name: len(g.leaks) for name, g in guards.items()}
            txn, new_alerts = built.issue(step)
            result.steps_run += 1
            if txn.status.is_blocked:
                result.blocked_steps += 1

            slave = self.slave_at(step.address)
            completed = txn.status is TransactionStatus.COMPLETED
            if (
                slave is not None
                and completed
                and new_alerts == 0
                and not self.centralized
                and (step.master, slave.name) not in self.static_gaps
                and self._restricted(self.masters[step.master], slave, step.op)
            ):
                result.violations.append(Violation(
                    kind="policy_bypass",
                    master=step.master,
                    target=slave.name,
                    op=step.op,
                    step_index=index,
                    address=step.address,
                    witness=self._witness(step.master, slave, step),
                    detail=(
                        f"{step.op} of {step.address:#010x} by {step.master} "
                        f"completed with no alert despite the policy restriction"
                    ),
                ))
            for name, guard in guards.items():
                grown = len(guard.leaks) - leaks_before[name]
                if grown > 0 and new_alerts == 0:
                    guard_slave = self.spec.topology.slave(name)
                    result.violations.append(Violation(
                        kind="guard_leak",
                        master=step.master,
                        target=name,
                        op=step.op,
                        step_index=index,
                        address=step.address,
                        witness=self._witness(step.master, guard_slave, step),
                        detail=(
                            f"device guard on {name} recorded {grown} leak(s) "
                            f"with no alert (step {index}, {step.op} by {step.master})"
                        ),
                    ))

        result.alerts = len(monitor.alerts) if monitor else 0
        signature = []
        for name in sorted(system.ips):
            before = stats_before.get(name, {})
            for counter, value in sorted(system.ips[name].stats.items()):
                if isinstance(value, int) and value != before.get(counter, 0):
                    signature.append((name, counter))
        result.signature = tuple(signature)
        return result
