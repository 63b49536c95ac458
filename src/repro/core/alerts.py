"""Security alerts, violations and the system-wide security monitor.

When a checking module inside a firewall detects a violation it raises an
alert signal; the Firewall Interface then discards the offending data (paper,
section IV-B1).  This module defines the alert vocabulary and a
:class:`SecurityMonitor` that aggregates alerts from every firewall in the
platform — the observable the detection experiments (E6 in DESIGN.md) score
against, and the trigger for the reaction policies implemented by
:class:`repro.core.manager.SecurityPolicyManager`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

__all__ = ["ViolationType", "Severity", "SecurityAlert", "SecurityMonitor"]


class ViolationType(enum.Enum):
    """Why a firewall rejected (or flagged) a transaction."""

    UNAUTHORIZED_READ = "unauthorized_read"
    UNAUTHORIZED_WRITE = "unauthorized_write"
    BAD_DATA_FORMAT = "bad_data_format"
    BURST_TOO_LONG = "burst_too_long"
    POLICY_MISS = "policy_miss"
    ADDRESS_OUT_OF_RANGE = "address_out_of_range"
    INTEGRITY_FAILURE = "integrity_failure"
    REPLAY_SUSPECTED = "replay_suspected"
    TRAFFIC_FLOOD = "traffic_flood"
    RECONFIGURATION = "reconfiguration"


class Severity(enum.IntEnum):
    """Alert severity, ordered so reactions can threshold on it."""

    INFO = 0
    WARNING = 1
    CRITICAL = 2


_DEFAULT_SEVERITY: Dict[ViolationType, Severity] = {
    ViolationType.UNAUTHORIZED_READ: Severity.CRITICAL,
    ViolationType.UNAUTHORIZED_WRITE: Severity.CRITICAL,
    ViolationType.BAD_DATA_FORMAT: Severity.WARNING,
    ViolationType.BURST_TOO_LONG: Severity.WARNING,
    ViolationType.POLICY_MISS: Severity.WARNING,
    ViolationType.ADDRESS_OUT_OF_RANGE: Severity.WARNING,
    ViolationType.INTEGRITY_FAILURE: Severity.CRITICAL,
    ViolationType.REPLAY_SUSPECTED: Severity.CRITICAL,
    ViolationType.TRAFFIC_FLOOD: Severity.WARNING,
    ViolationType.RECONFIGURATION: Severity.INFO,
}


@dataclass(frozen=True)
class SecurityAlert:
    """One alert raised by a firewall.

    ``cycle`` is the simulation cycle at which the violation was detected,
    which is what the reaction-time analysis uses ("the system must react as
    fast as possible").
    """

    cycle: int
    firewall: str
    master: str
    violation: ViolationType
    address: int
    txn_id: int
    severity: Severity = Severity.WARNING
    detail: str = ""

    @classmethod
    def for_violation(
        cls,
        cycle: int,
        firewall: str,
        master: str,
        violation: ViolationType,
        address: int,
        txn_id: int,
        detail: str = "",
        severity: Optional[Severity] = None,
    ) -> "SecurityAlert":
        """Build an alert with the default severity for its violation type."""
        return cls(
            cycle=cycle,
            firewall=firewall,
            master=master,
            violation=violation,
            address=address,
            txn_id=txn_id,
            severity=severity if severity is not None else _DEFAULT_SEVERITY[violation],
            detail=detail,
        )

    def describe(self) -> str:
        """Single-line log form of the alert."""
        return (
            f"[cycle {self.cycle}] {self.firewall}: {self.violation.value} by "
            f"{self.master} at {self.address:#010x} ({self.severity.name})"
            + (f" -- {self.detail}" if self.detail else "")
        )


class SecurityMonitor:
    """Aggregates alerts from every firewall in the platform.

    The monitor is *passive*: it records, counts and notifies subscribers.
    Reactions (quarantining an IP, zeroising keys, swapping policies) are the
    responsibility of :class:`repro.core.manager.SecurityPolicyManager`, which
    subscribes to this monitor.  Keeping the two separate mirrors the paper's
    distributed philosophy: detection is local to each firewall, the monitor
    merely makes the distributed decisions observable.
    """

    def __init__(self, name: str = "security_monitor") -> None:
        self.name = name
        self.alerts: List[SecurityAlert] = []
        self._subscribers: List[Callable[[SecurityAlert], None]] = []
        #: Optional instrumentation event bus (see :mod:`repro.api.events`).
        self.event_bus = None

    # -- alert intake ------------------------------------------------------------

    def raise_alert(self, alert: SecurityAlert) -> None:
        """Record an alert and notify subscribers."""
        self.alerts.append(alert)
        event_bus = self.event_bus
        if event_bus is not None:
            event_bus.emit(
                "security.alert", alert.cycle, self.name,
                firewall=alert.firewall, master=alert.master,
                violation=alert.violation.value, address=alert.address,
                severity=alert.severity.name, detail=alert.detail,
            )
        for subscriber in self._subscribers:
            subscriber(alert)

    def subscribe(self, callback: Callable[[SecurityAlert], None]) -> None:
        """Register a callback invoked for every future alert."""
        self._subscribers.append(callback)

    # -- queries -------------------------------------------------------------------

    def count(self, violation: Optional[ViolationType] = None) -> int:
        """Total alerts, optionally restricted to one violation type."""
        if violation is None:
            return len(self.alerts)
        return sum(1 for alert in self.alerts if alert.violation is violation)

    def alerts_by_firewall(self) -> Dict[str, int]:
        """Alert count per firewall (the distributed-detection breakdown)."""
        counts: Dict[str, int] = {}
        for alert in self.alerts:
            counts[alert.firewall] = counts.get(alert.firewall, 0) + 1
        return counts

    def alerts_by_master(self) -> Dict[str, int]:
        """Alert count per offending master."""
        counts: Dict[str, int] = {}
        for alert in self.alerts:
            counts[alert.master] = counts.get(alert.master, 0) + 1
        return counts

    def alerts_by_violation(self) -> Dict[ViolationType, int]:
        """Alert count per violation type."""
        counts: Dict[ViolationType, int] = {}
        for alert in self.alerts:
            counts[alert.violation] = counts.get(alert.violation, 0) + 1
        return counts

    def first_detection_cycle(self) -> Optional[int]:
        """Cycle of the earliest alert (the reaction-time metric), or None."""
        if not self.alerts:
            return None
        return min(alert.cycle for alert in self.alerts)

    def clear(self) -> None:
        """Drop all recorded alerts (between experiment repetitions)."""
        self.alerts.clear()

    def summary(self) -> Dict[str, object]:
        """Compact dictionary used by reports and example scripts."""
        return {
            "total": len(self.alerts),
            "by_violation": {v.value: c for v, c in self.alerts_by_violation().items()},
            "by_firewall": self.alerts_by_firewall(),
            "by_master": self.alerts_by_master(),
            "first_detection_cycle": self.first_detection_cycle(),
        }
