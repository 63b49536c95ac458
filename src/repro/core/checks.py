"""Checking modules of the Security Builder.

Inside a Local Firewall, the Security Builder "reads the associated SP from
the Configuration Memory.  Then, SP parameters (security rules) are sent to
specific checking modules" (paper, section IV-B1).  Each checking module is a
small combinational comparator in hardware; here each is a class with a
``check(policy, txn)`` method returning a :class:`CheckResult`.

Modelling the checks as separate objects (rather than one big ``if``) keeps
the structure of the hardware visible, lets the area model count comparators,
and lets tests exercise every rule in isolation.
"""

from __future__ import annotations

from typing import List, NamedTuple, Optional, Sequence

from repro.core.alerts import ViolationType
from repro.core.policy import ReadWriteAccess, SecurityPolicy
from repro.soc.transaction import BusTransaction

__all__ = [
    "CheckResult",
    "SecurityCheck",
    "ReadWriteAccessCheck",
    "DataFormatCheck",
    "BurstLengthCheck",
    "AddressRangeCheck",
    "default_check_suite",
]

# Looking a member up on an Enum class costs a __getattr__ hook per access.
_READ_WRITE = ReadWriteAccess.READ_WRITE
_READ_ONLY = ReadWriteAccess.READ_ONLY
_WRITE_ONLY = ReadWriteAccess.WRITE_ONLY


class CheckResult(NamedTuple):
    """Outcome of one checking module for one transaction.

    Immutable: the Security Builder hands one cached result list to every
    transaction with the same decision key.
    """

    passed: bool
    check: str
    violation: Optional[ViolationType] = None
    detail: str = ""

    # Both build the tuple directly, as the generated __new__ would.
    @classmethod
    def ok(cls, check: str) -> "CheckResult":
        return tuple.__new__(cls, (True, check, None, ""))

    @classmethod
    def fail(cls, check: str, violation: ViolationType, detail: str = "") -> "CheckResult":
        return tuple.__new__(cls, (False, check, violation, detail))


class SecurityCheck:
    """Base class for checking modules."""

    name = "check"

    def check(self, policy: SecurityPolicy, txn: BusTransaction) -> CheckResult:  # pragma: no cover
        raise NotImplementedError


class ReadWriteAccessCheck(SecurityCheck):
    """Enforce the RWA parameter: is this direction of access allowed?"""

    name = "rwa"

    def check(self, policy: SecurityPolicy, txn: BusTransaction) -> CheckResult:
        # SecurityPolicy.allows_operation, inline.
        rwa = policy.rwa
        if rwa is _READ_WRITE or rwa is (_WRITE_ONLY if txn.is_write else _READ_ONLY):
            return CheckResult.ok(self.name)
        violation = (
            ViolationType.UNAUTHORIZED_WRITE if txn.is_write else ViolationType.UNAUTHORIZED_READ
        )
        return CheckResult.fail(
            self.name,
            violation,
            detail=f"policy {policy.spi} is {policy.rwa.value}, "
            f"{'write' if txn.is_write else 'read'} not allowed",
        )


class DataFormatCheck(SecurityCheck):
    """Enforce the ADF parameter: is the access width allowed?

    "An unauthorized format may overwrite some protected data in the target
    IP" -- the classic example being a 32-bit store aimed at an 8-bit control
    register, clobbering its neighbours.
    """

    name = "adf"

    def check(self, policy: SecurityPolicy, txn: BusTransaction) -> CheckResult:
        if txn.width in policy.allowed_formats:
            return CheckResult.ok(self.name)
        allowed = sorted(policy.allowed_formats)
        return CheckResult.fail(
            self.name,
            ViolationType.BAD_DATA_FORMAT,
            detail=f"width {txn.width} bytes not in allowed formats {allowed}",
        )


class BurstLengthCheck(SecurityCheck):
    """Bound the burst length to what the target resource can absorb."""

    name = "burst"

    def check(self, policy: SecurityPolicy, txn: BusTransaction) -> CheckResult:
        if 1 <= txn.burst_length <= policy.max_burst_length:
            return CheckResult.ok(self.name)
        return CheckResult.fail(
            self.name,
            ViolationType.BURST_TOO_LONG,
            detail=f"burst of {txn.burst_length} beats exceeds limit "
            f"{policy.max_burst_length}",
        )


class AddressRangeCheck(SecurityCheck):
    """Confine an IP's traffic to a set of authorised address windows.

    The Configuration Memory's rule ranges already confine where *policies*
    apply; this additional module lets a firewall restrict its IP to a hard
    envelope irrespective of policy.  Only a caller that gives it windows
    restricts traffic: nothing in the platform sets them, and the
    manager's quarantine reaction denies every request of the IP instead
    (``LocalFirewall.quarantined``).
    """

    name = "address_range"

    def __init__(self, windows: Optional[Sequence] = None) -> None:
        # windows: iterable of (base, size) tuples; empty = no restriction.
        self.windows: List = list(windows or [])

    def check(self, policy: SecurityPolicy, txn: BusTransaction) -> CheckResult:
        if not self.windows:
            return CheckResult.ok(self.name)
        for base, size in self.windows:
            if base <= txn.address and txn.end_address <= base + size:
                return CheckResult.ok(self.name)
        return CheckResult.fail(
            self.name,
            ViolationType.ADDRESS_OUT_OF_RANGE,
            detail=f"[{txn.address:#x}, {txn.end_address:#x}) outside authorised windows",
        )


def default_check_suite() -> List[SecurityCheck]:
    """The checking modules a Local Firewall instantiates by default.

    RWA, ADF and burst-length correspond directly to the policy parameters of
    section IV-A; the address-range module is instantiated empty, so it adds
    no restriction.
    """
    return [
        ReadWriteAccessCheck(),
        DataFormatCheck(),
        BurstLengthCheck(),
        AddressRangeCheck(),
    ]
