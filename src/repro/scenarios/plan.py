"""The security plan: which firewalls a scenario gets and what each holds.

A :class:`SecurityPlan` is plain data: the master-side, slave-side and
bridge-placed Local Firewalls, the Local Ciphering Firewalls of external
memories, and the rules each trusted Configuration Memory holds.  Each entry
names its firewall once (``lf_<master>``, ``lf_<slave>``, ``lf_<bridge>``,
``lcf_<memory>``).  :func:`build_plan` derives the plan from a
:class:`~repro.scenarios.spec.ScenarioSpec` as a pure function; the builder
executes it (:func:`repro.core.secure.attach_security`) and the static
verifier evaluates its rules hop by hop (:mod:`repro.staticcheck.analyzer`).
Internal communications are not encrypted (the LFs protect them against
unauthorized access), while the external memory is split into protection
windows ("many systems do not provide a uniform protection but allow some
parts of the memory to be unprotected or only ciphered").

From ``repro`` this module imports only :mod:`repro.core.policy` and
:mod:`repro.scenarios.spec`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple, Union

from repro.core.policy import (
    ConfidentialityMode,
    IntegrityMode,
    ReactionPolicy,
    ReadWriteAccess,
    SecurityPolicy,
    default_policies,
)
from repro.scenarios.spec import FIREWALL_PLACEMENTS, ScenarioSpec, SlaveSpec

__all__ = [
    "PlanRule",
    "MasterFirewallPlan",
    "SlaveFirewallPlan",
    "BridgeFirewallPlan",
    "CipheringFirewallPlan",
    "FirewallPlan",
    "SecurityPlan",
    "build_plan",
]

#: First SPI allocated to scenario-defined ciphering policies (clear of the
#: well-known SPI_* constants of the default policies).
_SCENARIO_SPI_BASE = 100


@dataclass(frozen=True)
class PlanRule:
    """One Configuration Memory rule of a planned firewall."""

    base: int
    size: int
    policy: SecurityPolicy
    label: str = ""


@dataclass
class MasterFirewallPlan:
    """A Local Firewall on one master interface."""

    master: str
    rules: List[PlanRule] = field(default_factory=list)
    flood_threshold: Optional[int] = None
    flood_window: int = 100

    @property
    def firewall(self) -> str:
        return f"lf_{self.master}"


@dataclass
class SlaveFirewallPlan:
    """A Local Firewall on one internal slave interface."""

    slave: str
    rules: List[PlanRule] = field(default_factory=list)

    @property
    def firewall(self) -> str:
        return f"lf_{self.slave}"


@dataclass
class BridgeFirewallPlan:
    """A Local Firewall on one fabric bridge.

    The firewall's filter chain runs on every transaction the bridge forwards
    (both directions), so its rules describe the address ranges cross-segment
    traffic may touch.  A remote region with *no* rule is default-denied at
    the bridge (POLICY_MISS), which is how per-bridge isolation is expressed.
    """

    bridge: str
    rules: List[PlanRule] = field(default_factory=list)

    @property
    def firewall(self) -> str:
        return f"lf_{self.bridge}"


@dataclass
class CipheringFirewallPlan:
    """A Local Ciphering Firewall on one external-memory interface."""

    slave: str
    rules: List[PlanRule] = field(default_factory=list)

    @property
    def firewall(self) -> str:
        return f"lcf_{self.slave}"


#: Any planned firewall: each has a ``firewall`` name and a ``rules`` list.
FirewallPlan = Union[
    MasterFirewallPlan, SlaveFirewallPlan, BridgeFirewallPlan, CipheringFirewallPlan
]


@dataclass
class SecurityPlan:
    """Everything :func:`repro.core.secure.attach_security` needs to protect
    a platform.

    ``keys`` lists ``(spi, seed)`` pairs installed into the trusted key store
    before any firewall is built (ciphering policies reference them through
    their ``key_spi``).

    ``placement`` records which of
    :data:`~repro.scenarios.spec.FIREWALL_PLACEMENTS` the plan implements; it
    is descriptive — attachment is driven by which of the ``masters`` /
    ``slaves`` / ``bridges`` lists are populated — but reports and the
    metrics layer use it to label the leaf-vs-bridge split.
    """

    masters: List[MasterFirewallPlan] = field(default_factory=list)
    slaves: List[SlaveFirewallPlan] = field(default_factory=list)
    bridges: List[BridgeFirewallPlan] = field(default_factory=list)
    ciphering: List[CipheringFirewallPlan] = field(default_factory=list)
    keys: List[tuple] = field(default_factory=list)
    reaction: ReactionPolicy = field(default_factory=ReactionPolicy)
    config_memory_capacity: int = 16
    placement: str = "leaf"

    def __post_init__(self) -> None:
        if self.placement not in FIREWALL_PLACEMENTS:
            raise ValueError(
                f"placement must be one of {FIREWALL_PLACEMENTS}, got {self.placement!r}"
            )


def _window_rules(
    spec: ScenarioSpec, slave: SlaveSpec, next_spi: int, keys: List[Tuple[int, int]]
) -> Tuple[List[PlanRule], int]:
    """Ciphering-firewall rules for one DDR slave's protection windows."""
    policies = default_policies()
    rules: List[PlanRule] = []
    offset = slave.base
    windows = list(slave.windows)
    remainder = slave.size - sum(w.size for w in windows)
    for window in windows:
        if window.protection == "plain":
            rules.append(
                PlanRule(offset, window.size, policies["ddr_plain"], label=f"{slave.name}_plain")
            )
        else:
            secure = window.protection == "secure"
            policy = SecurityPolicy(
                spi=next_spi,
                rwa=ReadWriteAccess.READ_WRITE,
                allowed_formats=frozenset({1, 2, 4}),
                confidentiality=ConfidentialityMode.CIPHER,
                integrity=IntegrityMode.HASH_TREE if secure else IntegrityMode.BYPASS,
                key_spi=next_spi,
                max_burst_length=16,
                description=f"{slave.name} {window.protection} window",
            )
            keys.append((next_spi, spec.key_seed + len(keys)))
            next_spi += 1
            rules.append(
                PlanRule(offset, window.size, policy, label=f"{slave.name}_{window.protection}")
            )
        offset += window.size
    if remainder > 0:
        rules.append(
            PlanRule(offset, remainder, policies["ddr_plain"], label=f"{slave.name}_plain")
        )
    return rules, next_spi


def _bridge_plans(spec: ScenarioSpec) -> List[BridgeFirewallPlan]:
    """Centralized-style rule sets for every bridge of the topology.

    A bridge firewall cannot tell masters apart the way a leaf LF can —
    its rules are per address range only, exactly like the paper's
    centralized security bridge.  Every slave region gets a rule by kind
    (word-only for register-file IPs, full access otherwise) unless the
    bridge's ``deny`` list names it, in which case the absence of a rule
    default-denies all cross-segment access to it at this bridge.
    """
    policies = default_policies()
    plans: List[BridgeFirewallPlan] = []
    for bridge in spec.topology.bridges:
        rules: List[PlanRule] = []
        for slave in spec.topology.slaves:
            if slave.name in bridge.deny:
                continue
            policy = policies["ip_registers"] if slave.is_register_kind else policies["internal_full"]
            rules.append(PlanRule(slave.base, slave.size, policy, label=slave.region_name))
        plans.append(BridgeFirewallPlan(bridge.name, rules))
    return plans


def build_plan(spec: ScenarioSpec) -> SecurityPlan:
    """Derive the security plan from the spec's topology and policy map.

    ``spec.placement`` decides where the Local Firewalls go: leaf
    interfaces (the paper's distributed layout), the fabric's bridges
    (the in-topology centralized baseline) or both.  The Local Ciphering
    Firewall always stays at its external memory — it is the
    cryptographic boundary, not an access-control placement choice.
    """
    topology = spec.topology
    policies = default_policies()
    leaf = spec.placement in ("leaf", "both")

    keys: List[Tuple[int, int]] = []
    next_spi = _SCENARIO_SPI_BASE
    ciphering: List[CipheringFirewallPlan] = []
    for slave in topology.slaves_of_kind("ddr"):
        if not slave.firewall:
            continue
        rules, next_spi = _window_rules(spec, slave, next_spi, keys)
        ciphering.append(CipheringFirewallPlan(slave.name, rules))

    masters: List[MasterFirewallPlan] = []
    for master in topology.masters if leaf else ():
        if not master.firewall:
            continue
        rules = []
        for slave in topology.slaves:
            if not master.can_access(slave.name):
                continue
            if slave.is_register_kind:
                policy = policies["ip_registers"]
                if slave.name in master.readonly:
                    policy = policy.with_updates(
                        rwa=ReadWriteAccess.READ_ONLY,
                        description="word-only, read-only access to IP registers",
                    )
            elif slave.name in master.readonly:
                policy = policies["internal_readonly"]
            else:
                policy = policies["internal_full"]
            rules.append(PlanRule(slave.base, slave.size, policy, label=slave.region_name))
        masters.append(
            MasterFirewallPlan(
                master=master.name,
                rules=rules,
                flood_threshold=spec.flood_threshold,
                flood_window=spec.flood_window,
            )
        )

    slaves: List[SlaveFirewallPlan] = []
    for slave in topology.slaves if leaf else ():
        if slave.kind == "ddr" or not slave.firewall:
            continue
        policy = policies["ip_registers"] if slave.is_register_kind else policies["internal_full"]
        slaves.append(
            SlaveFirewallPlan(
                slave.name,
                [PlanRule(slave.base, slave.size, policy, label=slave.name)],
            )
        )

    bridges: List[BridgeFirewallPlan] = (
        _bridge_plans(spec) if spec.placement in ("bridge", "both") else []
    )

    return SecurityPlan(
        masters=masters,
        slaves=slaves,
        bridges=bridges,
        ciphering=ciphering,
        keys=keys,
        reaction=ReactionPolicy(quarantine_after=spec.quarantine_after),
        config_memory_capacity=spec.config_memory_capacity,
        placement=spec.placement,
    )
