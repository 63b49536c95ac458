"""Attach the distributed security enhancements to a platform.

A :class:`SecurityPlan` lists the firewalls to attach and the rules each
trusted Configuration Memory holds; :func:`attach_security` executes it
against a :class:`~repro.soc.system.SoCSystem` and returns the
:class:`SecuredPlatform` handle.  For the paper's Figure 1 that means:

* a Local Firewall on every master interface (each MicroBlaze, the DMA IP),
* a Local Firewall on every internal slave interface (BRAM, dedicated IP),
* a Local Ciphering Firewall between the bus and the external DDR,
* one trusted Configuration Memory per firewall, one platform-wide
  :class:`SecurityMonitor` and one :class:`SecurityPolicyManager`.

:class:`repro.scenarios.builder.ScenarioBuilder` derives the plan of every
platform from its scenario spec.  Internal communications are not encrypted
(the LFs protect them against unauthorized access), while the external
memory is split into protection windows ("many systems do not provide a
uniform protection but allow some parts of the memory to be unprotected or
only ciphered").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, TypeVar

from repro.core.alerts import SecurityMonitor
from repro.core.ciphering_firewall import LocalCipheringFirewall
from repro.core.local_firewall import LocalFirewall
from repro.core.manager import ReactionPolicy, SecurityPolicyManager
from repro.core.policy import ConfigurationMemory, ReadWriteAccess, SecurityPolicy
from repro.crypto.keys import KeyStore, random_key
from repro.soc.system import SoCSystem

__all__ = [
    "SecuredPlatform",
    "default_policies",
    "PlanRule",
    "MasterFirewallPlan",
    "SlaveFirewallPlan",
    "BridgeFirewallPlan",
    "CipheringFirewallPlan",
    "SecurityPlan",
    "FIREWALL_PLACEMENTS",
    "attach_security",
]


#: Where a security plan places its Local Firewalls.
#:
#: * ``"leaf"`` — the paper's distributed layout: an LF at every master/slave
#:   interface (plus the LCF at external memories).
#: * ``"bridge"`` — LFs only on the fabric's bus bridges: every cross-segment
#:   access is checked at a chokepoint, reproducing the centralized-security-
#:   bridge baseline *inside* a distributed topology (intra-segment traffic is
#:   unchecked, which is exactly the weakness the paper argues against).
#: * ``"both"`` — leaf and bridge firewalls together (defence in depth).
FIREWALL_PLACEMENTS = ("leaf", "bridge", "both")


# Well-known SPI values of the default policies.
SPI_INTERNAL_FULL = 1
SPI_INTERNAL_READONLY = 2
SPI_IP_REGISTERS = 3
SPI_DDR_PLAIN = 12


def default_policies() -> Dict[str, SecurityPolicy]:
    """The access-control policies plans are built from."""
    return {
        "internal_full": SecurityPolicy(
            spi=SPI_INTERNAL_FULL,
            rwa=ReadWriteAccess.READ_WRITE,
            allowed_formats=frozenset({1, 2, 4}),
            max_burst_length=16,
            description="full read/write access to internal resources",
        ),
        "internal_readonly": SecurityPolicy(
            spi=SPI_INTERNAL_READONLY,
            rwa=ReadWriteAccess.READ_ONLY,
            allowed_formats=frozenset({1, 2, 4}),
            max_burst_length=16,
            description="read-only window (e.g. shared code in BRAM)",
        ),
        "ip_registers": SecurityPolicy(
            spi=SPI_IP_REGISTERS,
            rwa=ReadWriteAccess.READ_WRITE,
            allowed_formats=frozenset({4}),
            max_burst_length=1,
            description="word-only, single-beat access to IP registers",
        ),
        "ddr_plain": SecurityPolicy(
            spi=SPI_DDR_PLAIN,
            rwa=ReadWriteAccess.READ_WRITE,
            allowed_formats=frozenset({1, 2, 4}),
            max_burst_length=16,
            description="unprotected external-memory window",
        ),
    }


class SecuredPlatform:
    """Handle on a platform with the security enhancements attached.

    ``ciphering_firewalls`` maps external-memory slave names to their Local
    Ciphering Firewalls; ``ciphering_firewall`` remains the primary (first
    attached) LCF for the single-external-memory platforms of the paper.
    """

    def __init__(
        self,
        system: SoCSystem,
        monitor: SecurityMonitor,
        manager: SecurityPolicyManager,
        key_store: KeyStore,
    ) -> None:
        self.system = system
        self.monitor = monitor
        self.manager = manager
        self.key_store = key_store
        self.master_firewalls: Dict[str, LocalFirewall] = {}
        self.slave_firewalls: Dict[str, LocalFirewall] = {}
        self.bridge_firewalls: Dict[str, LocalFirewall] = {}
        self.ciphering_firewalls: Dict[str, LocalCipheringFirewall] = {}
        #: Which of :data:`FIREWALL_PLACEMENTS` the executed plan implemented
        #: (recorded by :func:`attach_security`).
        self.placement: str = "leaf"

    @property
    def ciphering_firewall(self) -> Optional[LocalCipheringFirewall]:
        """The primary (first attached) Local Ciphering Firewall, if any."""
        if not self.ciphering_firewalls:
            return None
        return next(iter(self.ciphering_firewalls.values()))

    @property
    def all_firewalls(self) -> List[LocalFirewall]:
        firewalls: List[LocalFirewall] = list(self.master_firewalls.values())
        firewalls.extend(self.slave_firewalls.values())
        firewalls.extend(self.bridge_firewalls.values())
        firewalls.extend(self.ciphering_firewalls.values())
        return firewalls

    def local_firewall_count(self) -> int:
        """Number of plain Local Firewalls (excludes the LCF)."""
        return (
            len(self.master_firewalls)
            + len(self.slave_firewalls)
            + len(self.bridge_firewalls)
        )

    def summary(self) -> Dict[str, object]:
        """Aggregate view used by reports and the detection experiments.

        Covers every firewall class, including the bridge-placed Local
        Firewalls of hierarchical fabrics, and records the plan's placement
        so reports can label the leaf-vs-bridge split.
        """
        return {
            "placement": self.placement,
            "firewall_counts": {
                "master": len(self.master_firewalls),
                "slave": len(self.slave_firewalls),
                "bridge": len(self.bridge_firewalls),
                "ciphering": len(self.ciphering_firewalls),
            },
            "bridge_firewalls": sorted(self.bridge_firewalls),
            "firewalls": {fw.name: fw.summary() for fw in self.all_firewalls},
            "alerts": self.monitor.summary(),
            "reactions": self.manager.summary(),
        }


# ---------------------------------------------------------------------------
# Security plans: a declarative description of where firewalls go
# ---------------------------------------------------------------------------
#
# The Figure-1 layout (every master, BRAM + IP on the slave side, one LCF on
# the DDR) is data: a :class:`SecurityPlan` lists the firewalls to attach and
# the rules each Configuration Memory holds, and :func:`attach_security`
# executes any plan against any :class:`SoCSystem`.  The scenario engine
# (:mod:`repro.scenarios`) builds the plan of every topology.


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


@dataclass
class SlaveFirewallPlan:
    """A Local Firewall on one internal slave interface."""

    slave: str
    rules: List[PlanRule] = field(default_factory=list)


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


@dataclass
class CipheringFirewallPlan:
    """A Local Ciphering Firewall on one external-memory interface."""

    slave: str
    rules: List[PlanRule] = field(default_factory=list)


@dataclass
class SecurityPlan:
    """Everything :func:`attach_security` needs to protect a platform.

    ``keys`` lists ``(spi, seed)`` pairs installed into the trusted key store
    before any firewall is built (ciphering policies reference them through
    their ``key_spi``).

    ``placement`` records which of :data:`FIREWALL_PLACEMENTS` the plan
    implements; it is descriptive — attachment is driven by which of the
    ``masters`` / ``slaves`` / ``bridges`` lists are populated — but reports
    and the metrics layer use it to label the leaf-vs-bridge split.
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


_Endpoint = TypeVar("_Endpoint")


def _endpoint(kind: str, endpoints: Mapping[str, _Endpoint], name: str) -> _Endpoint:
    """The platform endpoint a plan entry names, or a ValueError naming it."""
    try:
        return endpoints[name]
    except KeyError:
        raise ValueError(
            f"security plan names unknown {kind} {name!r}; known: {sorted(endpoints)}"
        ) from None


def attach_security(system: SoCSystem, plan: SecurityPlan) -> SecuredPlatform:
    """Execute a :class:`SecurityPlan` against a platform.

    Builds the monitor, key store and manager, then attaches one firewall per
    plan entry (master LFs, internal slave LFs, bridge LFs, LCFs on external
    memories), each with its own trusted Configuration Memory.  A plan entry
    naming a master, slave, bridge or memory the platform lacks raises
    :class:`ValueError`.
    """
    sim = system.sim

    monitor = SecurityMonitor()
    monitor.event_bus = sim.event_bus
    key_store = KeyStore()
    for spi, seed in plan.keys:
        key_store.install(spi, random_key(seed))
    manager = SecurityPolicyManager(sim, monitor, reaction=plan.reaction, key_store=key_store)
    platform = SecuredPlatform(system, monitor, manager, key_store)
    platform.placement = plan.placement

    # -- master-side Local Firewalls ---------------------------------------------------
    for master_plan in plan.masters:
        port = _endpoint("master", system.master_ports, master_plan.master)
        memory = ConfigurationMemory(
            f"cfg_{master_plan.master}", capacity=plan.config_memory_capacity
        )
        for rule in master_plan.rules:
            memory.add(rule.base, rule.size, rule.policy, label=rule.label)
        firewall = LocalFirewall(
            sim,
            f"lf_{master_plan.master}",
            memory,
            monitor=monitor,
            protected_ip=master_plan.master,
            flood_threshold=master_plan.flood_threshold,
            flood_window=master_plan.flood_window,
        )
        port.attach_filter(firewall)
        platform.master_firewalls[master_plan.master] = firewall
        manager.register_firewall(firewall, guards_master=master_plan.master)

    # -- internal slave-side Local Firewalls ----------------------------------------------
    for slave_plan in plan.slaves:
        port = _endpoint("slave", system.slave_ports, slave_plan.slave)
        memory = ConfigurationMemory(
            f"cfg_{slave_plan.slave}", capacity=plan.config_memory_capacity
        )
        for rule in slave_plan.rules:
            memory.add(rule.base, rule.size, rule.policy, label=rule.label or slave_plan.slave)
        firewall = LocalFirewall(
            sim,
            f"lf_{slave_plan.slave}",
            memory,
            monitor=monitor,
            protected_ip=slave_plan.slave,
        )
        port.attach_filter(firewall)
        platform.slave_firewalls[slave_plan.slave] = firewall
        manager.register_firewall(firewall)

    # -- bridge-placed Local Firewalls -----------------------------------------------------
    for bridge_plan in plan.bridges:
        bridge = _endpoint("bridge", system.bus.bridges, bridge_plan.bridge)
        memory = ConfigurationMemory(
            f"cfg_{bridge_plan.bridge}", capacity=plan.config_memory_capacity
        )
        for rule in bridge_plan.rules:
            memory.add(rule.base, rule.size, rule.policy, label=rule.label)
        firewall = LocalFirewall(
            sim,
            f"lf_{bridge_plan.bridge}",
            memory,
            monitor=monitor,
            protected_ip=bridge_plan.bridge,
        )
        bridge.attach_filter(firewall)
        platform.bridge_firewalls[bridge_plan.bridge] = firewall
        manager.register_firewall(firewall)

    # -- Local Ciphering Firewalls on external memories ------------------------------------
    for cipher_plan in plan.ciphering:
        device = _endpoint("memory", system.memories, cipher_plan.slave)
        memory = ConfigurationMemory(
            f"cfg_{cipher_plan.slave}", capacity=plan.config_memory_capacity
        )
        for rule in cipher_plan.rules:
            memory.add(rule.base, rule.size, rule.policy, label=rule.label)
        lcf = LocalCipheringFirewall(
            sim,
            f"lcf_{cipher_plan.slave}",
            memory,
            device=device,
            key_store=key_store,
            monitor=monitor,
            protected_ip=cipher_plan.slave,
        )
        system.slave_ports[cipher_plan.slave].attach_filter(lcf)
        platform.ciphering_firewalls[cipher_plan.slave] = lcf
        manager.register_firewall(lcf)

    # Keys are provisioned; lock the store for the rest of the run.
    key_store.lock()
    return platform
