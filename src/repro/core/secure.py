"""Attach the distributed security enhancements to a platform.

:func:`secure_reference_platform` takes an unprotected
:class:`~repro.soc.system.SoCSystem` (as produced by
:func:`repro.soc.system.build_reference_platform`) and builds the protected
system of the paper's Figure 1:

* a Local Firewall on every master interface (each MicroBlaze, the DMA IP),
* a Local Firewall on every internal slave interface (BRAM, dedicated IP),
* a Local Ciphering Firewall between the bus and the external DDR,
* one trusted Configuration Memory per firewall, one platform-wide
  :class:`SecurityMonitor` and one :class:`SecurityPolicyManager`.

The default security policies follow the paper's threat model: internal
communications are not encrypted (the LFs protect them against unauthorized
access), while the external memory is split into a ciphered+authenticated
window, a ciphered-only window and an unprotected window ("many systems do
not provide a uniform protection but allow some parts of the memory to be
unprotected or only ciphered").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.core.alerts import SecurityMonitor
from repro.core.ciphering_firewall import LocalCipheringFirewall
from repro.core.local_firewall import LocalFirewall
from repro.core.manager import ReactionPolicy, SecurityPolicyManager
from repro.core.policy import (
    ConfidentialityMode,
    ConfigurationMemory,
    IntegrityMode,
    ReadWriteAccess,
    SecurityPolicy,
)
from repro.crypto.keys import KeyStore, random_key
from repro.soc.system import SoCSystem

__all__ = [
    "SecurityConfiguration",
    "SecuredPlatform",
    "secure_reference_platform",
    "default_policies",
    "PlanRule",
    "MasterFirewallPlan",
    "SlaveFirewallPlan",
    "BridgeFirewallPlan",
    "CipheringFirewallPlan",
    "SecurityPlan",
    "FIREWALL_PLACEMENTS",
    "default_plan",
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


# Well-known SPI values used by the default configuration.
SPI_INTERNAL_FULL = 1
SPI_INTERNAL_READONLY = 2
SPI_IP_REGISTERS = 3
SPI_DDR_SECURE = 10
SPI_DDR_CIPHER_ONLY = 11
SPI_DDR_PLAIN = 12


@dataclass
class SecurityConfiguration:
    """Tunable parameters of the protected platform."""

    #: Attach Local Firewalls to master interfaces (CPUs, DMA).
    protect_masters: bool = True
    #: Attach Local Firewalls to the internal slave interfaces (BRAM, IP).
    protect_internal_slaves: bool = True
    #: Attach the Local Ciphering Firewall to the external memory interface.
    protect_external_memory: bool = True

    #: Size of the ciphered + authenticated window at the bottom of the DDR.
    #: Kept small by default because the behavioural AES/SHA models are pure
    #: Python; enlarge for experiments that need a bigger protected footprint.
    ddr_secure_size: int = 8 * 1024
    #: Size of the ciphered-only window that follows it.
    ddr_cipher_only_size: int = 8 * 1024

    #: Masters allowed to reach the dedicated IP's registers.  cpu2 and the
    #: DMA engine are deliberately left out by default: they have no business
    #: touching the IP's key/control registers, which is what makes the
    #: hijacked-IP attack scenarios meaningful.
    ip_masters: List[str] = field(default_factory=lambda: ["cpu0", "cpu1"])

    #: DoS heuristic of the master-side firewalls (None disables it).
    flood_threshold: Optional[int] = None
    flood_window: int = 100

    #: Reaction thresholds of the security manager.
    reaction: ReactionPolicy = field(default_factory=ReactionPolicy)

    #: Deterministic seed for key generation.
    key_seed: int = 0x5EC0_0001

    #: Capacity of each configuration memory (number of rules).
    config_memory_capacity: int = 16

    #: Provision (encrypt + authenticate) the protected DDR windows at setup.
    #: The default is False because a freshly built platform has an all-zero
    #: DDR, which matches the hash tree's initial state: blocks are protected
    #: lazily on their first write.  Set True when the DDR is pre-loaded with
    #: an image (e.g. firmware) that must be ciphered before the system runs.
    provision_external_memory: bool = False


def default_policies() -> Dict[str, SecurityPolicy]:
    """The security policies installed by the default configuration."""
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
        "ddr_secure": SecurityPolicy(
            spi=SPI_DDR_SECURE,
            rwa=ReadWriteAccess.READ_WRITE,
            allowed_formats=frozenset({1, 2, 4}),
            confidentiality=ConfidentialityMode.CIPHER,
            integrity=IntegrityMode.HASH_TREE,
            key_spi=SPI_DDR_SECURE,
            max_burst_length=16,
            description="ciphered and authenticated external-memory window",
        ),
        "ddr_cipher_only": SecurityPolicy(
            spi=SPI_DDR_CIPHER_ONLY,
            rwa=ReadWriteAccess.READ_WRITE,
            allowed_formats=frozenset({1, 2, 4}),
            confidentiality=ConfidentialityMode.CIPHER,
            integrity=IntegrityMode.BYPASS,
            key_spi=SPI_DDR_CIPHER_ONLY,
            max_burst_length=16,
            description="ciphered-only external-memory window",
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
        config: SecurityConfiguration,
        monitor: SecurityMonitor,
        manager: SecurityPolicyManager,
        key_store: KeyStore,
    ) -> None:
        self.system = system
        self.config = config
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
# executes any plan against any :class:`SoCSystem`.
# ``secure_reference_platform`` builds the paper's default plan from a
# :class:`SecurityConfiguration`; the scenario engine (:mod:`repro.scenarios`)
# builds plans for arbitrary topologies.


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
    provision: bool = False


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


def default_plan(system: SoCSystem, config: SecurityConfiguration) -> SecurityPlan:
    """The paper's Figure-1 security plan for the reference platform."""
    policies = default_policies()
    soc_config = system.config

    bram_base = soc_config.bram_base
    bram_size = soc_config.bram_size
    ip_base = soc_config.ip_regs_base
    ip_size = 4 * soc_config.ip_n_registers
    ddr_base = soc_config.ddr_base
    ddr_size = soc_config.ddr_size

    plan = SecurityPlan(
        keys=[(SPI_DDR_SECURE, config.key_seed), (SPI_DDR_CIPHER_ONLY, config.key_seed + 1)],
        reaction=config.reaction,
        config_memory_capacity=config.config_memory_capacity,
    )

    if config.protect_masters:
        for master_name in system.master_ports:
            rules = [
                PlanRule(bram_base, bram_size, policies["internal_full"], label="bram"),
                PlanRule(ddr_base, ddr_size, policies["internal_full"], label="ddr"),
            ]
            if master_name in config.ip_masters:
                rules.append(PlanRule(ip_base, ip_size, policies["ip_registers"], label="ip0_regs"))
            # Masters not listed in ip_masters simply have no rule covering the
            # IP registers: default-deny keeps them out.
            plan.masters.append(
                MasterFirewallPlan(
                    master=master_name,
                    rules=rules,
                    flood_threshold=config.flood_threshold,
                    flood_window=config.flood_window,
                )
            )

    if config.protect_internal_slaves:
        plan.slaves.append(
            SlaveFirewallPlan("bram", [PlanRule(bram_base, bram_size, policies["internal_full"], label="bram")])
        )
        plan.slaves.append(
            SlaveFirewallPlan("ip0", [PlanRule(ip_base, ip_size, policies["ip_registers"], label="ip0")])
        )

    if config.protect_external_memory:
        secure_size = min(config.ddr_secure_size, ddr_size)
        cipher_only_size = min(config.ddr_cipher_only_size, ddr_size - secure_size)
        plain_base = ddr_base + secure_size + cipher_only_size
        plain_size = ddr_size - secure_size - cipher_only_size

        rules = []
        if secure_size > 0:
            rules.append(PlanRule(ddr_base, secure_size, policies["ddr_secure"], label="ddr_secure"))
        if cipher_only_size > 0:
            rules.append(
                PlanRule(
                    ddr_base + secure_size,
                    cipher_only_size,
                    policies["ddr_cipher_only"],
                    label="ddr_cipher_only",
                )
            )
        if plain_size > 0:
            rules.append(PlanRule(plain_base, plain_size, policies["ddr_plain"], label="ddr_plain"))
        plan.ciphering.append(
            CipheringFirewallPlan("ddr", rules, provision=config.provision_external_memory)
        )

    return plan


def attach_security(
    system: SoCSystem,
    plan: SecurityPlan,
    config: Optional[SecurityConfiguration] = None,
) -> SecuredPlatform:
    """Execute a :class:`SecurityPlan` against a platform.

    Builds the monitor, key store and manager, then attaches one firewall per
    plan entry (master LFs, internal slave LFs, LCFs on external memories),
    each with its own trusted Configuration Memory.  ``config`` is recorded on
    the returned :class:`SecuredPlatform` for reporting; it does not influence
    the attachment, which is driven entirely by the plan.
    """
    config = config or SecurityConfiguration()
    sim = system.sim

    monitor = SecurityMonitor()
    monitor.event_bus = sim.event_bus
    key_store = KeyStore()
    for spi, seed in plan.keys:
        key_store.install(spi, random_key(seed))
    manager = SecurityPolicyManager(sim, monitor, reaction=plan.reaction, key_store=key_store)
    platform = SecuredPlatform(system, config, monitor, manager, key_store)
    platform.placement = plan.placement

    # -- master-side Local Firewalls ---------------------------------------------------
    for master_plan in plan.masters:
        port = system.master_ports[master_plan.master]
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
        port = system.slave_ports.get(slave_plan.slave)
        if port is None:
            continue
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
    if plan.bridges:
        fabric_bridges = getattr(system.bus, "bridges", None)
        if not fabric_bridges:
            raise ValueError(
                "security plan places firewalls on bridges, but the platform's "
                "interconnect has none (flat bus?)"
            )
        for bridge_plan in plan.bridges:
            try:
                bridge = fabric_bridges[bridge_plan.bridge]
            except KeyError as exc:
                raise ValueError(
                    f"security plan references unknown bridge {bridge_plan.bridge!r}; "
                    f"known: {sorted(fabric_bridges)}"
                ) from exc
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
        device = system.memories[cipher_plan.slave]
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
        if cipher_plan.provision:
            lcf.protect_existing_contents()

    # Keys are provisioned; lock the store for the rest of the run.
    key_store.lock()
    return platform


def secure_reference_platform(
    system: SoCSystem,
    config: Optional[SecurityConfiguration] = None,
) -> SecuredPlatform:
    """Attach the paper's default security plan to a reference platform.

    Equivalent to ``attach_security(system, default_plan(system, config))``:
    the paper's layout expressed as the default security plan.
    """
    config = config or SecurityConfiguration()
    return attach_security(system, default_plan(system, config), config)

