"""Attach the distributed security enhancements to a platform.

:func:`attach_security` executes a
:class:`~repro.scenarios.plan.SecurityPlan` against a
:class:`~repro.soc.system.SoCSystem` and returns the
:class:`SecuredPlatform` handle.  For the paper's Figure 1 that means:

* a Local Firewall on every master interface (each MicroBlaze, the DMA IP),
* a Local Firewall on every internal slave interface (BRAM, dedicated IP),
* a Local Ciphering Firewall between the bus and the external DDR,
* one trusted Configuration Memory per firewall, one platform-wide
  :class:`SecurityMonitor` and one :class:`SecurityPolicyManager`.

:func:`repro.scenarios.plan.build_plan` derives the plan of every platform
from its scenario spec.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Mapping, Optional, TypeVar

from repro.core.alerts import SecurityMonitor
from repro.core.ciphering_firewall import LocalCipheringFirewall
from repro.core.local_firewall import LocalFirewall
from repro.core.manager import SecurityPolicyManager
from repro.core.policy import ConfigurationMemory
from repro.crypto.keys import KeyStore, random_key
from repro.soc.system import SoCSystem

if TYPE_CHECKING:
    # A runtime import would cycle: repro.scenarios loads the builder, which
    # loads this module.
    from repro.scenarios.plan import PlanRule, SecurityPlan

__all__ = ["SecuredPlatform", "attach_security"]


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
        #: Which of :data:`~repro.scenarios.spec.FIREWALL_PLACEMENTS` the
        #: executed plan implemented (recorded by :func:`attach_security`).
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


_Endpoint = TypeVar("_Endpoint")


def _endpoint(kind: str, endpoints: Mapping[str, _Endpoint], name: str) -> _Endpoint:
    """The platform endpoint a plan entry names, or a ValueError naming it."""
    try:
        return endpoints[name]
    except KeyError:
        raise ValueError(
            f"security plan names unknown {kind} {name!r}; known: {sorted(endpoints)}"
        ) from None


def _memory(
    plan: SecurityPlan, name: str, rules: List[PlanRule], label: str = ""
) -> ConfigurationMemory:
    """The trusted Configuration Memory ``cfg_<name>`` holding ``rules``
    (``label`` names the rules that carry none)."""
    memory = ConfigurationMemory(f"cfg_{name}", capacity=plan.config_memory_capacity)
    for rule in rules:
        memory.add(rule.base, rule.size, rule.policy, label=rule.label or label)
    return memory


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
        memory = _memory(plan, master_plan.master, master_plan.rules)
        firewall = LocalFirewall(
            sim,
            master_plan.firewall,
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
        memory = _memory(plan, slave_plan.slave, slave_plan.rules, slave_plan.slave)
        firewall = LocalFirewall(
            sim,
            slave_plan.firewall,
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
        memory = _memory(plan, bridge_plan.bridge, bridge_plan.rules)
        firewall = LocalFirewall(
            sim,
            bridge_plan.firewall,
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
        memory = _memory(plan, cipher_plan.slave, cipher_plan.rules)
        lcf = LocalCipheringFirewall(
            sim,
            cipher_plan.firewall,
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
