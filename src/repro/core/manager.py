"""Distributed security-policy management and runtime reaction.

The paper's perspectives announce two extensions that this module implements
so the reproduction also covers the "future work" surface:

* "We also plan to integrate reconfiguration of security services (i.e.
  modification of security policies) to counter some attacks against the
  system" -- :meth:`SecurityPolicyManager.reconfigure_policy`.
* Reaction to detected attacks: quarantine of the offending IP (its Local
  Firewall blocks everything), zeroisation of cryptographic keys, and
  counting of reaction latency (cycles between the violation and the
  countermeasure taking effect) — the paper's first security feature is that
  "the system must react as fast as possible".

The manager stays true to the distributed philosophy: it never sits on the
datapath (unlike the centralised SEM of Coburn et al. discussed in the related
work); it only *observes* alerts through the :class:`SecurityMonitor` and
*rewrites configuration memories*, which are the per-firewall trusted units.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.core.alerts import SecurityAlert, SecurityMonitor, Severity, ViolationType
from repro.core.local_firewall import LocalFirewall
from repro.core.policy import ReactionPolicy, SecurityPolicy
from repro.crypto.keys import KeyStore
from repro.soc.kernel import Simulator

__all__ = ["ReactionEvent", "SecurityPolicyManager"]


@dataclass(frozen=True)
class ReactionEvent:
    """Record of one countermeasure applied by the manager."""

    cycle: int
    kind: str
    target: str
    detail: str = ""


class SecurityPolicyManager:
    """Watches the security monitor and reconfigures firewalls in reaction."""

    def __init__(
        self,
        sim: Simulator,
        monitor: SecurityMonitor,
        reaction: Optional[ReactionPolicy] = None,
        key_store: Optional[KeyStore] = None,
    ) -> None:
        self.sim = sim
        self.monitor = monitor
        self.reaction = reaction or ReactionPolicy()
        self.key_store = key_store
        self._firewalls: Dict[str, LocalFirewall] = {}
        self._guarded_master: Dict[str, str] = {}  # master name -> firewall name
        self._violations_by_master: Dict[str, int] = {}
        self.reactions: List[ReactionEvent] = []
        monitor.subscribe(self._on_alert)

    # -- registration --------------------------------------------------------------

    def register_firewall(self, firewall: LocalFirewall, guards_master: Optional[str] = None) -> None:
        """Track a firewall; ``guards_master`` names the bus master whose
        traffic this firewall filters (None for slave-side firewalls)."""
        self._firewalls[firewall.name] = firewall
        if guards_master is not None:
            self._guarded_master[guards_master] = firewall.name

    def firewall(self, name: str) -> LocalFirewall:
        return self._firewalls[name]

    # -- explicit reconfiguration API (the paper's perspective) -------------------------

    def reconfigure_policy(self, firewall_name: str, rule_base: int, policy: SecurityPolicy) -> bool:
        """Swap the policy of one rule in one firewall's configuration memory."""
        firewall = self._firewalls[firewall_name]
        changed = firewall.config_memory.replace_policy(rule_base, policy)
        if changed:
            self._record("reconfigure_policy", firewall_name,
                         f"rule at {rule_base:#x} now uses SPI {policy.spi}")
        return changed

    def quarantine(self, master: str) -> bool:
        """Quarantine the firewall guarding ``master`` (blocks all its traffic)."""
        firewall_name = self._guarded_master.get(master)
        if firewall_name is None:
            return False
        firewall = self._firewalls[firewall_name]
        if not firewall.quarantined:
            firewall.quarantined = True
            self._record("quarantine", master, f"via {firewall_name}")
        return True

    def release(self, master: str) -> bool:
        """Lift a quarantine (e.g. after re-provisioning the IP)."""
        firewall_name = self._guarded_master.get(master)
        if firewall_name is None:
            return False
        firewall = self._firewalls[firewall_name]
        if firewall.quarantined:
            firewall.quarantined = False
            self._record("release", master, f"via {firewall_name}")
        return True

    def zeroise_keys(self) -> bool:
        """Erase every key in the key store (last-resort countermeasure)."""
        if self.key_store is None:
            return False
        was_locked = self.key_store.locked
        if was_locked:
            self.key_store.unlock()
        self.key_store.zeroise_all()
        if was_locked:
            self.key_store.lock()
        self._record("zeroise_keys", "key_store", "all keys erased")
        return True

    # -- automatic reactions ----------------------------------------------------------

    def _on_alert(self, alert: SecurityAlert) -> None:
        self._violations_by_master[alert.master] = (
            self._violations_by_master.get(alert.master, 0) + 1
        )

        if (
            self.reaction.zeroise_keys_on_critical
            and alert.severity is Severity.CRITICAL
            and alert.violation is ViolationType.INTEGRITY_FAILURE
        ):
            self.zeroise_keys()

        if self._violations_by_master[alert.master] >= self.reaction.quarantine_after:
            self.quarantine(alert.master)

    def _record(self, kind: str, target: str, detail: str = "") -> None:
        self.reactions.append(
            ReactionEvent(cycle=self.sim.now, kind=kind, target=target, detail=detail)
        )
        event_bus = self.sim.event_bus
        if event_bus is not None:
            event_bus.emit(
                "security.reconfiguration" if kind == "reconfigure_policy" else "security.reaction",
                self.sim.now, "security_manager",
                reaction=kind, target=target, detail=detail,
            )

    # -- analysis -----------------------------------------------------------------------

    def reaction_latency(self) -> Optional[int]:
        """Cycles between the first alert and the first countermeasure."""
        first_alert = self.monitor.first_detection_cycle()
        if first_alert is None or not self.reactions:
            return None
        first_reaction = min(event.cycle for event in self.reactions)
        return max(0, first_reaction - first_alert)

    def summary(self) -> Dict[str, object]:
        """Compact view of the manager's activity."""
        return {
            "firewalls": sorted(self._firewalls),
            "violations_by_master": dict(self._violations_by_master),
            "reactions": [
                {"cycle": e.cycle, "kind": e.kind, "target": e.target, "detail": e.detail}
                for e in self.reactions
            ],
            "reaction_latency": self.reaction_latency(),
        }
