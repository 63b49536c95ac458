"""Assemble live platforms from scenario specifications.

:class:`ScenarioBuilder` is the bridge between the declarative layer
(:mod:`repro.scenarios.spec`) and the simulation substrate: it instantiates
the kernel, interconnect fabric, devices and master ports for an arbitrary
topology, and attaches the distributed firewalls of the spec's security plan
(:func:`repro.scenarios.plan.build_plan`) through
:func:`repro.core.secure.attach_security` (or the centralized baseline
through :func:`repro.baselines.centralized.secure_platform_centralized`).
It only assembles: the plan says which firewalls exist and what each holds.
It is the only code that builds a platform.  The result is a
:class:`BuiltScenario` that can load the workload mix, schedule mid-run
reconfigurations and instantiate the attack mix.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace
from typing import List, Optional, Tuple, Union

from repro.attacks.chains import (
    BootRollbackChain,
    DescriptorHijackChain,
    FirmwareSabotageChain,
)
from repro.attacks.cross_segment import CrossSegmentProbe, CrossSegmentWriteStorm
from repro.attacks.dos import DoSFloodAttack
from repro.attacks.hijack import ExfiltrationAttack, HijackedIPAttack, SensitiveRegisterProbe
from repro.attacks.memory_attacks import RelocationAttack, ReplayAttack, SpoofingAttack
from repro.baselines.centralized import CentralizedPlatform, secure_platform_centralized
from repro.core.policy import ReadWriteAccess
from repro.core.secure import SecuredPlatform, attach_security
from repro.soc.fabric import FixedPriorityArbiter, InterconnectFabric, RoundRobinArbiter
from repro.soc.devices import DmaDescriptorRing, FirmwareUpdateIP, SecureBootSequencer
from repro.soc.ip import RegisterFileIP
from repro.soc.kernel import Simulator
from repro.soc.memory import BlockRAM, ExternalDDR
from repro.soc.system import SoCConfig, SoCSystem
from repro.soc.transaction import BusTransaction, Step
from repro.workloads.generators import SyntheticWorkloadConfig, SyntheticWorkloadGenerator

from repro.scenarios.plan import SecurityPlan, build_plan
from repro.scenarios.spec import ScenarioSpec, SegmentSpec, TopologySpec

__all__ = ["ATTACK_KINDS", "ScenarioBuilder", "BuiltScenario", "build_interconnect", "instantiate_attacks"]


#: Attack classes instantiable from an :class:`AttackSpec`.
ATTACK_KINDS = {
    "spoofing": SpoofingAttack,
    "replay": ReplayAttack,
    "relocation": RelocationAttack,
    "sensitive_register_probe": SensitiveRegisterProbe,
    "hijacked_ip_write": HijackedIPAttack,
    "exfiltration": ExfiltrationAttack,
    "dos_flood": DoSFloodAttack,
    "cross_segment_probe": CrossSegmentProbe,
    "cross_segment_write_storm": CrossSegmentWriteStorm,
    "firmware_update_chain": FirmwareSabotageChain,
    "descriptor_hijack_chain": DescriptorHijackChain,
    "boot_rollback_chain": BootRollbackChain,
}


def instantiate_attacks(spec: ScenarioSpec) -> List[object]:
    """Fresh attack instances for one run of the scenario's attack mix."""
    attacks = []
    for attack_spec in spec.attacks:
        try:
            cls = ATTACK_KINDS[attack_spec.kind]
        except KeyError as exc:
            raise ValueError(
                f"unknown attack kind {attack_spec.kind!r}; known: {sorted(ATTACK_KINDS)}"
            ) from exc
        try:
            attacks.append(cls(**attack_spec.params))
        except TypeError as exc:
            raise ValueError(f"attack {attack_spec.kind!r}: {exc}") from None
    return attacks


def _check_attacks(spec: ScenarioSpec) -> None:
    """Refuse an attack mix the spec's platform cannot run, before anything
    is built: an unknown kind, a parameter the attack class lacks, or a
    master (``hijacked_master``, ``victim``) or IP (a chain's ``device`` or
    ``ring``) the topology lacks.  Each message is the one the campaign
    raises on reaching the attack."""
    if not spec.attacks:
        return
    topology = spec.topology
    masters = sorted(master.name for master in topology.masters)
    ips = sorted(slave.name for slave in topology.slaves if slave.is_register_kind)
    for attack in instantiate_attacks(spec):
        for name in (getattr(attack, "hijacked_master", None), getattr(attack, "victim", None)):
            if name is not None and name not in masters:
                raise ValueError(f"no master named {name!r}; known: {masters}")
        for name in (getattr(attack, "device", None), getattr(attack, "ring", None)):
            if name is not None and name not in ips:
                raise ValueError(f"no IP named {name!r}; known: {ips}")


def build_interconnect(topology: TopologySpec, sim: Simulator) -> InterconnectFabric:
    """The topology's finalized fabric, without devices or security.

    A flat topology is one round-robin segment named ``system_bus`` in a
    fabric of the same name.
    """
    name = "fabric" if topology.hierarchical else "system_bus"
    fabric = InterconnectFabric(sim, name)
    for segment in topology.segments or (SegmentSpec(name),):
        arbiter = (
            FixedPriorityArbiter()
            if segment.arbiter == "fixed_priority"
            else RoundRobinArbiter()
        )
        fabric.add_segment(segment.name, arbiter=arbiter)
    for bridge in topology.bridges:
        fabric.add_bridge(
            bridge.name,
            bridge.a,
            bridge.b,
            forward_latency=bridge.forward_latency,
            posted_writes=bridge.posted_writes,
            buffer_depth=bridge.buffer_depth,
        )
    for slave in topology.slaves:
        fabric.add_region(
            slave.region_name,
            slave.base,
            slave.size,
            slave=slave.name,
            external=(slave.kind == "ddr"),
            segment=topology.segment_of(slave),
        )
    fabric.finalize()
    return fabric


@dataclass
class BuiltScenario:
    """A constructed platform plus the scenario hooks to drive it."""

    spec: ScenarioSpec
    system: SoCSystem
    security: Optional[Union[SecuredPlatform, CentralizedPlatform]] = None

    @property
    def protected(self) -> bool:
        return self.security is not None

    @property
    def monitor(self):
        return self.security.monitor if self.security is not None else None

    def issue(self, step: Step) -> Tuple[BusTransaction, int]:
        """Issue ``step`` through :meth:`SoCSystem.issue`; returns its
        transaction and how many alerts it raised."""
        monitor = self.monitor
        before = len(monitor.alerts) if monitor is not None else 0
        txn = self.system.issue(step)
        return txn, len(monitor.alerts) - before if monitor is not None else 0

    # -- workload ------------------------------------------------------------------

    def load_workload(self) -> None:
        """Generate and load one synthetic program per CPU master."""
        workload = self.spec.workload
        if workload is None:
            return
        generator = SyntheticWorkloadGenerator(self.system.config)
        primary_ddr = self.spec.topology.primary("ddr")
        primary_ip = self.spec.topology.primary("ip")
        params = asdict(workload)
        params.pop("stagger")
        base_cfg = SyntheticWorkloadConfig(**params)
        for index, master in enumerate(self.spec.topology.cpu_masters()):
            # Same per-CPU seed decorrelation as
            # SyntheticWorkloadGenerator.generate_per_cpu, so scenario
            # workloads stay comparable with make_uniform_programs sweeps.
            cfg = replace(base_cfg, seed=workload.seed + 1000 * (index + 1))
            if primary_ddr is None or not master.can_access(primary_ddr.name):
                cfg = replace(cfg, external_share=0.0)
            if primary_ip is None or not master.can_access(primary_ip.name):
                cfg = replace(cfg, ip_share_of_internal=0.0)
            program = generator.generate(cfg, name=f"{self.spec.name}_{master.name}")
            self.system.processors[master.name].load_program(program)

    def schedule_reconfigurations(self) -> None:
        """Arm the spec's mid-run reconfiguration events on the simulator.

        Only meaningful on protected distributed builds (the unprotected
        platform has no Configuration Memories to rewrite).
        """
        if not self.spec.reconfigs:
            return
        if not isinstance(self.security, SecuredPlatform):
            return
        manager = self.security.manager
        for event in self.spec.reconfigs:
            def apply(event=event):
                firewall = manager.firewall(event.firewall)
                memory = firewall.config_memory
                if event.action == "remove_rule":
                    if not memory.remove(event.rule_base):
                        raise ValueError(
                            f"{self.spec.name}: reconfiguration targets no rule at "
                            f"{event.rule_base:#x} in {event.firewall}"
                        )
                    return
                for rule in memory.rules:
                    if rule.base == event.rule_base:
                        manager.reconfigure_policy(
                            event.firewall,
                            event.rule_base,
                            rule.policy.with_updates(rwa=ReadWriteAccess.READ_ONLY),
                        )
                        return
                raise ValueError(
                    f"{self.spec.name}: reconfiguration targets no rule at "
                    f"{event.rule_base:#x} in {event.firewall}"
                )
            self.system.sim.schedule_at(event.at_cycle, apply)

    def run_workload(self) -> int:
        """Load the workload, arm reconfigurations, run to completion.

        Returns the final simulation cycle.
        """
        if self.spec.workload is None:
            return self.system.sim.now
        self.load_workload()
        self.schedule_reconfigurations()
        self.system.start_all(stagger=self.spec.workload.stagger)
        return self.system.run()

    def attacks(self) -> List[object]:
        """Fresh instances of the scenario's attack mix."""
        return instantiate_attacks(self.spec)


class ScenarioBuilder:
    """Build :class:`BuiltScenario` instances from a :class:`ScenarioSpec`.

    The spec is validated once, here, and its attack mix is checked against
    its topology (``_check_attacks``).  The security plan is derived on the
    first protected distributed build and every later build attaches that
    same plan.  Attaching only reads it, each platform builds its own
    Configuration Memories, firewalls and hash trees, and the plan objects a
    platform keeps (each rule's ``SecurityPolicy``, the ``ReactionPolicy``)
    are frozen.

    ``verify=True`` runs the static verifier first and raises
    :class:`~repro.staticcheck.findings.StaticCheckError` when the spec has
    error findings.
    """

    def __init__(self, spec: ScenarioSpec, *, verify: bool = False) -> None:
        spec.validate()
        _check_attacks(spec)
        self.spec = spec
        self._plan: Optional[SecurityPlan] = None
        # Imported lazily: the analyzer itself imports this module.
        if verify:
            from repro.staticcheck.analyzer import verify_spec
            from repro.staticcheck.findings import StaticCheckError

            report = verify_spec(spec)
            if report.has_errors:
                raise StaticCheckError(report)

    # -- platform construction ----------------------------------------------------------

    def _mirror_config(self) -> SoCConfig:
        """A :class:`SoCConfig` mirroring the primary devices of the topology.

        Attacks, workload generators and the centralized baseline address
        the platform through ``system.config``; pointing its fields at the
        scenario's primary bram/ip/ddr keeps that code working on any
        topology that has them.
        """
        topology = self.spec.topology
        config = SoCConfig()
        bram = topology.primary("bram")
        if bram is not None:
            config.bram_name = bram.name
            config.bram_base = bram.base
            config.bram_size = bram.size
        ip = topology.primary("ip")
        if ip is not None:
            config.ip_name = ip.name
            config.ip_regs_base = ip.base
            config.ip_n_registers = ip.n_registers
        ddr = topology.primary("ddr")
        if ddr is not None:
            config.ddr_name = ddr.name
            config.ddr_base = ddr.base
            config.ddr_size = ddr.size
        return config

    def build_system(self) -> SoCSystem:
        """Instantiate kernel, interconnect, devices and masters."""
        topology = self.spec.topology
        sim = Simulator()
        system = SoCSystem(sim, build_interconnect(topology, sim), self._mirror_config())

        for slave in topology.slaves:
            segment = topology.segment_of(slave)
            if slave.kind == "bram":
                system.add_memory(
                    BlockRAM(
                        sim, slave.name, base=slave.base, size=slave.size,
                        read_latency=slave.latency, write_latency=slave.latency,
                    ),
                    segment=segment,
                )
            elif slave.kind == "ddr":
                system.add_memory(
                    ExternalDDR(
                        sim, slave.name, base=slave.base, size=slave.size,
                        row_hit_latency=slave.row_hit_latency,
                        row_miss_latency=slave.row_miss_latency,
                    ),
                    segment=segment,
                )
            else:
                register_kwargs = dict(
                    n_registers=slave.n_registers,
                    access_latency=slave.access_latency,
                    sensitive_registers=list(slave.sensitive_registers),
                )
                if slave.kind == "firmware":
                    device = FirmwareUpdateIP(
                        sim, slave.name, base=slave.base, **register_kwargs
                    )
                elif slave.kind == "dma_ring":
                    device = DmaDescriptorRing(
                        sim, slave.name, base=slave.base, **register_kwargs
                    )
                elif slave.kind == "secure_boot":
                    device = SecureBootSequencer(
                        sim, slave.name, base=slave.base,
                        key_seed=slave.boot_key_seed,
                        debug_unlock=slave.debug_unlock,
                        **register_kwargs,
                    )
                else:
                    device = RegisterFileIP(
                        sim, slave.name, base=slave.base, **register_kwargs
                    )
                system.add_ip(device, segment=segment)

        for master in topology.masters:
            segment = topology.segment_of(master)
            if master.kind == "cpu":
                system.add_processor(master.name, segment=segment)
            else:
                system.add_dma(master.name, segment=segment)
        return system

    # -- top-level -----------------------------------------------------------------------

    def build(self, protected: bool = True) -> BuiltScenario:
        """Construct the platform, optionally with its security enhancements.

        :class:`repro.api.Experiment` wraps this with the workload, the
        attack campaign and the metrics; ``Experiment.from_spec(spec).build()``
        returns the same :class:`BuiltScenario` with instrumentation wired.
        """
        system = self.build_system()
        if not protected:
            return BuiltScenario(self.spec, system, None)
        if self.spec.enforcement == "centralized":
            security = secure_platform_centralized(system, self.spec.config_memory_capacity)
        else:
            if self._plan is None:
                self._plan = build_plan(self.spec)
            security = attach_security(system, self._plan)
        return BuiltScenario(self.spec, system, security)
