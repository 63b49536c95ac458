"""Static policy/fabric verification over ScenarioSpec + SecurityPlan.

The analyzer proves coverage properties about a scenario **without running a
single simulated cycle**.  It loads the security plan the builder executes
(:func:`repro.scenarios.plan.build_plan`, a pure function of the spec) and
the fabric routes (the same BFS the
:class:`~repro.soc.fabric.routing.FabricRouter` control plane runs), then
evaluates the plan's rules hop by hop.  An access meets, in order, the
master's Local Firewall, each bridge firewall on its route, and the target's
Local Firewall or Local Ciphering Firewall, whichever of them the plan
holds.  The first hop whose rules deny the access enforces the protection: it
has no rule covering the access (default deny), or the covering policy's RWA
or ADF parameter forbids it.

Checks
------
* **address-map defects** — overlapping slave regions, and proxy regions in
  a built fabric that diverge from the routed control plane
  (``proxy-divergence``).
* **unguarded paths** — a per-master restriction (an ``accessible`` list
  excluding a slave, or a ``readonly`` entry) that *no* hop on the route
  denies.  Under a leaf-claiming placement this is an ``error``
  (``unguarded-path``): the plan promises leaf coverage and a
  ``firewall=False`` master defeats it.  Under pure bridge placement it is a
  ``warning`` (``placement-gap``): address-range bridge rules structurally
  cannot tell masters apart — the paper's centralized-baseline weakness.
* **unenforced windows** — a DDR slave declaring secure/cipher-only windows
  with ``firewall=False``: the protection exists on paper only (``error``).
* **dead rules** — configuration-memory rules whose firewall no master's
  route to a region they overlap meets, e.g. a bridge rule for a region
  whose home segment no master's route crosses that bridge to reach.
* **capacity overflow** — a firewall planned with more rules than
  ``config_memory_capacity``: its Configuration Memory cannot hold them
  (``error``).
* **bridge hazards** — bridges closing a cycle in the segment graph
  (``warning``: BFS tie-breaking hides one path), posted-write buffers that
  acknowledge a write before a downstream firewall has judged it (``info``),
  and opposing declared flows meeting in one bounded posted buffer
  (``info``).

Every traffic claim carries a :class:`~repro.staticcheck.findings.Witness`;
guarded routes are recorded as coverage witnesses so
:mod:`repro.staticcheck.confirm` can replay both directions.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.scenarios.plan import BridgeFirewallPlan, FirewallPlan, PlanRule, build_plan
from repro.scenarios.spec import MasterSpec, ScenarioSpec, SlaveSpec, TopologySpec
from repro.soc.fabric.routing import bridge_paths
from repro.staticcheck.findings import Finding, VerificationReport, Witness

__all__ = ["verify_spec", "verify_scenario", "segment_paths", "route_witness"]


#: Payload a write witness carries when it is replayed (4 bytes, one bus word).
PROBE_PAYLOAD = b"\x5e\xcc\x0d\xe5"


def segment_paths(topology: TopologySpec) -> Dict[Tuple[str, str], Tuple[str, ...]]:
    """Bridge path between every segment pair: the search
    :meth:`FabricRouter.rebuild` runs, so the analyzer reasons about the
    same routes the datapath installs."""
    return bridge_paths(
        (segment.name for segment in topology.segments),
        ((bridge.name, bridge.a, bridge.b) for bridge in topology.bridges),
    )


def _segments_along(
    topology: TopologySpec, start: str, bridges: Sequence[str]
) -> Tuple[str, ...]:
    """The segment sequence a route visits, derived from its bridge list."""
    by_name = {bridge.name: bridge for bridge in topology.bridges}
    segments = [start]
    current = start
    for name in bridges:
        bridge = by_name[name]
        current = bridge.b if current == bridge.a else bridge.a
        segments.append(current)
    return tuple(segments)


def _protected_window_address(slave: SlaveSpec) -> Optional[int]:
    """Address of the first non-plain protection window, if any."""
    offset = slave.base
    for window in slave.windows:
        if window.protection != "plain":
            return offset
        offset += window.size
    return None


def _witness_address(slave: SlaveSpec) -> int:
    """A representative protected address inside one slave's region.

    Register-bank slaves are probed at their first sensitive register (a
    word-wide access that passes every format check on the way — the witness
    must demonstrate the *per-master* gap, not die of a format violation);
    DDR slaves at their first protected window when one exists.
    """
    if slave.is_register_kind and slave.sensitive_registers:
        return slave.base + 4 * slave.sensitive_registers[0]
    if slave.kind == "ddr":
        window = _protected_window_address(slave)
        if window is not None:
            return window
    return slave.base


def _denies(rules: Sequence[PlanRule], address: int, width: int, write: bool) -> bool:
    """Whether a Configuration Memory holding ``rules`` denies one access.

    It does when no rule covers ``[address, address + width)`` (default
    deny), or when the covering policy's RWA or ADF parameter forbids the
    access: the predicates :class:`~repro.core.checks.ReadWriteAccessCheck`
    and :class:`~repro.core.checks.DataFormatCheck` apply.
    """
    for rule in rules:
        if rule.base <= address and address + width <= rule.base + rule.size:
            policy = rule.policy
            return not (policy.allows_operation(write) and policy.allows_format(width))
    return True


def route_witness(
    topology: TopologySpec,
    paths: Dict[Tuple[str, str], Tuple[str, ...]],
    master: MasterSpec,
    slave: SlaveSpec,
    op: str,
    expectation: str,
    *,
    address: int,
    width: int = 4,
    enforced_by: str = "",
) -> Witness:
    """The witness of one access by ``master`` to ``slave``, with the route
    it takes through ``paths`` (:func:`segment_paths` of ``topology``)."""
    source = topology.segment_of(master)
    target = topology.segment_of(slave)
    bridges: Tuple[str, ...] = ()
    segments: Tuple[str, ...] = ()
    if source is not None and target is not None:
        bridges = paths.get((source, target), ())
        segments = _segments_along(topology, source, bridges)
    return Witness(
        master=master.name,
        address=address,
        op=op,
        width=width,
        target=slave.name,
        region=slave.region_name,
        expectation=expectation,
        route_segments=segments,
        route_bridges=bridges,
        enforced_by=enforced_by,
    )


class _Analysis:
    """One verification pass over a single spec (holds the shared context)."""

    def __init__(self, spec: ScenarioSpec) -> None:
        self.spec = spec
        self.topology = spec.topology
        self.report = VerificationReport(scenario=spec.name)
        self.paths: Dict[Tuple[str, str], Tuple[str, ...]] = {}
        #: The plan's firewalls, keyed by the master, slave or bridge each guards.
        self.guards: Dict[str, FirewallPlan] = {}

    # -- helpers ------------------------------------------------------------------

    def _route(self, master: MasterSpec, slave: SlaveSpec) -> Tuple[str, ...]:
        """Bridge names a master→slave access crosses ((): local/flat)."""
        source = self.topology.segment_of(master)
        target = self.topology.segment_of(slave)
        if source is None or target is None:
            return ()
        return self.paths.get((source, target), ())

    def _hops(self, master: MasterSpec, slave: SlaveSpec) -> List[FirewallPlan]:
        """The planned firewalls a master→slave access meets, in order: the
        master's LF, each bridge LF on its route, then the target's LF or LCF."""
        names = (master.name, *self._route(master, slave), slave.name)
        return [self.guards[name] for name in names if name in self.guards]

    def _probe(
        self, master: MasterSpec, slave: SlaveSpec, op: str, width: int = 4
    ) -> Witness:
        """The witness of one access, judged by walking the plan: the first
        hop whose rules deny it enforces it (a coverage witness); when every
        hop allows it, the witness reaches its target silently."""
        address = _witness_address(slave)
        for hop in self._hops(master, slave):
            if _denies(hop.rules, address, width, op == "write"):
                return self._witness(master, slave, op, "blocked_or_alerted",
                                     width=width, enforced_by=hop.firewall)
        return self._witness(master, slave, op, "reaches_silently", width=width)

    def _witness(
        self,
        master: MasterSpec,
        slave: SlaveSpec,
        op: str,
        expectation: str,
        *,
        width: int = 4,
        enforced_by: str = "",
    ) -> Witness:
        return route_witness(
            self.topology, self.paths, master, slave, op, expectation,
            address=_witness_address(slave), width=width, enforced_by=enforced_by,
        )

    def _finding(
        self,
        code: str,
        severity: str,
        subject: str,
        message: str,
        witness: Optional[Witness] = None,
    ) -> None:
        self.report.findings.append(
            Finding(code=code, severity=severity, subject=subject,
                    message=message, witness=witness)
        )

    # -- (a) address-map defects --------------------------------------------------

    def check_address_map(self) -> bool:
        """Overlapping slave regions (returns False when the map is broken)."""
        ordered = sorted(self.topology.slaves, key=lambda s: s.base)
        clean = True
        for left, right in zip(ordered, ordered[1:]):
            if left.end > right.base:
                clean = False
                self._finding(
                    "overlapping-regions",
                    "error",
                    f"{left.name}+{right.name}",
                    f"slave regions {left.name} [{left.base:#x}, {left.end:#x}) and "
                    f"{right.name} [{right.base:#x}, {right.end:#x}) overlap: decode "
                    "order would silently decide which device serves the shared bytes",
                )
        return clean

    def check_proxy_regions(self) -> None:
        """Built fabric maps must agree with the routed control plane.

        The datapath routes through each segment's installed proxy regions;
        this cross-checks them against a fresh BFS over the spec — any
        divergence means the datapath and the control plane would route the
        same address differently.
        """
        from repro.scenarios.builder import build_interconnect
        from repro.soc.kernel import Simulator

        # Building the interconnect alone is cheap (no devices, no security).
        fabric = build_interconnect(self.topology, Simulator())
        slaves_by_region = {slave.region_name: slave for slave in self.topology.slaves}
        for segment_name, segment in fabric.segments.items():
            for region in segment.address_map:
                slave = slaves_by_region.get(region.name)
                if slave is None:
                    continue
                home = self.topology.segment_of(slave)
                expected_path = self.paths.get((segment_name, home or ""), ())
                if str(region.slave).startswith("bridge:"):
                    expected = f"bridge:{expected_path[0]}" if expected_path else None
                    if region.slave != expected:
                        self._finding(
                            "proxy-divergence",
                            "error",
                            f"{segment_name}:{region.name}",
                            f"segment {segment_name} maps {region.name} via "
                            f"{region.slave!r} but the routed path expects "
                            f"{expected!r}",
                        )
                elif (region.base, region.size) != (slave.base, slave.size):
                    self._finding(
                        "proxy-divergence",
                        "error",
                        f"{segment_name}:{region.name}",
                        f"segment {segment_name} maps {region.name} at "
                        f"[{region.base:#x}, {region.base + region.size:#x}) but the "
                        f"spec declares [{slave.base:#x}, {slave.end:#x})",
                    )

    # -- (b) unguarded paths / placement coverage ---------------------------------

    def check_routes(self) -> None:
        for master in self.topology.masters:
            for slave in self.topology.slaves:
                self._check_restrictions(master, slave)
                self._check_format(master, slave)
        self._check_windows()

    def _check_restrictions(self, master: MasterSpec, slave: SlaveSpec) -> None:
        """Per-master protections: an accessible list excluding the slave
        (probed by a read) and readonly narrowing (probed by a write)."""
        read = not master.can_access(slave.name)
        if not read and slave.name not in master.readonly:
            return
        witness = self._probe(master, slave, "read" if read else "write")
        if witness.enforced_by:
            self.report.coverage.append(witness)
            return
        if read:
            claim = f"{master.name} must not reach {slave.name}, but "
            gap = ("bridge placement only carries address-range rules — no hop "
                   "on the route can express a per-master restriction")
            unguarded = ("it has no leaf firewall and no bridge on the route "
                         "denies the region — the restriction is unenforceable")
        else:
            claim = f"{master.name} is read-only on {slave.name}, but "
            gap = "only a leaf firewall can bind an RWA restriction to one master"
            unguarded = "it has no leaf firewall to enforce the restriction"
        subject = f"{master.name}->{slave.name}"
        if self.spec.placement == "bridge":
            self._finding("placement-gap", "warning", subject, claim + gap, witness)
        else:
            self._finding("unguarded-path", "error", subject, claim + unguarded, witness)

    def _check_format(self, master: MasterSpec, slave: SlaveSpec) -> None:
        """Word-only Allowed-Data-Format protection of register-bank slaves."""
        if not slave.is_register_kind or not slave.firewall:
            return
        if not master.can_access(slave.name):
            return  # already judged as an access restriction
        witness = self._probe(master, slave, "write", width=1)
        if witness.enforced_by:
            self.report.coverage.append(witness)
        else:
            self._finding(
                "unchecked-format",
                "warning",
                f"{master.name}->{slave.name}",
                f"no hop between {master.name} and {slave.name} checks the "
                "word-only data format of the register file",
                witness,
            )

    def _check_windows(self) -> None:
        """Declared DDR protection windows need a planned ciphering firewall."""
        for slave in self.topology.slaves_of_kind("ddr"):
            protected = [w for w in slave.windows if w.protection != "plain"]
            if not protected or slave.name in self.guards:
                continue
            witness: Optional[Witness] = None
            for master in self.topology.masters:
                if master.can_access(slave.name):
                    witness = self._witness(master, slave, "read", "reaches_silently")
                    break
            self._finding(
                "unenforced-window",
                "error",
                slave.name,
                f"{slave.name} declares {len(protected)} protected window(s) but "
                "firewall=False attaches no ciphering firewall — the protection "
                "exists on paper only",
                witness,
            )

    # -- (c) dead rules -----------------------------------------------------------

    def check_dead_rules(self) -> None:
        """A rule is dead when no master's route to a region it overlaps meets
        its firewall: it occupies configuration-memory capacity for nothing."""
        met = {
            (hop.firewall, slave.name)
            for master in self.topology.masters
            for slave in self.topology.slaves
            for hop in self._hops(master, slave)
        }
        for guarded, entry in self.guards.items():
            for rule in entry.rules:
                if any(
                    (entry.firewall, slave.name) in met
                    for slave in self.topology.slaves
                    if slave.base < rule.base + rule.size and rule.base < slave.end
                ):
                    continue
                where = (
                    f"bridge {guarded}" if isinstance(entry, BridgeFirewallPlan)
                    else entry.firewall
                )
                self._finding(
                    "dead-rule",
                    "warning",
                    f"{entry.firewall}:{rule.label or hex(rule.base)}",
                    f"no master's route to {rule.label or 'the region'} crosses "
                    f"{where} — the rule occupies configuration-memory capacity "
                    "but can never match",
                )

    # -- (d) bridge-graph hazards -------------------------------------------------

    def check_bridge_hazards(self) -> None:
        self._check_cycles()
        self._check_posted_buffers()

    def _check_cycles(self) -> None:
        """Bridges that close a cycle: BFS tie-breaking hides one path."""
        parent: Dict[str, str] = {s.name: s.name for s in self.topology.segments}

        def find(name: str) -> str:
            while parent[name] != name:
                parent[name] = parent[parent[name]]
                name = parent[name]
            return name

        for bridge in self.topology.bridges:
            root_a, root_b = find(bridge.a), find(bridge.b)
            if root_a == root_b:
                self._finding(
                    "bridge-cycle",
                    "warning",
                    bridge.name,
                    f"bridge {bridge.name} closes a cycle between {bridge.a} and "
                    f"{bridge.b}: routing resolves the tie deterministically, but "
                    "one physical path carries no routed traffic (and its "
                    "firewall rules go dead)",
                )
            else:
                parent[root_a] = root_b

    def _check_posted_buffers(self) -> None:
        # (master, slave, bridge path) of every declared-accessible pair.
        flows = [
            (master, slave, self._route(master, slave))
            for master in self.topology.masters
            for slave in self.topology.slaves
            if master.can_access(slave.name)
        ]
        for bridge in self.topology.bridges:
            if not bridge.posted_writes:
                continue
            directions = set()
            ack_targets: List[str] = []
            for master, slave, bridges in flows:
                if bridge.name not in bridges:
                    continue
                source = self.topology.segment_of(master) or ""
                segments = _segments_along(self.topology, source, bridges)
                index = bridges.index(bridge.name)
                directions.add((segments[index], segments[index + 1]))
                # Writable flows with an enforcement hop *after* this bridge:
                # the bridge acks the posted write before that hop judges it.
                if slave.name in master.readonly:
                    continue
                downstream = (*bridges[index + 1:], slave.name)
                if any(name in self.guards for name in downstream) and (
                    slave.name not in ack_targets
                ):
                    ack_targets.append(slave.name)
            if len(directions) > 1:
                self._finding(
                    "posted-buffer-hazard",
                    "info",
                    bridge.name,
                    f"opposing declared flows meet in {bridge.name}'s depth-"
                    f"{bridge.buffer_depth} posted-write buffer; split-transaction "
                    "endpoints keep this deadlock-free but back-pressure stalls "
                    "both directions under load",
                )
            for target in ack_targets:
                self._finding(
                    "posted-ack-before-check",
                    "info",
                    f"{bridge.name}->{target}",
                    f"{bridge.name} acknowledges posted writes to {target} before "
                    "a downstream firewall judges them — a denied write fails "
                    "silently (posted_write_failures), invisible to the issuer",
                )

    def check_capacity(self) -> None:
        """A firewall planned with more rules than its Configuration Memory
        holds: attaching the plan would fail before any platform runs."""
        capacity = self.spec.config_memory_capacity
        for entry in self.guards.values():
            if len(entry.rules) > capacity:
                self._finding(
                    "capacity-overflow",
                    "error",
                    entry.firewall,
                    f"{entry.firewall} is planned with {len(entry.rules)} rules but "
                    f"config_memory_capacity is {capacity}: its Configuration Memory "
                    "cannot hold them",
                )

    # -- entry point --------------------------------------------------------------

    def _analyzable(self) -> bool:
        """Whether the spec validates and declares the distributed plan."""
        try:
            self.spec.validate()
        except ValueError as exc:
            self._finding("invalid-spec", "error", self.spec.name, str(exc))
            return False
        if self.spec.enforcement == "centralized":
            self._finding(
                "centralized-enforcement",
                "info",
                self.spec.name,
                "static coverage analysis models the distributed plan; the "
                "centralized baseline is compared dynamically instead",
            )
            return False
        return True

    def run(self) -> VerificationReport:
        if self.check_address_map() and self._analyzable():
            self.paths = segment_paths(self.topology)
            plan = build_plan(self.spec)
            self.guards = {
                **{entry.master: entry for entry in plan.masters},
                **{entry.slave: entry for entry in plan.slaves},
                **{entry.bridge: entry for entry in plan.bridges},
                **{entry.slave: entry for entry in plan.ciphering},
            }
            self.check_capacity()
            self.check_proxy_regions()
            self.check_routes()
            self.check_dead_rules()
            self.check_bridge_hazards()
        self.report.sort()
        return self.report


def verify_spec(spec: ScenarioSpec) -> VerificationReport:
    """Statically verify one scenario specification (no simulation)."""
    return _Analysis(spec).run()


def verify_scenario(scenario: Union[str, ScenarioSpec]) -> VerificationReport:
    """Verify a registered scenario by name (or a spec directly)."""
    if isinstance(scenario, ScenarioSpec):
        return verify_spec(scenario)
    from repro.scenarios.registry import get_scenario

    return verify_spec(get_scenario(scenario))
