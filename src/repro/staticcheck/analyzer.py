"""Static policy/fabric verification over ScenarioSpec + SecurityPlan.

The analyzer proves coverage properties about a scenario **without running a
single simulated cycle**.  It reconstructs exactly what the builder would
build — the security plan via :meth:`ScenarioBuilder.build_plan` (a pure
function of the spec) and the fabric routes via the same BFS the
:class:`~repro.soc.fabric.routing.FabricRouter` control plane runs — and
then checks, for every master → slave route, whether some hop (the master's
leaf firewall, a bridge firewall on the path, the slave's leaf firewall or
the external memory's ciphering firewall) can enforce each protection the
spec declares.

Checks
------
* **address-map defects** — overlapping slave regions, and proxy regions in
  a built fabric that diverge from the routed control plane
  (``proxy-divergence``).
* **unguarded paths** — a per-master restriction (an ``accessible`` list
  excluding a slave, or a ``readonly`` entry) that *no* hop on the route can
  enforce.  Under a leaf-claiming placement this is an ``error``
  (``unguarded-path``): the plan promises leaf coverage and a
  ``firewall=False`` master defeats it.  Under pure bridge placement it is a
  ``warning`` (``placement-gap``): address-range bridge rules structurally
  cannot tell masters apart — the paper's centralized-baseline weakness.
* **unenforced windows** — a DDR slave declaring secure/cipher-only windows
  with ``firewall=False``: the protection exists on paper only (``error``).
* **dead rules** — configuration-memory rules no physically reachable
  (master, address, op) tuple can match, e.g. a bridge rule for a region
  whose home segment no master's route crosses that bridge to reach.
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

from repro.scenarios.spec import (
    BridgeSpec,
    MasterSpec,
    ScenarioSpec,
    SlaveSpec,
    TopologySpec,
)
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
        self.leaf = spec.placement in ("leaf", "both")
        self.bridge_fw = spec.placement in ("bridge", "both")
        self.paths: Dict[Tuple[str, str], Tuple[str, ...]] = {}
        self.bridges_by_name: Dict[str, BridgeSpec] = {
            bridge.name: bridge for bridge in self.topology.bridges
        }

    # -- helpers ------------------------------------------------------------------

    def _route(self, master: MasterSpec, slave: SlaveSpec) -> Tuple[str, ...]:
        """Bridge names a master→slave access crosses ((): local/flat)."""
        source = self.topology.segment_of(master)
        target = self.topology.segment_of(slave)
        if source is None or target is None:
            return ()
        return self.paths.get((source, target), ())

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
        from repro.scenarios.builder import ScenarioBuilder
        from repro.soc.kernel import Simulator

        # Building the interconnect alone is cheap (no devices, no security).
        fabric = ScenarioBuilder(self.spec).build_interconnect(Simulator())
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

    def _bridge_denies(self, bridges: Sequence[str], slave: SlaveSpec) -> Optional[str]:
        """First bridge on the route whose deny list default-denies the slave."""
        if not self.bridge_fw:
            return None
        for name in bridges:
            if slave.name in self.bridges_by_name[name].deny:
                return name
        return None

    def _format_hop(
        self, master: MasterSpec, slave: SlaveSpec, bridges: Sequence[str]
    ) -> Optional[str]:
        """The hop enforcing the word-only format of an IP slave, if any."""
        if self.leaf and master.firewall:
            return f"lf_{master.name}"
        if self.bridge_fw:
            for name in bridges:
                if slave.name not in self.bridges_by_name[name].deny:
                    return f"lf_{name}"
        if self.leaf and slave.firewall and slave.kind != "ddr":
            return f"lf_{slave.name}"
        return None

    def check_routes(self) -> None:
        for master in self.topology.masters:
            for slave in self.topology.slaves:
                bridges = self._route(master, slave)
                self._check_restrictions(master, slave, bridges)
                self._check_format(master, slave, bridges)
        self._check_windows()

    def _check_restrictions(
        self, master: MasterSpec, slave: SlaveSpec, bridges: Sequence[str]
    ) -> None:
        """Per-master protections: accessible lists and readonly narrowing."""
        subject = f"{master.name}->{slave.name}"
        master_lf = self.leaf and master.firewall
        if not master.can_access(slave.name):
            denying_bridge = self._bridge_denies(bridges, slave)
            if master_lf:
                self.report.coverage.append(
                    self._witness(master, slave, "read", "blocked_or_alerted",
                                  enforced_by=f"lf_{master.name}")
                )
            elif denying_bridge is not None:
                self.report.coverage.append(
                    self._witness(master, slave, "read", "blocked_or_alerted",
                                  enforced_by=f"lf_{denying_bridge}")
                )
            elif self.spec.placement == "bridge":
                self._finding(
                    "placement-gap",
                    "warning",
                    subject,
                    f"{master.name} must not reach {slave.name}, but bridge "
                    "placement only carries address-range rules — no hop on the "
                    "route can express a per-master restriction",
                    self._witness(master, slave, "read", "reaches_silently"),
                )
            else:
                self._finding(
                    "unguarded-path",
                    "error",
                    subject,
                    f"{master.name} must not reach {slave.name}, but it has no "
                    "leaf firewall and no bridge on the route denies the region "
                    "— the restriction is unenforceable",
                    self._witness(master, slave, "read", "reaches_silently"),
                )
        elif slave.name in master.readonly:
            if master_lf:
                self.report.coverage.append(
                    self._witness(master, slave, "write", "blocked_or_alerted",
                                  enforced_by=f"lf_{master.name}")
                )
            elif self.spec.placement == "bridge":
                self._finding(
                    "placement-gap",
                    "warning",
                    subject,
                    f"{master.name} is read-only on {slave.name}, but only a leaf "
                    "firewall can bind an RWA restriction to one master",
                    self._witness(master, slave, "write", "reaches_silently"),
                )
            else:
                self._finding(
                    "unguarded-path",
                    "error",
                    subject,
                    f"{master.name} is read-only on {slave.name}, but it has no "
                    "leaf firewall to enforce the restriction",
                    self._witness(master, slave, "write", "reaches_silently"),
                )

    def _check_format(
        self, master: MasterSpec, slave: SlaveSpec, bridges: Sequence[str]
    ) -> None:
        """Word-only Allowed-Data-Format protection of register-bank slaves."""
        if not slave.is_register_kind or not slave.firewall:
            return
        if not master.can_access(slave.name):
            return  # already judged as an access restriction
        hop = self._format_hop(master, slave, bridges)
        if hop is not None:
            self.report.coverage.append(
                self._witness(master, slave, "write", "blocked_or_alerted",
                              width=1, enforced_by=hop)
            )
        else:
            self._finding(
                "unchecked-format",
                "warning",
                f"{master.name}->{slave.name}",
                f"no hop between {master.name} and {slave.name} checks the "
                "word-only data format of the register file",
                self._witness(master, slave, "write", "reaches_silently", width=1),
            )

    def _check_windows(self) -> None:
        """Declared DDR protection windows need a ciphering firewall."""
        for slave in self.topology.slaves_of_kind("ddr"):
            protected = [w for w in slave.windows if w.protection != "plain"]
            if not protected or slave.firewall:
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

    # -- (c) dead/shadowed rules --------------------------------------------------

    def _masters_crossing(self, bridge_name: str, base: int, size: int) -> bool:
        """Whether any master's route to [base, base+size) crosses the bridge."""
        for slave in self.topology.slaves:
            if slave.base >= base + size or base >= slave.end:
                continue
            for master in self.topology.masters:
                if bridge_name in self._route(master, slave):
                    return True
        return False

    def check_dead_rules(self) -> None:
        from repro.scenarios.builder import ScenarioBuilder

        plan = ScenarioBuilder(self.spec).build_plan()
        spans = [(slave.base, slave.end) for slave in self.topology.slaves]

        def mapped(base: int, size: int) -> bool:
            return any(base < end and start < base + size for start, end in spans)

        for master_plan in plan.masters:
            for rule in master_plan.rules:
                if not mapped(rule.base, rule.size):
                    self._finding(
                        "dead-rule",
                        "warning",
                        f"lf_{master_plan.master}:{rule.label or hex(rule.base)}",
                        f"rule [{rule.base:#x}, {rule.base + rule.size:#x}) covers "
                        "no mapped region — no transaction can ever match it",
                    )
        for slave_plan in plan.slaves:
            slave = self.topology.slave(slave_plan.slave)
            for rule in slave_plan.rules:
                if rule.base + rule.size <= slave.base or slave.end <= rule.base:
                    self._finding(
                        "dead-rule",
                        "warning",
                        f"lf_{slave_plan.slave}:{rule.label or hex(rule.base)}",
                        f"rule [{rule.base:#x}, {rule.base + rule.size:#x}) lies "
                        f"outside {slave.name}'s region — traffic arriving at its "
                        "interface can never match it",
                    )
        for bridge_plan in plan.bridges:
            for rule in bridge_plan.rules:
                if not mapped(rule.base, rule.size):
                    self._finding(
                        "dead-rule",
                        "warning",
                        f"lf_{bridge_plan.bridge}:{rule.label or hex(rule.base)}",
                        f"rule [{rule.base:#x}, {rule.base + rule.size:#x}) covers "
                        "no mapped region",
                    )
                elif not self._masters_crossing(bridge_plan.bridge, rule.base, rule.size):
                    self._finding(
                        "dead-rule",
                        "warning",
                        f"lf_{bridge_plan.bridge}:{rule.label or hex(rule.base)}",
                        f"no master's route to {rule.label or 'the region'} crosses "
                        f"bridge {bridge_plan.bridge} — the rule occupies "
                        "configuration-memory capacity but can never match",
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

    def _declared_flows(self) -> List[Tuple[MasterSpec, SlaveSpec, Tuple[str, ...]]]:
        """(master, slave, bridge path) for every declared-accessible pair."""
        flows = []
        for master in self.topology.masters:
            for slave in self.topology.slaves:
                if not master.can_access(slave.name):
                    continue
                bridges = self._route(master, slave)
                if bridges:
                    flows.append((master, slave, bridges))
        return flows

    def _check_posted_buffers(self) -> None:
        flows = self._declared_flows()
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
                downstream = self._downstream_hop(slave, bridges[index + 1:])
                if downstream is not None and slave.name not in ack_targets:
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

    def _downstream_hop(
        self, slave: SlaveSpec, later_bridges: Sequence[str]
    ) -> Optional[str]:
        """An enforcement hop strictly after a given bridge on the route."""
        if self.bridge_fw:
            for name in later_bridges:
                if slave.name not in self.bridges_by_name[name].deny:
                    return f"lf_{name}"
            for name in later_bridges:
                return f"lf_{name}"
        if slave.firewall and slave.kind == "ddr":
            return f"lcf_{slave.name}"
        if self.leaf and slave.firewall:
            return f"lf_{slave.name}"
        return None

    # -- entry point --------------------------------------------------------------

    def run(self) -> VerificationReport:
        if not self.check_address_map():
            self.report.sort()
            return self.report
        try:
            self.spec.validate()
        except ValueError as exc:
            self._finding("invalid-spec", "error", self.spec.name, str(exc))
            self.report.sort()
            return self.report
        if self.spec.enforcement == "centralized":
            self._finding(
                "centralized-enforcement",
                "info",
                self.spec.name,
                "static coverage analysis models the distributed plan; the "
                "centralized baseline is compared dynamically instead",
            )
            self.report.sort()
            return self.report
        self.paths = segment_paths(self.topology)
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
