"""The interconnect fabric every platform is built on.

:class:`InterconnectFabric` composes :class:`~repro.soc.fabric.segment.
BusSegment` instances and :class:`~repro.soc.fabric.bridge.BusBridge`
components into one interconnect:

* ``add_segment`` / ``add_bridge`` declare the structure,
* ``add_region`` places every address region on its home segment,
* ``finalize`` asks the :class:`~repro.soc.fabric.routing.FabricRouter` for
  shortest bridge paths and installs *proxy regions* in every segment's
  address map — a region owned by another segment decodes, on this segment,
  to the next-hop bridge's ingress endpoint.  Multi-hop forwarding then falls
  out of each segment decoding independently: the bridge re-submits on the
  next segment, whose own map either serves the region locally or forwards
  again.

Masters and slaves attach to a named segment (``None`` = the default/first
segment).  The paper's flat shared bus is a fabric with one segment and no
bridges; its transfers charge the ``"bus"`` latency stage, while the
segments of a larger fabric each charge ``"bus:<segment>"``.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.soc.address_map import AddressMap, AddressRegion
from repro.soc.fabric.arbiters import Arbiter
from repro.soc.fabric.bridge import BusBridge
from repro.soc.fabric.routing import FabricRouter
from repro.soc.fabric.segment import BusSegment, BusMonitor
from repro.soc.kernel import Component, Simulator
from repro.soc.ports import MasterPort, SlavePort
from repro.soc.transaction import BusTransaction

__all__ = ["InterconnectFabric", "FabricMonitor"]


class FabricMonitor:
    """Aggregated :class:`BusMonitor` view over every segment of a fabric.

    A transaction crossing ``n`` segments is observed once per hop, so counts
    are *hop observations* — exactly what a per-segment bus monitor would see
    in hardware.  The view is computed on demand from the live per-segment
    monitors, so it is always current.
    """

    def __init__(self, fabric: "InterconnectFabric") -> None:
        self._fabric = fabric

    def _monitors(self) -> List[BusMonitor]:
        return [segment.monitor for segment in self._fabric.segments.values()]

    @property
    def history(self) -> List[BusTransaction]:
        merged: List[BusTransaction] = []
        for monitor in self._monitors():
            merged.extend(monitor.history)
        return merged

    @property
    def per_master(self) -> Dict[str, int]:
        merged: Dict[str, int] = {}
        for monitor in self._monitors():
            for master, count in monitor.per_master.items():
                merged[master] = merged.get(master, 0) + count
        return merged

    @property
    def per_slave(self) -> Dict[str, int]:
        merged: Dict[str, int] = {}
        for monitor in self._monitors():
            for slave, count in monitor.per_slave.items():
                merged[slave] = merged.get(slave, 0) + count
        return merged

    def count(self) -> int:
        return sum(monitor.count() for monitor in self._monitors())


class InterconnectFabric(Component):
    """Bus segments joined by bridges behind one wiring and monitoring API."""

    def __init__(
        self,
        sim: Simulator,
        name: str = "fabric",
        address_phase_cycles: int = 1,
        data_phase_cycles_per_beat: int = 1,
        bus_width: int = 4,
    ) -> None:
        super().__init__(sim, name)
        self.address_phase_cycles = address_phase_cycles
        self.data_phase_cycles_per_beat = data_phase_cycles_per_beat
        self.bus_width = bus_width
        self.segments: Dict[str, BusSegment] = {}
        self.bridges: Dict[str, BusBridge] = {}
        self.router = FabricRouter(self)
        self._global_map = AddressMap()
        self._region_segment: Dict[str, str] = {}
        self._default_segment: Optional[str] = None
        self._finalized = False
        self._monitor_view = FabricMonitor(self)

    # -- structure ---------------------------------------------------------------------

    def add_segment(
        self,
        name: str,
        arbiter: Optional[Arbiter] = None,
        address_phase_cycles: Optional[int] = None,
        data_phase_cycles_per_beat: Optional[int] = None,
    ) -> BusSegment:
        """Declare one bus segment; the first added becomes the default."""
        if self._finalized:
            raise RuntimeError("fabric is finalized; cannot add segments")
        if name in self.segments:
            raise ValueError(f"segment {name} already exists")
        segment = BusSegment(
            self.sim,
            name,
            address_map=AddressMap(),
            arbiter=arbiter,
            address_phase_cycles=(
                self.address_phase_cycles if address_phase_cycles is None else address_phase_cycles
            ),
            data_phase_cycles_per_beat=(
                self.data_phase_cycles_per_beat
                if data_phase_cycles_per_beat is None
                else data_phase_cycles_per_beat
            ),
            bus_width=self.bus_width,
        )
        self.segments[name] = segment
        if self._default_segment is None:
            self._default_segment = name
        return segment

    def add_bridge(
        self,
        name: str,
        a: str,
        b: str,
        forward_latency: int = 2,
        posted_writes: bool = False,
        buffer_depth: int = 4,
    ) -> BusBridge:
        """Declare a bridge joining segments ``a`` and ``b``."""
        if self._finalized:
            raise RuntimeError("fabric is finalized; cannot add bridges")
        if name in self.bridges:
            raise ValueError(f"bridge {name} already exists")
        if a == b:
            raise ValueError(f"bridge {name} must join two distinct segments")
        bridge = BusBridge(
            self.sim,
            name,
            self.segment(a),
            self.segment(b),
            forward_latency=forward_latency,
            posted_writes=posted_writes,
            buffer_depth=buffer_depth,
        )
        self.bridges[name] = bridge
        # The ingress endpoints are ordinary slave ports of their segments,
        # addressed by the proxy regions ``finalize`` installs.
        self.segments[a].connect_slave(bridge.endpoint_a, slave_name=f"bridge:{name}")
        self.segments[b].connect_slave(bridge.endpoint_b, slave_name=f"bridge:{name}")
        return bridge

    def add_region(
        self,
        name: str,
        base: int,
        size: int,
        slave: str,
        external: bool = False,
        segment: Optional[str] = None,
    ) -> AddressRegion:
        """Register an address region on its home segment."""
        if self._finalized:
            raise RuntimeError("fabric is finalized; cannot add regions")
        home = self._resolve_segment(segment)
        region = self._global_map.add_region(name, base, size, slave=slave, external=external)
        self._region_segment[name] = home
        return region

    def finalize(self) -> None:
        """Compute routes and install local + proxy regions on every segment.

        A one-segment fabric keeps the ``"bus"`` latency stage; the segments
        of a larger one charge ``"bus:<segment>"`` so per-hop latency can be
        attributed.
        """
        if self._finalized:
            raise RuntimeError("fabric is already finalized")
        if len(self.segments) > 1:
            for name, segment in self.segments.items():
                segment.latency_stage = f"bus:{name}"
        self.router.rebuild()
        for region in self._global_map:
            home = self._region_segment[region.name]
            for segment_name, segment in self.segments.items():
                if segment_name == home:
                    segment.address_map.add_region(
                        region.name, region.base, region.size,
                        slave=region.slave, external=region.external,
                    )
                    continue
                next_hop = self.router.next_hop(segment_name, home)
                # ``path`` raised RoutingError if unreachable; next_hop is a
                # bridge name here because home != segment_name.
                segment.address_map.add_region(
                    region.name, region.base, region.size,
                    slave=f"bridge:{next_hop}", external=region.external,
                )
        self._finalized = True

    # -- segment resolution --------------------------------------------------------------

    def segment(self, name: Optional[str] = None) -> BusSegment:
        """The named segment (``None`` = the default segment)."""
        resolved = self._resolve_segment(name)
        return self.segments[resolved]

    def _resolve_segment(self, name: Optional[str]) -> str:
        if name is None:
            if self._default_segment is None:
                raise RuntimeError("fabric has no segments yet")
            return self._default_segment
        if name not in self.segments:
            raise KeyError(f"no segment named {name!r}; known: {sorted(self.segments)}")
        return name

    # -- wiring and monitoring --------------------------------------------------------------

    def connect_master(self, port: MasterPort, segment: Optional[str] = None) -> None:
        self.segment(segment).connect_master(port)

    def connect_slave(
        self,
        port: SlavePort,
        slave_name: Optional[str] = None,
        segment: Optional[str] = None,
    ) -> None:
        self.segment(segment).connect_slave(port, slave_name=slave_name)

    @property
    def address_map(self) -> AddressMap:
        """The global map: every region of every segment."""
        return self._global_map

    @property
    def monitor(self) -> FabricMonitor:
        return self._monitor_view

    @property
    def master_names(self) -> List[str]:
        names: List[str] = []
        for segment in self.segments.values():
            names.extend(segment.master_names)
        return names

    @property
    def slave_names(self) -> List[str]:
        names: List[str] = []
        for segment in self.segments.values():
            names.extend(segment.slave_names)
        return names

    def pending_count(self) -> int:
        return sum(segment.pending_count() for segment in self.segments.values())

    # -- reporting -----------------------------------------------------------------------

    def describe(self) -> Dict[str, object]:
        """Structural description of the fabric (segments, bridges, regions)."""
        return {
            "segments": {
                name: {
                    "masters": segment.master_names,
                    "slaves": segment.slave_names,
                    "regions": [r.name for r in segment.address_map],
                }
                for name, segment in self.segments.items()
            },
            "bridges": {name: bridge.summary() for name, bridge in self.bridges.items()},
            "default_segment": self._default_segment,
        }
