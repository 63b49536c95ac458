"""The interconnect fabric: segments, bridges and multi-hop routing.

The paper's evaluation platform hangs every IP off one flat shared bus, so
its distributed-vs-centralized argument is only ever exercised at leaf
interfaces.  Realistic MPSoCs are hierarchical — CPU-local segments bridged
to DMA/peripheral segments — and firewall *placement* (leaf ports vs.
bridges) is the in-topology analogue of the paper's axis.  Every platform is
an :class:`InterconnectFabric`; the paper's flat shared bus is the fabric
with one segment and no bridges.  This package provides:

* :mod:`repro.soc.fabric.arbiters` — arbitration policies,
* :mod:`repro.soc.fabric.segment` — :class:`BusSegment`, one shared bus,
* :mod:`repro.soc.fabric.bridge` — :class:`BusBridge` with configurable
  forwarding latency, posted-write buffering and a firewall-capable filter
  chain,
* :mod:`repro.soc.fabric.routing` — :class:`FabricRouter`, shortest bridge
  paths over the segment graph,
* :mod:`repro.soc.fabric.fabric` — :class:`InterconnectFabric`, the composed
  interconnect.
"""

from repro.soc.fabric.arbiters import Arbiter, FixedPriorityArbiter, RoundRobinArbiter
from repro.soc.fabric.segment import BusMonitor, BusSegment
from repro.soc.fabric.bridge import BridgeEndpoint, BusBridge
from repro.soc.fabric.routing import FabricRouter, RoutingError
from repro.soc.fabric.fabric import FabricMonitor, InterconnectFabric

__all__ = [
    "Arbiter",
    "RoundRobinArbiter",
    "FixedPriorityArbiter",
    "BusMonitor",
    "BusSegment",
    "BusBridge",
    "BridgeEndpoint",
    "FabricRouter",
    "RoutingError",
    "FabricMonitor",
    "InterconnectFabric",
]
