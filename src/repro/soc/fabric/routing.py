"""Multi-segment route resolution.

The runtime datapath never consults this module: each segment's address map
carries proxy regions pointing at the next-hop bridge endpoint, so routing a
transaction is exactly one (memoised) ``AddressMap.decode`` per hop.  The
router is the *control plane* that places those proxy regions: it runs
:func:`bridge_paths`, a BFS over the segment/bridge graph that finds the
shortest bridge path between any two segments (ties broken by bridge
registration order, deterministically), and it answers whole-path queries —
"which bridges does an access from segment S to address A cross?" — for the
metrics layer and for tests.  The static verifier runs the same
:func:`bridge_paths` over a spec, so it reasons about the routes the
datapath installs.

Resolved routes are memoised in a bounded LRU keyed by
``(segment, address, size)``, mirroring the decode cache of
:class:`~repro.soc.address_map.AddressMap`.
"""

from __future__ import annotations

from collections import OrderedDict, deque
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from repro.soc.address_map import AddressRegion, DecodeError

__all__ = ["Route", "FabricRouter", "RoutingError", "bridge_paths"]


def bridge_paths(
    segments: Iterable[str], bridges: Iterable[Tuple[str, str, str]]
) -> Dict[Tuple[str, str], Tuple[str, ...]]:
    """Shortest bridge path between every pair of connected segments.

    ``bridges`` are ``(name, a, b)`` triples in declaration order.  The BFS
    visits neighbours in that order from a FIFO frontier, so equal-length
    paths break ties by declaration order.  Unconnected pairs are absent.
    """
    segments = list(segments)
    adjacency: Dict[str, List[Tuple[str, str]]] = {name: [] for name in segments}
    for name, a, b in bridges:
        adjacency[a].append((b, name))
        adjacency[b].append((a, name))
    paths: Dict[Tuple[str, str], Tuple[str, ...]] = {}
    for source in segments:
        paths[(source, source)] = ()
        frontier = deque([source])
        while frontier:
            current = frontier.popleft()
            path_here = paths[(source, current)]
            for neighbour, bridge_name in adjacency[current]:
                if (source, neighbour) not in paths:
                    paths[(source, neighbour)] = path_here + (bridge_name,)
                    frontier.append(neighbour)
    return paths


class RoutingError(Exception):
    """Raised when two segments are not connected by any bridge path."""


@dataclass(frozen=True)
class Route:
    """A resolved path from a source segment to the region's home segment.

    ``bridges`` lists the names of the bridges crossed, in order; an empty
    tuple means the region is local to the source segment.
    """

    region: AddressRegion
    source_segment: str
    target_segment: str
    bridges: Tuple[str, ...]

    @property
    def hops(self) -> int:
        """Number of segments traversed (1 = local access)."""
        return len(self.bridges) + 1


class FabricRouter:
    """Shortest-path resolution over a fabric's segment/bridge graph."""

    #: Upper bound on memoised routes before least-recently-used eviction.
    ROUTE_CACHE_LIMIT = 65536

    def __init__(self, fabric) -> None:
        self._fabric = fabric
        # (source segment, destination segment) -> ordered bridge-name path.
        self._paths: Dict[Tuple[str, str], Tuple[str, ...]] = {}
        self._route_cache: "OrderedDict[Tuple[str, int, int], Route]" = OrderedDict()

    # -- control plane -----------------------------------------------------------------

    def rebuild(self) -> None:
        """Recompute every segment-to-segment bridge path."""
        self._route_cache.clear()
        self._paths = bridge_paths(
            self._fabric.segments,
            ((bridge.name, *bridge.segment_names) for bridge in self._fabric.bridges.values()),
        )

    def path(self, source: str, destination: str) -> Tuple[str, ...]:
        """Bridge names crossed from ``source`` to ``destination``."""
        try:
            return self._paths[(source, destination)]
        except KeyError:
            raise RoutingError(
                f"no bridge path from segment {source!r} to {destination!r}"
            ) from None

    def next_hop(self, source: str, destination: str) -> Optional[str]:
        """First bridge on the path, or None for a local destination."""
        path = self.path(source, destination)
        return path[0] if path else None

    # -- queries ----------------------------------------------------------------------

    def resolve(self, segment: str, address: int, size: int = 1) -> Route:
        """Full route for an access issued on ``segment`` to ``address``.

        Raises :class:`~repro.soc.address_map.DecodeError` when the address is
        unmapped and :class:`RoutingError` when the home segment is
        unreachable.  Answers are memoised (bounded LRU).
        """
        key = (segment, address, size)
        cached = self._route_cache.get(key)
        if cached is not None:
            self._route_cache.move_to_end(key)
            return cached
        region = self._fabric.address_map.decode(address, size)
        target = self._fabric.segment_of_region(region.name)
        route = Route(
            region=region,
            source_segment=segment,
            target_segment=target,
            bridges=self.path(segment, target),
        )
        if len(self._route_cache) >= self.ROUTE_CACHE_LIMIT:
            self._route_cache.popitem(last=False)
        self._route_cache[key] = route
        return route

    def try_resolve(self, segment: str, address: int, size: int = 1) -> Optional[Route]:
        """Like :meth:`resolve` but returns None instead of raising."""
        try:
            return self.resolve(segment, address, size)
        except (DecodeError, RoutingError):
            return None
