"""Multi-segment route resolution.

The runtime datapath never consults this module: each segment's address map
carries proxy regions pointing at the next-hop bridge endpoint, so routing a
transaction is exactly one (memoised) ``AddressMap.decode`` per hop.  The
router is the *control plane* that places those proxy regions: it runs
:func:`bridge_paths`, a BFS over the segment/bridge graph that finds the
shortest bridge path between any two segments (ties broken by bridge
registration order, deterministically).  The static verifier runs the same
:func:`bridge_paths` over a spec, so it reasons about the routes the
datapath installs.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Iterable, List, Optional, Tuple

__all__ = ["FabricRouter", "RoutingError", "bridge_paths"]


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


class FabricRouter:
    """Shortest-path resolution over a fabric's segment/bridge graph."""

    def __init__(self, fabric) -> None:
        self._fabric = fabric
        # (source segment, destination segment) -> ordered bridge-name path.
        self._paths: Dict[Tuple[str, str], Tuple[str, ...]] = {}

    def rebuild(self) -> None:
        """Recompute every segment-to-segment bridge path."""
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
