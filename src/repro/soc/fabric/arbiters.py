"""Bus arbitration policies; each segment of a fabric owns one arbiter."""

from __future__ import annotations

from typing import Deque, Dict, List, Optional

__all__ = ["Arbiter", "RoundRobinArbiter", "FixedPriorityArbiter"]


class Arbiter:
    """Interface for bus arbitration policies."""

    def add_master(self, master: str) -> None:  # pragma: no cover - interface
        raise NotImplementedError

    def select(self, waiting: Dict[str, Deque]) -> Optional[str]:  # pragma: no cover
        """Pick the master whose oldest request is granted next, or None."""
        raise NotImplementedError


class RoundRobinArbiter(Arbiter):
    """Fair rotation over masters that have a pending request.

    The search for the next grant starts just after the master that was
    granted last, so no master can be served twice while another is waiting —
    even when masters register dynamically.
    """

    def __init__(self) -> None:
        self._order: List[str] = []
        self._index: Dict[str, int] = {}
        self._last_granted: Optional[str] = None

    def add_master(self, master: str) -> None:
        if master not in self._index:
            self._index[master] = len(self._order)
            self._order.append(master)

    def select(self, waiting: Dict[str, Deque]) -> Optional[str]:
        if not self._order:
            return None
        n = len(self._order)
        start = 0
        last = self._index.get(self._last_granted) if self._last_granted is not None else None
        if last is not None:
            start = (last + 1) % n
        for offset in range(n):
            candidate = self._order[(start + offset) % n]
            if waiting.get(candidate):
                self._last_granted = candidate
                return candidate
        return None


class FixedPriorityArbiter(Arbiter):
    """Masters are served strictly in the order they were registered."""

    def __init__(self, priority: Optional[List[str]] = None) -> None:
        self._order: List[str] = list(priority or [])

    def add_master(self, master: str) -> None:
        if master not in self._order:
            self._order.append(master)

    def select(self, waiting: Dict[str, Deque]) -> Optional[str]:
        for candidate in self._order:
            if waiting.get(candidate):
                return candidate
        return None
