"""Bus bridges: transaction forwarding between segments.

A :class:`BusBridge` joins two :class:`~repro.soc.fabric.segment.BusSegment`
instances.  On each side it exposes a :class:`BridgeEndpoint` that the
segment treats as an ordinary slave port: when a transaction's address
decodes to a region owned by another segment, the segment's address map
routes it to the bridge endpoint, and the bridge re-submits it on the far
segment after a configurable ``forward_latency``.

Two behaviours mirror real bridge IP (PLBv46 bridges, AXI interconnects):

* **posted writes** — with ``posted_writes=True`` a write is acknowledged to
  the issuer as soon as it enters the bridge's buffer, while the bridge
  drains the buffer onto the far segment in the background.  The buffer is
  bounded (``buffer_depth``); when full, writes fall back to non-posted
  forwarding, which back-pressures the issuing segment.  Ordering is
  preserved: while posted writes are pending, later transactions (reads in
  particular) join the same FIFO instead of overtaking them, so a
  read-after-write through the bridge always observes the posted data.
* **firewall placement** — the bridge carries the same
  :class:`~repro.soc.ports.TransactionFilter` chain as the leaf ports, so a
  Local Firewall can be attached *at the bridge* instead of (or in addition
  to) the leaf interfaces.  That is the paper's centralized-vs-distributed
  axis expressed inside one topology: a bridge-firewalled fabric checks
  cross-segment traffic at a single chokepoint, exactly like a centralized
  security bridge would.  Traffic denied here terminates with
  ``BLOCKED_AT_BRIDGE``.

Forwarding charges its cycles to the ``"bridge:<name>"`` latency stage, so
the metrics layer can attribute every hop of a multi-segment path.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, List, Tuple

from repro.soc.kernel import Component, Simulator
from repro.soc.ports import TransactionFilter, apply_filter_chain
from repro.soc.transaction import BusTransaction, TransactionStatus

__all__ = ["BusBridge", "BridgeEndpoint"]


class BridgeEndpoint:
    """Slave-side ingress of a bridge on one segment.

    Implements just enough of the :class:`~repro.soc.ports.SlavePort` surface
    (``name``, ``device``, ``filters``, ``deliver``) for a segment to route
    transactions into it.  Bridge endpoints are *split-transaction* slaves:
    the delivering segment releases its bus at handoff instead of stalling
    until the remote reply, which is what makes opposing cross-segment
    traffic through one bridge deadlock-free.
    """

    #: Segments release at handoff instead of holding the bus (see
    #: :meth:`BusSegment._grant`).
    split_transactions = True

    def __init__(self, bridge: "BusBridge", side: str) -> None:
        self.bridge = bridge
        self.side = side
        self.name = f"{bridge.name}_{side}"
        self.device = bridge
        self.filters: List[TransactionFilter] = []

    def deliver(self, txn: BusTransaction, reply: Callable[[BusTransaction], None]) -> None:
        self.bridge._ingress(self.side, txn, reply)


class BusBridge(Component):
    """Forwards transactions between two bus segments, in both directions."""

    def __init__(
        self,
        sim: Simulator,
        name: str,
        a_segment,
        b_segment,
        forward_latency: int = 2,
        posted_writes: bool = False,
        buffer_depth: int = 4,
    ) -> None:
        super().__init__(sim, name)
        if forward_latency < 0:
            raise ValueError("forward_latency must be non-negative")
        if buffer_depth < 1:
            raise ValueError("buffer_depth must be >= 1")
        self.a_segment = a_segment
        self.b_segment = b_segment
        self.forward_latency = forward_latency
        self.posted_writes = posted_writes
        self.buffer_depth = buffer_depth
        self.endpoint_a = BridgeEndpoint(self, "a")
        self.endpoint_b = BridgeEndpoint(self, "b")
        self.filters: List[TransactionFilter] = []
        #: Forwarding FIFO: posted-write clones plus any later transaction
        #: that must stay ordered behind them.  Entries are
        #: ``("posted", clone, target)`` or ``("ordered", txn, reply, target)``.
        self._buffer: Deque[Tuple] = deque()
        self._draining = False
        #: Posted entries currently buffered or in flight (tracked as a
        #: counter so ingress admission is O(1) instead of a buffer scan).
        self._posted_pending = 0

    # -- wiring ------------------------------------------------------------------

    @property
    def segment_names(self) -> Tuple[str, str]:
        return (self.a_segment.name, self.b_segment.name)

    def attach_filter(self, filt: TransactionFilter) -> None:
        """Append a filter (e.g. a bridge-placed Local Firewall) to the chain."""
        self.filters.append(filt)

    # -- ingress ---------------------------------------------------------------------

    def _target_segment(self, side: str):
        return self.b_segment if side == "a" else self.a_segment

    def _ingress(
        self, side: str, txn: BusTransaction, reply: Callable[[BusTransaction], None]
    ) -> None:
        self.bump(f"ingress_{side}")
        verdict = apply_filter_chain(self.filters, txn, "request")
        if not verdict.allowed:
            self.bump("blocked_requests")
            event_bus = self.sim.event_bus
            if event_bus is not None:
                event_bus.emit(
                    "bridge.containment", self.sim.now, self.name,
                    master=txn.master, address=txn.address, txn_id=txn.txn_id,
                    reason=verdict.reason, side=side,
                )
            status = verdict.status or TransactionStatus.BLOCKED_AT_BRIDGE
            self.sim.schedule(
                verdict.latency, self._reply_blocked, txn, reply, status, verdict.reason
            )
            return

        txn.add_latency(f"bridge:{self.name}", self.forward_latency)
        target = self._target_segment(side)

        if txn.is_write and self.posted_writes and self._posted_pending < self.buffer_depth:
            # Posted write: acknowledge the issuer as soon as the write is
            # buffered; the downstream leg runs detached on a clone (the
            # original transaction completes at the issuing master while the
            # clone is still in flight).
            self.bump("posted_writes")
            self._buffer.append(("posted", txn.clone_for_retry(), target))
            self._posted_pending += 1
            self.sim.schedule(verdict.latency + self.forward_latency, reply, txn)
            self._drain()
            return

        if txn.is_write and self.posted_writes:
            self.bump("posted_stalls")

        if self._buffer:
            # Posted writes are still pending: later transactions (reads, or
            # writes that missed the buffer) must not overtake them, or a
            # read-after-write across the bridge would return stale data.
            # They join the same FIFO and forward in order.
            self.bump("ordered_behind_posted")
            self._buffer.append(("ordered", txn, reply, target))
            self._drain()
            return

        self.sim.schedule(
            verdict.latency + self.forward_latency, self._forward, txn, reply, target
        )

    def _reply_blocked(
        self,
        txn: BusTransaction,
        reply: Callable[[BusTransaction], None],
        status: TransactionStatus,
        reason: str,
    ) -> None:
        txn.mark_blocked(self.sim.now, status, reason)
        reply(txn)

    # -- non-posted forwarding ----------------------------------------------------------

    def _forward(
        self, txn: BusTransaction, reply: Callable[[BusTransaction], None], target
    ) -> None:
        target.submit(txn, lambda t: self._on_remote_reply(t, reply))

    def _on_remote_reply(
        self, txn: BusTransaction, reply: Callable[[BusTransaction], None]
    ) -> None:
        self.bump("forwarded")
        if txn.status.is_terminal and txn.status is not TransactionStatus.COMPLETED:
            reply(txn)
            return
        verdict = apply_filter_chain(self.filters, txn, "response")
        if not verdict.allowed:
            self.bump("blocked_responses")
            status = verdict.status or TransactionStatus.BLOCKED_AT_BRIDGE
            self.sim.schedule(
                verdict.latency, self._reply_blocked, txn, reply, status, verdict.reason
            )
            return
        self.sim.schedule(verdict.latency, reply, txn)

    # -- posted-write drain -------------------------------------------------------------

    def _drain(self) -> None:
        if self._draining or not self._buffer:
            return
        # The head entry stays in the buffer while its downstream leg is in
        # flight, so ``buffer_depth`` bounds buffered + in-flight posted
        # occupancy, and the FIFO preserves write -> read ordering.
        self._draining = True
        entry = self._buffer[0]
        if entry[0] == "posted":
            _, clone, target = entry
            self.sim.schedule(self.forward_latency, self._drain_submit_posted, clone, target)
        else:
            _, txn, reply, target = entry
            # Its forward latency already elapsed while it waited in the FIFO
            # (the ingress charged the cycles to the transaction's breakdown).
            self.sim.schedule(0, self._drain_submit_ordered, txn, reply, target)

    def _drain_submit_posted(self, clone: BusTransaction, target) -> None:
        target.submit(clone, self._drain_done_posted)

    def _drain_done_posted(self, clone: BusTransaction) -> None:
        self._buffer.popleft()
        self._posted_pending -= 1
        self._draining = False
        self.bump("posted_completed")
        if clone.status.is_terminal and clone.status is not TransactionStatus.COMPLETED:
            # The issuer was already acknowledged: a downstream denial is the
            # posted-write hazard this model makes observable.  (A clone that
            # reached its device comes back still GRANTED — only master ports
            # mark completion — so only terminal blocked/error states count.)
            self.bump("posted_write_failures")
            event_bus = self.sim.event_bus
            if event_bus is not None:
                event_bus.emit(
                    "bridge.posted_failure", self.sim.now, self.name,
                    master=clone.master, address=clone.address,
                    status=clone.status.value,
                )
        self._drain()

    def _drain_submit_ordered(
        self, txn: BusTransaction, reply: Callable[[BusTransaction], None], target
    ) -> None:
        target.submit(txn, lambda t: self._drain_done_ordered(t, reply))

    def _drain_done_ordered(
        self, txn: BusTransaction, reply: Callable[[BusTransaction], None]
    ) -> None:
        self._buffer.popleft()
        self._draining = False
        self._on_remote_reply(txn, reply)
        self._drain()

    # -- reporting ----------------------------------------------------------------------

    def summary(self) -> dict:
        return {
            "name": self.name,
            "segments": list(self.segment_names),
            "forward_latency": self.forward_latency,
            "posted_writes": self.posted_writes,
            "buffer_depth": self.buffer_depth,
            "filters": [type(f).__name__ for f in self.filters],
            **{k: v for k, v in self.stats.items()},
        }
