"""Discrete-event simulation kernel.

The whole platform is simulated as a set of components exchanging events on a
shared integer clock (one tick = one bus clock cycle at the nominal 100 MHz of
the paper's MicroBlaze system).  The kernel is a classic calendar queue built
on :mod:`heapq`:

* events are ordered by ``(time, sequence)``; the sequence number makes
  ordering deterministic for events scheduled at the same cycle, which keeps
  every experiment bit-reproducible.  The heap holds ``(key, event)`` pairs
  whose integer key packs both, so every heap comparison is one integer
  comparison,
* components schedule work with :meth:`Simulator.schedule` (relative delay) or
  :meth:`Simulator.schedule_at` (absolute cycle),
* :meth:`Simulator.run` drains the queue up to an optional horizon.

This is a transaction-level model: nothing ticks every cycle, so simulated
time can jump forward cheaply, but all latencies are expressed in exact cycle
counts so the latency accounting of Table II carries through unchanged.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Dict, List, Optional, Tuple

__all__ = ["Event", "Simulator", "Component", "SimulationError"]

#: Bits of a heap key below the event time, holding the sequence number
#: (unique keys for the first 2**44 events of a simulation).
SEQUENCE_BITS = 44


class SimulationError(RuntimeError):
    """Raised for kernel-level misuse (negative delays, running twice, ...)."""


class Event:
    """A scheduled callback, run at cycle ``time`` in ``sequence`` order."""

    __slots__ = ("time", "sequence", "callback", "args", "cancelled")

    def __init__(
        self, time: int, sequence: int, callback: Callable[..., None], args: Tuple[Any, ...] = ()
    ) -> None:
        self.time = time
        self.sequence = sequence
        self.callback = callback
        self.args = args
        self.cancelled = False

    def cancel(self) -> None:
        """Mark the event so the kernel skips it when popped."""
        self.cancelled = True


class Simulator:
    """Event-driven simulator with an integer cycle clock."""

    def __init__(self, clock_frequency_hz: float = 100e6) -> None:
        if clock_frequency_hz <= 0:
            raise ValueError("clock frequency must be positive")
        self.clock_frequency_hz = clock_frequency_hz
        self._now = 0
        self._sequence = 0
        self._queue: List[Tuple[int, Event]] = []
        self._running = False
        self.events_processed = 0
        #: Optional instrumentation event bus (see :mod:`repro.api.events`).
        #: None by default: publishers pay one attribute check and nothing
        #: else, so uninstrumented simulations are unchanged.
        self.event_bus = None

    # -- time ----------------------------------------------------------------

    @property
    def now(self) -> int:
        """Current simulation time in clock cycles."""
        return self._now

    def cycles_to_seconds(self, cycles: int) -> float:
        """Convert a cycle count to wall-clock seconds at the bus frequency."""
        return cycles / self.clock_frequency_hz

    def cycles_to_us(self, cycles: int) -> float:
        """Convert a cycle count to microseconds at the bus frequency."""
        return self.cycles_to_seconds(cycles) * 1e6

    # -- scheduling ------------------------------------------------------------

    def schedule(self, delay: int, callback: Callable[..., None], *args: Any) -> Event:
        """Schedule ``callback(*args)`` ``delay`` cycles from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past (delay={delay})")
        # The push of schedule_at, inlined: one call per event instead of two.
        time = self._now + delay
        sequence = self._sequence
        event = Event(time, sequence, callback, args)
        self._sequence = sequence + 1
        heapq.heappush(self._queue, ((time << SEQUENCE_BITS) | sequence, event))
        return event

    def schedule_at(self, time: int, callback: Callable[..., None], *args: Any) -> Event:
        """Schedule ``callback(*args)`` at absolute cycle ``time``."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at cycle {time}, current time is {self._now}"
            )
        sequence = self._sequence
        event = Event(time, sequence, callback, args)
        self._sequence = sequence + 1
        heapq.heappush(self._queue, ((time << SEQUENCE_BITS) | sequence, event))
        return event

    # -- execution --------------------------------------------------------------

    def step(self) -> bool:
        """Process a single event.  Returns False when the queue is empty."""
        while self._queue:
            event = heapq.heappop(self._queue)[1]
            if event.cancelled:
                continue
            self._now = event.time
            event.callback(*event.args)
            self.events_processed += 1
            return True
        return False

    def run(self, until: Optional[int] = None, max_events: Optional[int] = None) -> int:
        """Run until the queue is empty, the horizon is reached, or the event
        budget is exhausted.  Returns the final simulation time.

        The drain loop is batched: it works directly on the calendar queue
        (no per-event :meth:`step`/peek round trips), executing every ready
        event — including whole same-cycle batches — back to back, and jumping
        over idle cycle gaps in a single clock assignment.  Event ordering is
        exactly the (time, sequence) order of the one-at-a-time kernel, so
        simulations are bit-identical, just faster.
        """
        if self._running:
            raise SimulationError("simulator is already running")
        self._running = True
        queue = self._queue
        pop = heapq.heappop
        processed = 0
        try:
            if until is None and max_events is None:
                # A full drain has no horizon or budget to test per event.
                while queue:
                    event = pop(queue)[1]
                    if not event.cancelled:
                        self._now = event.time
                        event.callback(*event.args)
                        processed += 1
                return self._now
            while queue:
                head = queue[0][1]
                if head.cancelled:
                    pop(queue)
                    continue
                if max_events is not None and processed >= max_events:
                    return self._now
                if until is not None and head.time > until:
                    self._now = until
                    return self._now
                pop(queue)
                self._now = head.time
                head.callback(*head.args)
                processed += 1
            if until is not None and until > self._now:
                self._now = until
            return self._now
        finally:
            # Here, so a raising callback leaves the count of those that returned.
            self.events_processed += processed
            self._running = False
            bus = self.event_bus
            if bus is not None and bus.active:
                bus.emit("sim.run", self._now, "kernel", events=self.events_processed)

    @property
    def pending_events(self) -> int:
        """Number of not-yet-cancelled events still queued."""
        return sum(1 for _, event in self._queue if not event.cancelled)


class Component:
    """Base class for everything that lives in the simulated platform.

    Provides the simulator handle, a unique name and a free-form ``stats``
    dictionary that the analysis layer harvests at the end of a run.
    """

    def __init__(self, sim: Simulator, name: str) -> None:
        self.sim = sim
        self.name = name
        self.stats: Dict[str, Any] = {}

    def bump(self, counter: str, amount: int = 1) -> None:
        """Increment a named statistics counter."""
        self.stats[counter] = self.stats.get(counter, 0) + amount

    def record(self, key: str, value: Any) -> None:
        """Store a non-counter statistic."""
        self.stats[key] = value

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"{type(self).__name__}(name={self.name!r})"
