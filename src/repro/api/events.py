"""Typed instrumentation event bus.

Observability used to be wired by hand: examples poked
``security.monitor.alerts``, tests read firewall counters, the campaign
runner summarised monitors itself — every consumer re-implemented its own
harvesting.  This module replaces that with one publish/subscribe surface:

* **publishers** — the simulation kernel, bus segments, bridges, master
  ports, firewalls, the security monitor and the policy manager — emit
  structured events through an optional bus handle (``sim.event_bus`` /
  ``monitor.event_bus``).  Publishers never import this module; they emit
  through the attribute with plain keyword data, so the substrate stays free
  of API-layer dependencies,
* **sinks** subscribe to the bus: an in-memory aggregator for programmatic
  inspection, a JSONL trace writer for offline analysis, and a counting-only
  stats sink cheap enough to leave on,
* the **zero-sink fast path**: with no bus attached (the default) publishers
  pay a single ``is None`` check; with a bus but no sinks, ``emit`` returns
  before building the event object.  Emission never schedules kernel events
  or charges latency, so instrumented and uninstrumented runs are
  byte-identical — the PR-2 differential guarantees and the PR-1/PR-3
  performance are preserved by construction.

Event vocabulary (``kind`` strings; ``EVENT_KINDS`` is the closed set):

==========================  ====================================================
kind                        emitted when
==========================  ====================================================
``txn.issued``              a master port accepts a transaction
``txn.completed``           a transaction completes at its master port
``txn.blocked``             a transaction terminates blocked/errored
``bus.granted``             a segment's arbiter grants a transaction
``bridge.containment``      a bridge-placed filter chain denies a transaction
``bridge.posted_failure``   a posted write fails downstream after its ack
``firewall.decision``       a Local (Ciphering) Firewall allows/denies a request
``security.alert``          the security monitor records an alert
``security.reconfiguration``  the manager rewrites a policy rule
``security.reaction``       any other countermeasure (quarantine, zeroise, ...)
``sim.run``                 one ``Simulator.run`` drain completes
==========================  ====================================================

Consumers: ``python -m repro run --trace FILE`` streams the vocabulary to a
JSONL file through :class:`JsonlTraceSink`; the campaign runner attaches one
:class:`StatsSink` to every platform it builds and reports its per-kind
counts as ``CampaignReport.event_totals``; sweep results (:mod:`repro.sweep`)
persist whatever counts the experiment collected as part of the stored
record.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, IO, List, Optional, Union

__all__ = [
    "EVENT_KINDS",
    "TXN_ISSUED",
    "TXN_COMPLETED",
    "TXN_BLOCKED",
    "BUS_GRANTED",
    "BRIDGE_CONTAINMENT",
    "BRIDGE_POSTED_FAILURE",
    "FIREWALL_DECISION",
    "SECURITY_ALERT",
    "SECURITY_RECONFIGURATION",
    "SECURITY_REACTION",
    "SIM_RUN",
    "InstrumentationEvent",
    "EventSink",
    "EventBus",
    "InMemorySink",
    "StatsSink",
    "JsonlTraceSink",
    "attach_instrumentation",
]


TXN_ISSUED = "txn.issued"
TXN_COMPLETED = "txn.completed"
TXN_BLOCKED = "txn.blocked"
BUS_GRANTED = "bus.granted"
BRIDGE_CONTAINMENT = "bridge.containment"
BRIDGE_POSTED_FAILURE = "bridge.posted_failure"
FIREWALL_DECISION = "firewall.decision"
SECURITY_ALERT = "security.alert"
SECURITY_RECONFIGURATION = "security.reconfiguration"
SECURITY_REACTION = "security.reaction"
SIM_RUN = "sim.run"

#: The closed vocabulary of event kinds (publishers emit these exact strings).
EVENT_KINDS = frozenset(
    {
        TXN_ISSUED,
        TXN_COMPLETED,
        TXN_BLOCKED,
        BUS_GRANTED,
        BRIDGE_CONTAINMENT,
        BRIDGE_POSTED_FAILURE,
        FIREWALL_DECISION,
        SECURITY_ALERT,
        SECURITY_RECONFIGURATION,
        SECURITY_REACTION,
        SIM_RUN,
    }
)


@dataclass(frozen=True)
class InstrumentationEvent:
    """One structured event published on the bus.

    ``cycle`` is the simulation cycle at emission time, ``source`` the name
    of the emitting component, and ``data`` the kind-specific payload
    (master, address, verdicts, ...).  Events are emitted synchronously in
    kernel callback order, so two runs with identical seeds produce identical
    event streams (modulo the process-global ``txn_id`` counter).
    """

    kind: str
    cycle: int
    source: str
    data: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serializable form (the JSONL trace schema)."""
        return {"kind": self.kind, "cycle": self.cycle, "source": self.source, "data": dict(self.data)}


class EventSink:
    """Base class for event consumers.

    Subclasses override :meth:`handle`.  A sink that only needs per-kind
    counts can set ``counts_only = True`` and implement :meth:`record_kind`;
    when *every* sink on a bus is counting-only, ``emit`` skips constructing
    the event object entirely, which is what keeps an always-on stats sink
    cheap (``test_count_fast_path_matches_full_sink`` in
    ``tests/test_api_events.py`` counts the objects a run builds).
    """

    counts_only = False

    def handle(self, event: InstrumentationEvent) -> None:  # pragma: no cover - interface
        raise NotImplementedError

    def record_kind(self, kind: str) -> None:
        """Counting-only fast path; default builds nothing and does nothing."""

    def flush(self) -> None:
        """Push buffered output to its destination; default is a no-op."""

    def close(self) -> None:
        """Flush/release resources (JSONL writer); default is a no-op."""


class EventBus:
    """Dispatches published events to every registered sink.

    The bus itself is passive plumbing: publishers call
    ``bus.emit(kind, cycle, source, **data)`` and the bus fans out to sinks.
    With zero sinks ``emit`` is a guarded early return; with counting-only
    sinks no event object is built.
    """

    __slots__ = ("_sinks", "count_only")

    def __init__(self, sinks: Optional[List[EventSink]] = None) -> None:
        self._sinks: List[EventSink] = []
        #: True while every attached sink is counting-only (or none is
        #: attached).  Hot publishers check this and call :meth:`count`
        #: instead of :meth:`emit`, skipping payload construction entirely;
        #: ``test_count_fast_path_matches_full_sink`` in
        #: ``tests/test_api_events.py`` checks that a run builds no event.
        self.count_only = True
        for sink in sinks or []:
            self.subscribe(sink)

    @property
    def active(self) -> bool:
        """Whether any sink is attached (publishers may pre-check this)."""
        return bool(self._sinks)

    @property
    def sinks(self) -> List[EventSink]:
        return list(self._sinks)

    def subscribe(self, sink: EventSink) -> EventSink:
        """Register a sink; returns it for chaining."""
        self._sinks.append(sink)
        self.count_only = all(getattr(s, "counts_only", False) for s in self._sinks)
        return sink

    def count(self, kind: str) -> None:
        """Payload-free publication: bump every sink's counter for ``kind``.

        Only valid while :attr:`count_only` is True (callers check); a
        full-event sink would otherwise miss the event.
        """
        for sink in self._sinks:
            sink.record_kind(kind)

    def emit(self, kind: str, cycle: int, source: str, **data: Any) -> None:
        """Publish one event (no-op without sinks)."""
        sinks = self._sinks
        if not sinks:
            return
        if self.count_only:
            for sink in sinks:
                sink.record_kind(kind)
            return
        event = InstrumentationEvent(kind=kind, cycle=cycle, source=source, data=data)
        for sink in sinks:
            sink.handle(event)

    def flush(self) -> None:
        """Flush every sink without releasing it (safe between runs)."""
        for sink in self._sinks:
            sink.flush()

    def close(self) -> None:
        """Close every sink (flushes trace writers)."""
        for sink in self._sinks:
            sink.close()


class InMemorySink(EventSink):
    """Aggregating sink: keeps the full event stream plus per-kind counts."""

    def __init__(self) -> None:
        self.events: List[InstrumentationEvent] = []
        self.counts: Dict[str, int] = {}

    def handle(self, event: InstrumentationEvent) -> None:
        self.events.append(event)
        self.counts[event.kind] = self.counts.get(event.kind, 0) + 1

    def of_kind(self, kind: str) -> List[InstrumentationEvent]:
        """All recorded events of one kind, in emission order."""
        return [e for e in self.events if e.kind == kind]


class StatsSink(EventSink):
    """Counting-only sink: per-kind counters, no event objects, no payloads."""

    counts_only = True

    def __init__(self) -> None:
        self.counts: Dict[str, int] = {}

    def record_kind(self, kind: str) -> None:
        self.counts[kind] = self.counts.get(kind, 0) + 1

    def handle(self, event: InstrumentationEvent) -> None:
        # Mixed-bus fallback (another sink forced full event construction).
        self.record_kind(event.kind)

    def total(self) -> int:
        return sum(self.counts.values())


class JsonlTraceSink(EventSink):
    """Writes one JSON object per event to a file or stream.

    Each line follows :meth:`InstrumentationEvent.to_dict`:
    ``{"kind": ..., "cycle": ..., "source": ..., "data": {...}}``.

    Path-opened sinks flush after every line, so a crashed or killed run
    leaves a trace complete up to its last event and a live
    ``tail -f``/subscriber sees events as they happen rather than only at
    close.  Caller-owned streams get buffered writes, flushed by
    :meth:`flush` and :meth:`close`.
    """

    def __init__(self, target: Union[str, IO[str]]) -> None:
        if isinstance(target, str):
            self._stream: IO[str] = open(target, "w", encoding="utf-8")
            self._owns_stream = True
        else:
            self._stream = target
            self._owns_stream = False
        self.events_written = 0

    def handle(self, event: InstrumentationEvent) -> None:
        self._stream.write(json.dumps(event.to_dict(), sort_keys=True) + "\n")
        self.events_written += 1
        if self._owns_stream:
            self._stream.flush()

    def flush(self) -> None:
        self._stream.flush()

    def close(self) -> None:
        self._stream.flush()
        if self._owns_stream:
            self._stream.close()


def attach_instrumentation(system, security=None, bus: Optional[EventBus] = None) -> EventBus:
    """Wire an event bus into a built platform.

    Sets ``sim.event_bus`` (kernel, ports, segments, bridges and firewalls
    publish through it) and, when a security layer is present,
    ``monitor.event_bus`` so alerts are published too.  Returns the bus
    (a fresh empty one when none is given).
    """
    bus = bus or EventBus()
    system.sim.event_bus = bus
    if security is not None:
        security.monitor.event_bus = bus
    return bus
