"""Unified experiment API: one façade from scenario to report.

* :mod:`repro.api.experiment` — the :class:`Experiment` façade composing
  scenario resolution → fabric build → security attach → workload/attack
  execution → attack campaign → metrics into one pipeline, returning a
  uniform JSON-serializable :class:`ExperimentResult`,
* :mod:`repro.api.events` — the typed instrumentation event bus the
  substrate publishes on (transactions, grants, firewall decisions, alerts,
  reconfigurations, bridge containment) and the stock sinks (in-memory
  aggregator, JSONL trace writer, counting-only stats),
* :mod:`repro.api.cli` — the ``python -m repro`` / ``repro`` command line
  (``run``, ``list``, ``campaign``, ``sweep run``/``sweep gc``, ``paper``,
  ``catalog``).

API stability: ``Experiment`` / ``ExperimentResult`` and the event-bus
surface are **stable**; the CLI flag set is **provisional**.
"""

from repro.api.events import (
    EVENT_KINDS,
    EventBus,
    EventSink,
    InMemorySink,
    InstrumentationEvent,
    JsonlTraceSink,
    StatsSink,
    attach_instrumentation,
)
from repro.api.experiment import (
    RESULT_SCHEMA_VERSION,
    Experiment,
    ExperimentResult,
    run_experiment,
)

__all__ = [
    "EVENT_KINDS",
    "EventBus",
    "EventSink",
    "InMemorySink",
    "InstrumentationEvent",
    "JsonlTraceSink",
    "StatsSink",
    "attach_instrumentation",
    "RESULT_SCHEMA_VERSION",
    "Experiment",
    "ExperimentResult",
    "run_experiment",
]
