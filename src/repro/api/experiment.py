"""The :class:`Experiment` façade: one pipeline from scenario to report.

Before this layer, reproducing one of the paper's claims meant hand-wiring
four entry points — ``attach_security``, ``ScenarioBuilder.build``,
``CampaignRunner`` and the monitor/metrics harvesting — and every example,
test and analysis script re-implemented the plumbing.  ``Experiment``
composes the whole pipeline behind one fluent surface::

    from repro.api import Experiment

    result = (
        Experiment.from_scenario("deep_hierarchy_3seg")
        .with_attacks(AttackSpec("replay"), AttackSpec("cross_segment_probe",
                                                       {"hijacked_master": "dma"}))
        .with_reconfig(ReconfigSpec(at_cycle=500, firewall="lf_cpu0",
                                    rule_base=0x0, action="make_readonly"))
        .protected(True)
        .run()
    )
    print(result.to_json())

``run()`` resolves the scenario, builds the fabric, attaches security, drives
the workload (with mid-run reconfigurations), runs the attack campaign, and
folds alerts, per-hop latency, the leaf-vs-bridge placement split, the area
model, the campaign report and run metadata into one JSON-serializable
:class:`ExperimentResult` — the uniform record the analysis layer, the sweep
store, the examples and the ``python -m repro`` CLI all consume.

Instrumentation is opt-in: attach sinks (``with_sink``) or force a sink-less
bus (``instrumented()``); either way the simulation itself is byte-identical
to an uninstrumented run, which keeps the differential guarantees intact —
``reference(True)`` runs the entire experiment under
:func:`repro.scenarios.differential.reference_mode` (every platform built
with its decision, region and keystream memos off) for exactly that check.

One :class:`ExperimentResult` is also one *cacheable unit*: the sweep layer
(:mod:`repro.sweep`) keys serialized results by scenario definition and code
fingerprint in a persistent :class:`~repro.sweep.store.ResultStore`, and the
paper's tables are regenerated from those stored payloads alone — which is
why the protected run folds its Table-II module-latency averages
(``latency["table2"]``) into the record instead of leaving them on the live
firewall objects.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

from repro.api.events import EventBus, EventSink, attach_instrumentation
from repro.attacks.campaign import CampaignReport
from repro.attacks.runner import CampaignRunner
from repro.core.secure import SecuredPlatform
from repro.metrics.area import AreaModel
from repro.metrics.latency import aggregate_hop_latency, generate_table2, placement_split
from repro.scenarios import get_scenario, list_scenarios
from repro.scenarios.builder import BuiltScenario, ScenarioBuilder
from repro.scenarios.differential import reference_mode
from repro.scenarios.spec import AttackSpec, ReconfigSpec, ScenarioSpec, WorkloadSpec

__all__ = ["Experiment", "ExperimentResult", "RESULT_SCHEMA_VERSION"]


#: Bumped whenever the shape of :meth:`ExperimentResult.to_dict` changes.
#: v2: ``latency`` gained ``table2`` (per-module firewall latency rows).
RESULT_SCHEMA_VERSION = 2

#: ``meta["engine"]`` of every result.  The event-driven kernel is the only
#: execution engine; the block is kept verbatim so result payloads, and every
#: digest taken over them, are byte-identical to those of earlier releases.
ENGINE_META = {"requested": "object", "used": "object", "fallback_reason": None}


def _jsonable(value: Any) -> Any:
    """Recursively coerce a value into JSON-serializable primitives."""
    if isinstance(value, dict):
        return {str(key): _jsonable(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(item) for item in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if isinstance(value, bytes):
        return value.hex()
    if hasattr(value, "value") and not isinstance(value, type):  # enums
        return _jsonable(value.value)
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return _jsonable(dataclasses.asdict(value))
    return repr(value)


def _campaign_section(report: CampaignReport) -> Dict[str, Any]:
    """Uniform, serializable view of a campaign report."""
    return {
        "summary": report.summary(),
        "rows": report.as_table_rows(),
        "monitor_totals": dict(report.monitor_totals),
        "event_totals": dict(report.event_totals),
        "metrics": dict(report.metrics),
    }


@dataclass
class ExperimentResult:
    """Everything one experiment produced, as plain serializable data.

    ``to_dict()`` / ``to_json()`` are schema-stable (see
    :data:`RESULT_SCHEMA_VERSION`): consumers — ``analysis``, the sweep
    store, the CLI's ``--json`` mode, downstream tooling — can rely on the key set.
    Wall-clock timings live only under ``campaign.metrics``; every other
    field is deterministic for a fixed scenario and seed.  ``reference``
    records whether the platforms were built with their decision, region and
    keystream memos off (:meth:`Experiment.reference`).
    """

    scenario: str
    description: str
    protected: bool
    enforcement: str
    placement: str
    seed: int
    reference: bool
    workload: Dict[str, Any]
    alerts: Optional[Dict[str, Any]]
    reactions: Optional[Dict[str, Any]]
    security: Optional[Dict[str, Any]]
    latency: Dict[str, Any]
    area: Dict[str, Any]
    campaign: Optional[Dict[str, Any]]
    events: Optional[Dict[str, int]]
    memories: Dict[str, str]
    meta: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serializable dictionary (stable key set, sorted on dump)."""
        payload = {f.name: getattr(self, f.name) for f in dataclasses.fields(self)}
        payload["schema_version"] = RESULT_SCHEMA_VERSION
        return _jsonable(payload)

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)


class Experiment:
    """Fluent builder/runner for one scenario-to-report pipeline.

    Construct with :meth:`from_scenario` (registry name, resolved fresh at
    run time) or :meth:`from_spec` (an explicit
    :class:`~repro.scenarios.spec.ScenarioSpec`).  Configuration methods
    mutate and return ``self`` so they chain; :meth:`run` executes the
    pipeline and returns an :class:`ExperimentResult`; :meth:`build` returns
    the live :class:`~repro.scenarios.builder.BuiltScenario` for callers that
    need handles on the platform (tutorial examples, custom drivers).
    """

    def __init__(self, spec: ScenarioSpec) -> None:
        spec.validate()
        self._spec = spec
        self._protected = True
        self._reference = False
        self._run_attacks = True
        self._seed = 0
        self._sinks: List[EventSink] = []
        self._instrumented = False

    # -- constructors --------------------------------------------------------------

    @classmethod
    def from_scenario(cls, name: str) -> "Experiment":
        """An experiment over a registered scenario (fresh spec per call)."""
        return cls(get_scenario(name))

    @classmethod
    def from_spec(cls, spec: ScenarioSpec) -> "Experiment":
        """An experiment over an explicit scenario specification."""
        return cls(spec)

    @staticmethod
    def scenarios() -> List[str]:
        """Registered scenario names (the ``python -m repro list`` surface)."""
        return list_scenarios()

    # -- configuration -------------------------------------------------------------

    @property
    def spec(self) -> ScenarioSpec:
        """The (possibly overridden) scenario specification this will run."""
        return self._spec

    def protected(self, enabled: bool = True) -> "Experiment":
        """Attach (default) or skip the security enhancements.

        The attack campaign always scores both variants; this flag selects
        the build the *workload* phase drives and reports on.
        """
        self._protected = enabled
        return self

    def reference(self, enabled: bool = True) -> "Experiment":
        """Run the whole pipeline on platforms built with their memos off:
        no Security Builder decision cache, no LCF region memo and no CTR
        keystream cache, neither a mode's own LRU nor the process-wide memo
        behind it.  The result differs from a default run's only in
        ``reference``, the ``sb_cache_*`` counters and wall-clock timings."""
        self._reference = enabled
        return self

    def with_attacks(self, *attacks: AttackSpec) -> "Experiment":
        """Replace the scenario's attack mix (empty = attack-free run)."""
        self._spec = dataclasses.replace(self._spec, attacks=tuple(attacks))
        return self

    def with_reconfig(self, *reconfigs: ReconfigSpec) -> "Experiment":
        """Append mid-run reconfiguration events to the scenario."""
        self._spec = dataclasses.replace(
            self._spec, reconfigs=self._spec.reconfigs + tuple(reconfigs)
        )
        return self

    def with_workload(self, workload: Optional[WorkloadSpec]) -> "Experiment":
        """Replace the workload mix (None = attack-only experiment)."""
        self._spec = dataclasses.replace(self._spec, workload=workload)
        return self

    def with_seed(self, seed: int) -> "Experiment":
        """Seed recorded with the result and its campaign metadata."""
        self._seed = seed
        return self

    def with_engine(self, mode: str) -> "Experiment":
        """Accept ``"object"``, the event-driven kernel and only engine.

        Kept so callers that pin the engine keep working; any other mode
        raises :class:`ValueError`.
        """
        if mode != "object":
            raise ValueError(f"unknown engine {mode!r}; the only engine is 'object'")
        return self

    def campaign(self, n_workers: int = 1) -> "Experiment":
        """Accept ``1``: the attack campaign runs in this process.

        Kept so callers that pin the worker count keep working; any other
        value raises :class:`ValueError`.
        """
        if n_workers != 1:
            raise ValueError(f"campaigns run in-process; n_workers must be 1, got {n_workers!r}")
        return self

    def no_attacks(self) -> "Experiment":
        """Skip the attack campaign even if the scenario defines a mix."""
        self._run_attacks = False
        return self

    def with_sink(self, sink: EventSink) -> "Experiment":
        """Attach an instrumentation sink (implies an event bus)."""
        self._sinks.append(sink)
        self._instrumented = True
        return self

    def instrumented(self, enabled: bool = True) -> "Experiment":
        """Force an event bus even with zero sinks (byte-identity checks)."""
        self._instrumented = enabled
        return self

    # -- execution -----------------------------------------------------------------

    def build(self) -> BuiltScenario:
        """Construct the platform (with instrumentation, when configured)."""
        built = ScenarioBuilder(self._spec).build(self._protected)
        if self._instrumented or self._sinks:
            attach_instrumentation(built.system, built.security, EventBus(self._sinks))
        return built

    def run(self) -> ExperimentResult:
        """Execute the pipeline and return the uniform result record."""
        context = reference_mode() if self._reference else contextlib.nullcontext()
        with context:
            return self._run_inner()

    # -- internals -----------------------------------------------------------------

    def _run_inner(self) -> ExperimentResult:
        spec = self._spec
        bus: Optional[EventBus] = None
        if self._instrumented or self._sinks:
            bus = EventBus(self._sinks)

        built = ScenarioBuilder(spec).build(self._protected)
        if bus is not None:
            attach_instrumentation(built.system, built.security, bus)
        final_cycle = built.run_workload()
        system = built.system

        workload = {
            "final_cycle": final_cycle,
            "makespan": system.execution_cycles(),
            "events_processed": system.sim.events_processed,
            "operations": None if spec.workload is None else spec.workload.n_operations,
        }

        security = built.security
        alerts = reactions = security_summary = None
        latency: Dict[str, Any] = {
            "per_hop": aggregate_hop_latency(system.bus.monitor.history),
            "placement_split": [],
            "table2": [],
        }
        if built.monitor is not None:
            alerts = built.monitor.summary()
        if isinstance(security, SecuredPlatform):
            reactions = security.manager.summary()
            security_summary = security.summary()
            latency["placement_split"] = [
                dataclasses.asdict(row) for row in placement_split(security)
            ]
            # Table-II averages measured on this run's live firewall counters,
            # serialized here so the sweep store can regenerate the paper's
            # latency table without re-simulating.
            ciphering = list(security.ciphering_firewalls.values())
            locals_ = (
                list(security.master_firewalls.values())
                + list(security.slave_firewalls.values())
                + list(security.bridge_firewalls.values())
                + ciphering[1:]
            )
            latency["table2"] = [
                dataclasses.asdict(row)
                for row in generate_table2(locals_, ciphering[0] if ciphering else None)
            ]

        area_model = AreaModel()
        if isinstance(security, SecuredPlatform):
            area_vector = area_model.platform_area_from_secured(security)
        else:
            area_vector = area_model.platform_without_firewalls()
        area = {
            "resources": area_vector.as_dict(),
            "overhead_vs_baseline": area_vector.overhead_vs(
                area_model.platform_without_firewalls()
            ),
        }

        campaign = None
        if self._run_attacks and spec.attacks:
            runner = CampaignRunner.from_spec(
                spec, base_seed=self._seed, collect_events=bus is not None
            )
            campaign = _campaign_section(runner.run())

        events = self._events_section(bus)
        if bus is not None:
            # Flush, don't close: the sinks are caller-owned, and the fluent
            # builder may be run() again (or a trace sink reused elsewhere).
            bus.flush()

        return ExperimentResult(
            scenario=spec.name,
            description=spec.description,
            protected=self._protected,
            enforcement=spec.enforcement,
            placement=spec.placement,
            seed=self._seed,
            reference=self._reference,
            workload=workload,
            alerts=alerts,
            reactions=reactions,
            security=security_summary,
            latency=latency,
            area=area,
            campaign=campaign,
            events=events,
            memories=_memory_digests(system),
            meta={
                "n_workers": 1,
                "instrumented": bus is not None,
                "sinks": [type(s).__name__ for s in self._sinks],
                "engine": dict(ENGINE_META),
            },
        )

    def _events_section(self, bus: Optional[EventBus]) -> Optional[Dict[str, int]]:
        """Per-kind counts of the run's single event stream.

        Every sink observed the same stream, so the first counting-capable
        sink's tallies *are* the stream's tallies — summing across sinks
        would multiply them by the sink count.
        """
        if bus is None:
            return None
        for sink in bus.sinks:
            counts = getattr(sink, "counts", None)
            if counts is not None:
                return dict(counts)
        return {}


def _memory_digests(system) -> Dict[str, str]:
    """Digest every memory/IP image (the byte-identity observable).

    Imported lazily from the differential harness to keep one definition of
    "the ciphertexts the external attacker sees".
    """
    from repro.scenarios.differential import _memory_digests as digests

    return digests(system)


def run_experiment(
    name: str,
    protected: bool = True,
    seed: int = 0,
    sinks: Sequence[EventSink] = (),
) -> ExperimentResult:
    """One-call convenience wrapper: ``Experiment.from_scenario(name)...run()``."""
    experiment = Experiment.from_scenario(name).protected(protected).with_seed(seed)
    for sink in sinks:
        experiment.with_sink(sink)
    return experiment.run()
