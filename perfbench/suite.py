"""The four benchmark workloads, their correctness digests and exact counters.

Each workload is driven through the public API only, with the default
``object`` engine, ``campaign_workers=1`` and ``sweep_workers=1``:

``fabric_drain``
    ``deep_hierarchy_3seg``, protected, no attacks, as a series of
    experiments whose drains dominate.  The only workload that crosses
    bridges.
``crypto_writes``
    ``crypto_heavy``, protected, no attacks, as a series of experiments:
    90% external traffic, 60% writes, so the Local Ciphering Firewall and
    the crypto layer carry the load on a flat bus.
``sweep_cold``
    every registered scenario x {protected, unprotected} at the run's seed,
    each point with its attack campaign, through ``SweepRunner`` into a
    fresh ``ResultStore`` (the ``repro sweep run`` / ``repro paper`` path).
``fuzz_probe``
    ``fuzz_scenario`` over every registered scenario at a fixed budget: a
    fresh platform per case and a dozen synchronous probes, many of them
    blocked (the deny and alert path of the Local Firewalls).

A workload run returns raw results; :func:`inspect` then turns them into
one digest per unit (experiment, sweep point or per-scenario fuzz report)
and the exact counters the run reports.  Nothing here reads program state
that the results do not carry, except the kernel event count of fuzz
platforms, which :class:`BuildEventCounter` reads from each platform
``ScenarioBuilder.build`` returns.

:class:`PieceClock` splits a run into pieces at every
``ScenarioBuilder.build`` call and times a fixed reference loop between
pieces.  The workloads are deterministic, so piece ``j`` is the same work in
every repetition of a seed, and ``run.py`` can take each piece's fastest
time over a run's repetitions and scale it by the reference.
"""

from __future__ import annotations

import dataclasses
import hashlib
import heapq
import json
import pathlib
import time
from typing import Callable, Dict, List, Optional, Tuple

#: Workload name -> (scenario, n_operations, experiments) for the two drain
#: workloads.  Many short experiments rather than one long one, so that a run
#: splits into short pieces (see :class:`PieceClock`).
DRAINS = {
    "fabric_drain": ("deep_hierarchy_3seg", 100, 24),
    "crypto_writes": ("crypto_heavy", 100, 24),
}
#: Seeds of one ``sweep_cold`` grid are ``seed + offset`` for these offsets.
SWEEP_SEED_OFFSETS = (0,)
#: Cases per scenario of one ``fuzz_probe`` run.
FUZZ_BUDGET = 30
WORKLOADS = ("fabric_drain", "crypto_writes", "sweep_cold", "fuzz_probe")

#: The host-speed reference: loop steps per chunk, and per workload the cuts
#: from one chunk to the next (see :class:`PieceClock`), about 10 to 20 ms.
REFERENCE_CHUNK_STEPS = 500
REFERENCE_STRIDE = {"fabric_drain": 1, "crypto_writes": 1, "sweep_cold": 4, "fuzz_probe": 8}
#: Seconds one reference chunk takes at the nominal host speed (the fastest
#: seen on a 2-core x86_64 virtual machine).  Reported times are scaled by
#: this over the reference chunk time of their own run.
REFERENCE_NOMINAL_S = 0.0005

#: Table II cycle costs every protected distributed result must show.
TABLE2_CYCLES = {"SB (LF/LCF)": 12, "CC": 11, "IC": 20}

#: Modules a workload imports before it is timed (besides ``repro.api``).
ENTRY_MODULES = {
    "fabric_drain": (),
    "crypto_writes": (),
    "sweep_cold": ("repro.sweep",),
    "fuzz_probe": ("repro.fuzz",),
}


# -- digests and invariants --------------------------------------------------------------


def digest(payload: object) -> str:
    """SHA-256 of a JSON payload in canonical form (sorted keys, compact)."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def result_digest(result: Dict[str, object]) -> str:
    """Digest of one ``ExperimentResult.to_dict()`` without wall-clock fields."""
    from repro.sweep.store import canonical_result

    return digest(canonical_result(result))


def table2_error(result: Dict[str, object]) -> Optional[str]:
    """Why a protected distributed result breaks the Table II costs, if it does."""
    if not result.get("protected") or result.get("enforcement") != "distributed":
        return None
    rows = {row["module"]: row for row in result["latency"]["table2"]}
    # Every protected platform has Security Builders; CC and IC rows exist
    # only where a Local Ciphering Firewall guards an external memory.
    if "SB (LF/LCF)" not in rows or not set(rows) <= set(TABLE2_CYCLES):
        return f"table2 modules {sorted(rows)}"
    for module, row in rows.items():
        cycles = TABLE2_CYCLES[module]
        if row["paper_cycles"] != cycles:
            return f"table2 {module} paper cycles {row['paper_cycles']} != {cycles}"
        if row["operations"] and row["measured_cycles"] != cycles:
            return f"table2 {module} measured {row['measured_cycles']} != {cycles}"
    return None


def unit_digest(result: Dict[str, object], extra_check: Callable = lambda r: None) -> str:
    """A result's digest, or ``error: ...`` when it breaks an invariant."""
    problem = table2_error(result) or extra_check(result)
    return f"error: {problem}" if problem else result_digest(result)


# -- counters ---------------------------------------------------------------------------


def _zero_counters() -> Dict[str, float]:
    return {
        "events": 0, "hop_cycles": 0, "sb_evaluations": 0, "sb_cache_hits": 0,
        "sb_cache_misses": 0, "discarded": 0, "cc_blocks": 0, "ic_blocks": 0,
        "attacks": 0, "detected": 0, "store_bytes": 0, "fuzz_cases": 0,
        "fuzz_steps": 0, "fuzz_blocked": 0,
    }


def add_result_counters(counters: Dict[str, float], result: Dict[str, object]) -> None:
    """Fold one experiment result's exact counts into ``counters``."""
    counters["events"] += result["workload"]["events_processed"]
    counters["hop_cycles"] += sum(result["latency"]["per_hop"].values())
    security = result.get("security") or {}
    for row in security.get("firewalls", {}).values():
        counters["sb_evaluations"] += row["evaluations"]
        counters["sb_cache_hits"] += row["sb_cache_hits"]
        counters["sb_cache_misses"] += row["sb_cache_misses"]
        counters["discarded"] += row["discarded"]
    for row in result["latency"]["table2"]:
        if row["module"] == "CC":
            counters["cc_blocks"] += row["operations"]
        elif row["module"] == "IC":
            counters["ic_blocks"] += row["operations"]
    campaign = result.get("campaign")
    if campaign:
        counters["attacks"] += campaign["summary"]["attacks"]
        counters["detected"] += campaign["summary"]["detected"]


class BuildEventCounter:
    """Sums kernel events over every platform ``ScenarioBuilder.build`` returns.

    The fuzz oracle builds a platform per case and drops it; the count of a
    platform is settled when the next one is built (or at :meth:`settle`),
    so at most one finished platform is kept alive.
    """

    def __init__(self) -> None:
        self.events = 0
        self._pending: List[object] = []
        self._undo: Optional[Callable[[], None]] = None

    def install(self) -> None:
        from repro.scenarios.builder import ScenarioBuilder

        original = ScenarioBuilder.__dict__["build"]

        def build(builder, *args, **kwargs):
            self.settle()
            built = original(builder, *args, **kwargs)
            self._pending.append(built)
            return built

        ScenarioBuilder.build = build
        self._undo = lambda: setattr(ScenarioBuilder, "build", original)

    def settle(self) -> int:
        for built in self._pending:
            self.events += built.system.sim.events_processed
        self._pending.clear()
        return self.events

    def uninstall(self) -> None:
        if self._undo is not None:
            self._undo()
            self._undo = None


class PieceClock:
    """Cuts a run into pieces at every ``ScenarioBuilder.build`` call, and
    times the host-speed reference between pieces.

    Each experiment, sweep point, campaign attack and fuzz case builds a
    platform, so the cuts make short pieces.  At every ``stride``-th cut,
    from the first, one chunk of the reference loop runs; the pieces leave
    its time out.  Install the clock last, so that it cuts before any other
    wrapper of ``build`` runs.
    """

    def __init__(self, stride: int = 1) -> None:
        self.stride = stride
        #: (end of the piece before, start of the piece after) per cut.
        self.cuts: List[Tuple[float, float]] = []
        #: Durations of the reference chunks run at cuts.
        self.references: List[float] = []
        self._undo: Optional[Callable[[], None]] = None

    def install(self) -> None:
        from repro.scenarios.builder import ScenarioBuilder

        original = ScenarioBuilder.__dict__["build"]
        cuts, references, stride = self.cuts, self.references, self.stride
        clock = time.perf_counter

        def build(builder, *args, **kwargs):
            now = after = clock()
            if len(cuts) % stride == 0:
                _reference_chunk()
                after = clock()
                references.append(after - now)
            cuts.append((now, after))
            return original(builder, *args, **kwargs)

        ScenarioBuilder.build = build
        self._undo = lambda: setattr(ScenarioBuilder, "build", original)

    def pieces(self, start: float, end: float) -> List[float]:
        """Durations of the pieces between ``start``, every cut and ``end``."""
        starts = [start] + [after for _, after in self.cuts]
        ends = [before for before, _ in self.cuts] + [end]
        return [b - a for a, b in zip(starts, ends)]

    def uninstall(self) -> None:
        if self._undo is not None:
            self._undo()
            self._undo = None


class _Event:
    __slots__ = ("time", "kind", "value")

    def __init__(self, time_: int, kind: int, value: int) -> None:
        self.time = time_
        self.kind = kind
        self.value = value

    def key(self) -> int:
        return (self.time << 8) | self.kind


def _reference_chunk(n: int = REFERENCE_CHUNK_STEPS) -> int:
    """A fixed piece of interpreter work shaped like a simulator's: small
    objects, method calls, an event heap, dict counters, integer mixing and
    a little hashing.  It calls nothing in ``repro``."""
    heap: list = []
    counts: Dict[int, int] = {}
    acc = 0
    for i in range(n):
        event = _Event((i * 7919) % 10007, i & 255, i)
        heapq.heappush(heap, (event.key(), i, event))
        counts[event.kind] = counts.get(event.kind, 0) + event.value
        acc ^= (event.value * 0x9E3779B1) & 0xFFFFFFFF
        if len(heap) > 64:
            acc += heapq.heappop(heap)[2].time
        if i % 64 == 0:
            acc ^= hashlib.sha256(acc.to_bytes(8, "little")).digest()[0]
    return acc


# -- the workloads ----------------------------------------------------------------------


def drain_seeds(name: str, seed: int) -> List[int]:
    """Seeds of the experiments of one drain run."""
    experiments = DRAINS[name][2]
    return [seed * experiments + index for index in range(experiments)]


def _run_drain(name: str, seed: int):
    from repro.api import Experiment
    from repro.scenarios import get_scenario

    scenario, n_operations, _ = DRAINS[name]
    base = get_scenario(scenario)
    results = []
    for experiment_seed in drain_seeds(name, seed):
        spec = dataclasses.replace(
            base,
            workload=dataclasses.replace(
                base.workload, n_operations=n_operations, seed=experiment_seed
            ),
        )
        results.append(
            Experiment.from_spec(spec)
            .protected(True)
            .no_attacks()
            .with_seed(experiment_seed)
            .with_engine("object")
            .campaign(1)
            .run()
        )
    return results


def _drain_check(result: Dict[str, object]) -> Optional[str]:
    if result["alerts"]["total"] != 0:
        return f"{result['alerts']['total']} alerts on an attack-free run"
    if result["workload"]["events_processed"] <= 0:
        return "no kernel events"
    return None


def sweep_spec(seed: int):
    from repro.sweep import SweepSpec

    return SweepSpec(
        seeds=tuple(seed + offset for offset in SWEEP_SEED_OFFSETS),
        protected=(True, False),
        campaign_workers=(1,),
    )


def _run_sweep(seed: int, tmp: pathlib.Path):
    from repro.sweep import ResultStore, SweepRunner

    store = ResultStore(tmp / "store")
    report = SweepRunner(sweep_spec(seed), store, sweep_workers=1).run()
    return report, store


def _run_fuzz(seed: int):
    from repro.fuzz import runner as fuzz_runner
    from repro.scenarios import get_scenario, list_scenarios

    return [
        fuzz_runner.fuzz_scenario(
            get_scenario(name), seed=seed, budget=FUZZ_BUDGET, engines=("object",)
        )
        for name in list_scenarios()
    ]


def run(workload: str, seed: int, tmp: pathlib.Path):
    """Run one workload to its last result (the timed region)."""
    if workload in DRAINS:
        return _run_drain(workload, seed)
    if workload == "sweep_cold":
        return _run_sweep(seed, tmp)
    if workload == "fuzz_probe":
        return _run_fuzz(seed)
    raise ValueError(f"unknown workload {workload!r}; known: {WORKLOADS}")


def inspect(workload: str, seed: int, raw) -> Tuple[Dict[str, str], Dict[str, float]]:
    """Unit digests and exact counters of one run's raw results."""
    units: Dict[str, str] = {}
    counters = _zero_counters()
    if workload in DRAINS:
        scenario, n_operations, _ = DRAINS[workload]
        for experiment_seed, result in zip(drain_seeds(workload, seed), raw):
            payload = result.to_dict()
            units[f"{scenario}/ops={n_operations}/seed={experiment_seed}"] = unit_digest(
                payload, _drain_check
            )
            add_result_counters(counters, payload)
    elif workload == "sweep_cold":
        report, store = raw
        expected = {point.point_id for point in sweep_spec(seed).plan().points}
        for point_id in sorted(expected | set(report.keys)):
            entry = store.get(report.keys.get(point_id, ""))
            if point_id not in report.computed or entry is None:
                units[point_id] = "error: point not computed into the fresh store"
                continue
            result = entry["result"]
            units[point_id] = unit_digest(result)
            add_result_counters(counters, result)
        for path in (store.results_path, store.manifest_path):
            counters["store_bytes"] += path.stat().st_size if path.exists() else 0
    elif workload == "fuzz_probe":
        for report in raw:
            payload = report.to_dict()
            key = f"fuzz/{report.scenario}/seed={seed}/budget={FUZZ_BUDGET}"
            if report.cases_run != FUZZ_BUDGET:
                units[key] = f"error: ran {report.cases_run} of {FUZZ_BUDGET} cases"
            else:
                units[key] = digest(payload)
            counters["fuzz_cases"] += report.cases_run
            counters["fuzz_steps"] += report.steps_run
            counters["fuzz_blocked"] += report.blocked_steps
    else:
        raise ValueError(f"unknown workload {workload!r}; known: {WORKLOADS}")
    return units, counters
