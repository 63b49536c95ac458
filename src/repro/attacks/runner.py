"""Parallel campaign runner: shard attack batteries across worker processes.

:class:`~repro.attacks.campaign.AttackCampaign` runs its attacks one after the
other in a single process.  Every attack run is *independent by construction*
(the campaign builds a fresh platform per attack precisely so that runs cannot
influence each other), which makes the campaign embarrassingly parallel: this
module shards the attack list across ``multiprocessing`` workers and merges
the per-shard results back into one deterministic
:class:`~repro.attacks.campaign.CampaignReport`.

Design points:

* **Deterministic sharding and seeding.**  Attacks are dealt round-robin to a
  fixed number of shards; each shard seeds :mod:`random` with a value derived
  only from ``(base_seed, shard_index)``, so a campaign gives bit-identical
  rows for any worker count — results are merged back in original attack
  order.
* **Merged monitoring.**  Each protected run's :class:`SecurityMonitor` is
  summarised inside the worker (alert counts per violation type) and the
  shard summaries are merged into ``CampaignReport.monitor_totals``, so the
  caller sees the same aggregate picture a single shared monitor would have
  produced.
* **Serial fallback.**  ``n_workers=1`` (or a single attack) runs everything
  in-process with no pickling requirements — the exact semantics of
  :class:`AttackCampaign` — which is also the deterministic mode CI uses.

The same machinery generalises to workload sweeps: :func:`parallel_map`
shards any picklable job list across workers with the same deterministic
per-shard seeding — it is how :class:`repro.sweep.engine.SweepRunner` shards
a grid's missing points across processes (``--sweep-workers``).

Two extensions serve long-running services (:mod:`repro.service`):

* :class:`PersistentPool` keeps one ``multiprocessing`` pool warm across
  many jobs — the ``repro serve`` daemon schedules every submission's
  points onto it instead of paying pool startup per job.  ``parallel_map``
  accepts an existing pool for the same reason.
* **Graceful nested-pool degrade.**  ``multiprocessing`` workers are
  daemonic and cannot spawn a nested pool; when a sharded campaign or map
  is invoked *inside* such a worker it no longer crashes but falls back to
  running the shard payloads serially in-process (a once-per-process
  :class:`RuntimeWarning` notes the degrade).  Results are identical by
  construction: per-shard seeding depends only on ``(base_seed,
  shard_index)``, never on which process executes the shard.
"""

from __future__ import annotations

import multiprocessing
import os
import random
import time
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Tuple, TypeVar

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (scenarios -> attacks)
    from repro.scenarios.spec import ScenarioSpec

from repro.attacks.base import Attack
from repro.attacks.campaign import (
    CampaignReport,
    CampaignRow,
    default_platform_factory,
)
from repro.core.secure import SecurityConfiguration
from repro.soc.system import SoCConfig

__all__ = [
    "CampaignRunner",
    "PersistentPool",
    "parallel_map",
    "shard_seed",
    "default_worker_count",
    "in_worker_process",
]

T = TypeVar("T")
R = TypeVar("R")


def in_worker_process() -> bool:
    """Whether this process is a ``multiprocessing`` (daemonic) pool worker.

    Such workers cannot spawn nested pools; the sharded entry points check
    this and degrade to serial in-process execution instead of crashing.
    """
    return multiprocessing.current_process().daemon


def _warn_degraded(key: str, what: str) -> None:
    from repro._deprecation import warn_once

    warn_once(
        key,
        f"{what} invoked inside a worker process cannot spawn a nested pool; "
        "degrading to serial in-process execution (results are identical — "
        "per-shard seeding does not depend on the executing process)",
        category=RuntimeWarning,
    )


def shard_seed(base_seed: int, shard_index: int) -> int:
    """Deterministic per-shard seed (stable across runs and worker counts)."""
    # splitmix64-style mix so neighbouring shards get unrelated streams.
    value = (base_seed + 0x9E3779B97F4A7C15 * (shard_index + 1)) & 0xFFFFFFFFFFFFFFFF
    value = ((value ^ (value >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    value = ((value ^ (value >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return value ^ (value >> 31)


def default_worker_count(n_jobs: int) -> int:
    """Worker count used when the caller does not pin one."""
    return max(1, min(n_jobs, os.cpu_count() or 1, 8))


# ---------------------------------------------------------------------------
# Generic sharded map (used for workload sweeps as well as campaigns)
# ---------------------------------------------------------------------------


def _run_map_shard(payload: Tuple[Callable, int, int, List[Tuple[int, object]]]) -> List[Tuple[int, object]]:
    fn, base_seed, shard_index, items = payload
    random.seed(shard_seed(base_seed, shard_index))
    return [(index, fn(item)) for index, item in items]


def _run_single_job(payload: Tuple[Callable, int, int, object]):
    """One seeded job (the :meth:`PersistentPool.submit` unit)."""
    fn, base_seed, shard_index, item = payload
    random.seed(shard_seed(base_seed, shard_index))
    return fn(item)


class PersistentPool:
    """A worker pool that outlives a single map call.

    ``parallel_map`` (and the campaign runner) historically created and tore
    down a ``multiprocessing.Pool`` per call; a long-running service doing
    that per submission pays pool startup on every job.  ``PersistentPool``
    keeps the workers warm: the ``repro serve`` daemon creates one at
    startup, schedules every submission's points onto it (:meth:`submit`,
    one asynchronous seeded job at a time, exactly the unit in-flight
    dedup wants), and :func:`parallel_map` reuses it via its ``pool=``
    argument.  Seeding is the same deterministic :func:`shard_seed`
    machinery, so which pool — or which of its workers — runs a job never
    changes the result.
    """

    def __init__(self, n_workers: int) -> None:
        if n_workers < 1:
            raise ValueError("n_workers must be >= 1")
        self.n_workers = n_workers
        self._pool = multiprocessing.Pool(processes=n_workers)

    def submit(
        self,
        fn: Callable[[T], R],
        item: T,
        *,
        base_seed: int = 0,
        shard_index: int = 0,
        callback: Optional[Callable[[R], None]] = None,
        error_callback: Optional[Callable[[BaseException], None]] = None,
    ):
        """Schedule one seeded job; returns the ``AsyncResult`` handle.

        ``callback`` / ``error_callback`` fire on a pool-internal thread —
        asyncio callers must trampoline back onto their loop
        (``loop.call_soon_threadsafe``), which is what the daemon does.
        """
        payload = (fn, base_seed, shard_index, item)
        return self._pool.apply_async(
            _run_single_job, (payload,), callback=callback, error_callback=error_callback
        )

    def map_shards(self, payloads: List[tuple]) -> List[list]:
        """Run prepared ``_run_map_shard`` payloads on the warm workers."""
        return self._pool.map(_run_map_shard, payloads)

    def close(self) -> None:
        """Finish outstanding jobs, then release the workers."""
        self._pool.close()
        self._pool.join()

    def terminate(self) -> None:
        """Stop immediately, abandoning in-flight jobs (daemon shutdown)."""
        self._pool.terminate()
        self._pool.join()

    def __enter__(self) -> "PersistentPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.terminate()


def _deal_round_robin(n_items: int, n_shards: int) -> List[List[int]]:
    shards: List[List[int]] = [[] for _ in range(n_shards)]
    for index in range(n_items):
        shards[index % n_shards].append(index)
    return [shard for shard in shards if shard]


def parallel_map(
    fn: Callable[[T], R],
    items: Sequence[T],
    n_workers: Optional[int] = None,
    base_seed: int = 0,
    pool: Optional[PersistentPool] = None,
) -> List[R]:
    """Apply ``fn`` to every item, sharded across worker processes.

    Results come back in input order regardless of scheduling.  ``fn`` and the
    items must be picklable when more than one worker is used; each shard
    seeds :mod:`random` deterministically from ``(base_seed, shard_index)``.

    ``pool`` reuses an existing :class:`PersistentPool` instead of creating
    a throwaway one.  Invoked inside a daemonic worker process (which cannot
    spawn children), the sharded path degrades to running the same seeded
    shard payloads serially — identical results, once-per-process warning.
    """
    items = list(items)
    if not items:
        return []
    workers = n_workers if n_workers is not None else default_worker_count(len(items))
    workers = max(1, min(workers, len(items)))

    if workers == 1:
        random.seed(shard_seed(base_seed, 0))
        return [fn(item) for item in items]

    shards = _deal_round_robin(len(items), workers)
    payloads = [
        (fn, base_seed, shard_index, [(i, items[i]) for i in indices])
        for shard_index, indices in enumerate(shards)
    ]
    if in_worker_process():
        _warn_degraded("parallel-map-nested-pool", "parallel_map(n_workers > 1)")
        shard_results = [_run_map_shard(payload) for payload in payloads]
    elif pool is not None:
        shard_results = pool.map_shards(payloads)
    else:
        with multiprocessing.Pool(processes=len(payloads)) as mp_pool:
            shard_results = mp_pool.map(_run_map_shard, payloads)
    ordered: List[Tuple[int, R]] = [pair for shard in shard_results for pair in shard]
    ordered.sort(key=lambda pair: pair[0])
    return [result for _, result in ordered]


# ---------------------------------------------------------------------------
# Campaign sharding
# ---------------------------------------------------------------------------


def _shard_platform_factory(
    scenario_spec: Optional["ScenarioSpec"],
    soc_config: Optional[SoCConfig],
    security_config: Optional[SecurityConfiguration],
):
    """Platform factory rebuilt inside each worker.

    A :class:`~repro.scenarios.spec.ScenarioSpec` (plain picklable data, not
    a factory closure) is what ships across the process boundary: the worker
    rebuilds the exact topology, firewalls and Configuration Memories from
    it.  Shipping the spec rather than a registry name keeps user-registered
    scenarios working under the ``spawn`` start method, where workers
    re-import a registry that only holds the stock entries.
    """
    if scenario_spec is not None:
        from repro.scenarios import platform_factory_for

        return platform_factory_for(scenario_spec)
    return default_platform_factory(soc_config, security_config)


def _run_campaign_shard(
    payload: Tuple[
        int,
        int,
        List[Tuple[int, Attack]],
        Optional[SoCConfig],
        Optional[SecurityConfiguration],
        Optional["ScenarioSpec"],
        bool,
    ],
) -> Tuple[int, float, List[Tuple[int, CampaignRow, Dict[str, int]]], Dict[str, int]]:
    """Run one shard's attacks on fresh platforms.

    Returns indexed rows, the per-attack protected-monitor summaries, and —
    when ``collect_events`` is set — this shard's instrumentation-event
    counts (a counting-only :class:`~repro.api.events.StatsSink` attached to
    every platform the shard builds; counts are additive so the merged totals
    are identical for any worker count).
    """
    (
        shard_index,
        base_seed,
        attack_items,
        soc_config,
        security_config,
        scenario_spec,
        collect_events,
    ) = payload
    random.seed(shard_seed(base_seed, shard_index))
    factory = _shard_platform_factory(scenario_spec, soc_config, security_config)
    stats = event_bus = None
    if collect_events:
        # Imported lazily: repro.api composes the attack layer, not vice versa.
        from repro.api.events import EventBus, StatsSink

        stats = StatsSink()
        event_bus = EventBus([stats])
    started = time.perf_counter()
    out: List[Tuple[int, CampaignRow, Dict[str, int]]] = []
    for index, attack in attack_items:
        system_plain, _ = factory(False)
        if event_bus is not None:
            system_plain.sim.event_bus = event_bus
        unprotected_result = attack.run(system_plain, None)

        system_secure, security = factory(True)
        if event_bus is not None:
            system_secure.sim.event_bus = event_bus
            monitor = getattr(security, "monitor", None)
            if monitor is not None:
                monitor.event_bus = event_bus
        protected_result = attack.run(system_secure, security)

        violations: Dict[str, int] = {}
        if security is not None:
            violations = {
                violation.value: count
                for violation, count in security.monitor.alerts_by_violation().items()
            }
        out.append(
            (
                index,
                CampaignRow(
                    attack=attack.name,
                    goal=attack.goal,
                    unprotected=unprotected_result,
                    protected=protected_result,
                ),
                violations,
            )
        )
    event_counts = dict(stats.counts) if stats is not None else {}
    return shard_index, time.perf_counter() - started, out, event_counts


class CampaignRunner:
    """Shard an attack campaign across ``multiprocessing`` workers.

    Parameters
    ----------
    attacks:
        Attack instances to run.  They must be picklable when more than one
        worker is used (the stock attacks all are).
    soc_config / security_config:
        Platform configuration rebuilt inside each worker via
        :func:`default_platform_factory` — configurations are shipped to the
        workers instead of factory closures, which do not pickle.
    scenario:
        A registered scenario name (see :mod:`repro.scenarios.registry`) or a
        :class:`~repro.scenarios.spec.ScenarioSpec` instance; when set, the
        spec is shipped to each worker, which rebuilds that scenario's
        platform instead of the reference platform
        (``soc_config``/``security_config`` are then ignored).  Passing a
        spec directly is how :class:`repro.api.Experiment` runs modified
        scenarios (overridden attack mixes) through the sharded path.
    n_workers:
        Worker processes; ``None`` picks :func:`default_worker_count`, ``1``
        forces the serial in-process path.
    base_seed:
        Root of the deterministic per-shard seeding.
    collect_events:
        Attach a counting-only instrumentation sink inside every shard and
        merge the per-kind event counts into
        :attr:`~repro.attacks.campaign.CampaignReport.event_totals`.
    """

    def __init__(
        self,
        attacks: Sequence[Attack],
        soc_config: Optional[SoCConfig] = None,
        security_config: Optional[SecurityConfiguration] = None,
        n_workers: Optional[int] = None,
        base_seed: int = 0,
        scenario=None,
        collect_events: bool = False,
        _warn: bool = True,
    ) -> None:
        if not attacks:
            raise ValueError("campaign needs at least one attack")
        if scenario is not None and _warn:
            from repro._deprecation import warn_once

            warn_once(
                "campaign-runner-direct-scenario",
                "constructing CampaignRunner(..., scenario=...) directly is "
                "deprecated; use CampaignRunner.from_spec(spec, ...) (or the "
                "Experiment facade), which instantiates the scenario's attack "
                "mix and ships the spec to the workers for you",
            )
        self.attacks = list(attacks)
        self.soc_config = soc_config
        self.security_config = security_config
        self.n_workers = n_workers
        self.base_seed = base_seed
        self.collect_events = collect_events
        self.scenario: Optional[str] = None
        self._scenario_spec = None
        if isinstance(scenario, str):
            from repro.scenarios import get_scenario

            self.scenario = scenario
            self._scenario_spec = get_scenario(scenario)
        elif scenario is not None:
            self.scenario = scenario.name
            self._scenario_spec = scenario

    @classmethod
    def from_spec(
        cls,
        spec: "ScenarioSpec",
        *,
        n_workers: Optional[int] = None,
        base_seed: int = 0,
        collect_events: bool = False,
    ) -> "CampaignRunner":
        """The supported constructor for scenario-driven campaigns.

        Instantiates the scenario's attack mix fresh and ships the resolved
        spec (plain picklable data) to each worker, which rebuilds the exact
        platform from it.
        Raises :class:`ValueError` when the scenario defines no attacks —
        same contract as direct construction with an empty battery.
        """
        from repro.scenarios import instantiate_attacks

        attacks = instantiate_attacks(spec)
        if not attacks:
            raise ValueError(f"scenario {spec.name!r} has no attack mix")
        return cls(
            attacks,
            n_workers=n_workers,
            base_seed=base_seed,
            scenario=spec,
            collect_events=collect_events,
            _warn=False,
        )

    @classmethod
    def from_scenario(
        cls,
        name: str,
        n_workers: Optional[int] = None,
        base_seed: int = 0,
    ) -> "CampaignRunner":
        """Deprecated: a runner over a registered scenario's own attack mix.

        Prefer ``repro.api.Experiment.from_scenario(name).campaign(...)``,
        which runs the same sharded campaign and folds the report into a
        uniform :class:`~repro.api.experiment.ExperimentResult`.  Behaviour
        is unchanged; the shim warns once per process.
        """
        from repro._deprecation import warn_once

        warn_once(
            "campaign-runner-from-scenario",
            "CampaignRunner.from_scenario() is deprecated; use "
            "repro.api.Experiment.from_scenario(name).campaign(n_workers=...)"
            ".run() instead",
        )
        from repro.scenarios import get_scenario

        return cls.from_spec(
            get_scenario(name), n_workers=n_workers, base_seed=base_seed
        )

    def _payloads(self, workers: int):
        shards = _deal_round_robin(len(self.attacks), workers)
        return [
            (
                shard_index,
                self.base_seed,
                [(i, self.attacks[i]) for i in indices],
                self.soc_config,
                self.security_config,
                self._scenario_spec,
                self.collect_events,
            )
            for shard_index, indices in enumerate(shards)
        ]

    def run(self) -> CampaignReport:
        """Execute every attack on both platform variants and merge results."""
        workers = (
            self.n_workers
            if self.n_workers is not None
            else default_worker_count(len(self.attacks))
        )
        workers = max(1, min(workers, len(self.attacks)))
        started = time.perf_counter()

        if workers == 1:
            shard_results = [_run_campaign_shard(self._payloads(1)[0])]
        elif in_worker_process():
            # A daemon worker running a sharded campaign: same shard
            # payloads (same seeding), executed serially in this process.
            _warn_degraded("campaign-runner-nested-pool", "a sharded CampaignRunner")
            shard_results = [_run_campaign_shard(p) for p in self._payloads(workers)]
        else:
            with multiprocessing.Pool(processes=workers) as pool:
                shard_results = pool.map(_run_campaign_shard, self._payloads(workers))

        indexed: List[Tuple[int, CampaignRow, Dict[str, int]]] = []
        shard_metrics = []
        merged_events: Dict[str, int] = {}
        for shard_index, seconds, rows, event_counts in shard_results:
            shard_metrics.append(
                {
                    "shard": shard_index,
                    "seed": shard_seed(self.base_seed, shard_index),
                    "attacks": len(rows),
                    "seconds": seconds,
                }
            )
            indexed.extend(rows)
            for kind, count in event_counts.items():
                merged_events[kind] = merged_events.get(kind, 0) + count
        indexed.sort(key=lambda entry: entry[0])

        report = CampaignReport()
        report.event_totals = merged_events
        for _, row, violations in indexed:
            report.add(row)
            for violation, count in violations.items():
                report.monitor_totals[violation] = (
                    report.monitor_totals.get(violation, 0) + count
                )
        report.metrics = {
            "n_workers": workers,
            "wall_seconds": time.perf_counter() - started,
            "shards": sorted(shard_metrics, key=lambda m: m["shard"]),
        }
        if self.scenario is not None:
            report.metrics["scenario"] = self.scenario
        return report
