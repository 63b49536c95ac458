"""Sweep execution: run the missing points, serve the rest from the store.

:class:`SweepRunner` expands a :class:`~repro.sweep.spec.SweepSpec`, computes
each point's content key, and executes **only** the points the
:class:`~repro.sweep.store.ResultStore` does not already hold — an
interrupted sweep rerun from the same spec therefore resumes exactly where it
stopped, and a second invocation over a warm store computes nothing at all
(the :class:`SweepReport` says which was which).

Execution is serial and in-process by default.  ``sweep_workers > 1``
instead runs the *points* in one process pool per :meth:`SweepRunner.run`,
the only process pool in the package; a point, campaign included, runs whole
in one worker.  Either way each result is stored as soon as it arrives, in
job order, so a kill loses at most the points in flight.

Two ``repro sweep run`` processes may share one store: the store's writer
lock keeps their appends whole, and a point both compute is stored twice
with byte-identical canonical results, so the store digest matches a serial
run's.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.api.experiment import Experiment
from repro.scenarios.spec import ScenarioSpec
from repro.sweep.spec import SweepPoint, SweepSpec, point_key
from repro.sweep.store import ResultStore, code_fingerprint

__all__ = ["SweepRunner", "SweepReport", "SweepJob"]

#: One store-missing grid cell ready to execute: ``(point, resolved scenario
#: spec, store key)``, as :meth:`SweepRunner.classify` returns them.
SweepJob = Tuple[SweepPoint, ScenarioSpec, str]


def _execute_point(job: Tuple[SweepPoint, ScenarioSpec]) -> Dict[str, object]:
    """Run one grid point through the Experiment façade (picklable job)."""
    point, resolved = job
    experiment = Experiment.from_spec(resolved).protected(point.protected).with_seed(point.seed)
    if point.attack_mode == "none":
        experiment.no_attacks()
    return experiment.run().to_dict()


@dataclass
class SweepReport:
    """Outcome of one :meth:`SweepRunner.run` call."""

    sweep_hash: str
    fingerprint: str
    computed: List[str] = field(default_factory=list)  # point ids
    cached: List[str] = field(default_factory=list)
    skipped: List[Dict[str, str]] = field(default_factory=list)
    keys: Dict[str, str] = field(default_factory=dict)  # point id -> store key
    store_digest: str = ""

    @property
    def total(self) -> int:
        return len(self.computed) + len(self.cached)

    def to_dict(self) -> Dict[str, object]:
        return {
            "sweep_hash": self.sweep_hash,
            "fingerprint": self.fingerprint,
            "computed": list(self.computed),
            "cached": list(self.cached),
            "skipped": list(self.skipped),
            "keys": dict(self.keys),
            "store_digest": self.store_digest,
            "total": self.total,
        }


class SweepRunner:
    """Execute a sweep grid against a persistent result store.

    Parameters
    ----------
    spec:
        The grid to run.
    store:
        Where results live across invocations.
    resolver:
        Optional ``name -> ScenarioSpec`` override (defaults to the scenario
        registry); tests use it to sweep modified definitions and assert the
        spec-hash invalidation.
    fingerprint:
        Code fingerprint baked into every key; defaults to
        :func:`repro.sweep.store.code_fingerprint`.
    sweep_workers:
        ``1`` (default) runs points serially in-process; ``>1`` runs the
        missing points in one pool of up to that many worker processes.
    point_hook:
        Called with each :class:`SweepPoint` just before its result is
        stored; an exception propagates with every earlier result already
        stored, which is how the tests simulate a mid-sweep kill.
    """

    def __init__(
        self,
        spec: SweepSpec,
        store: ResultStore,
        *,
        resolver: Optional[Callable[[str], ScenarioSpec]] = None,
        fingerprint: Optional[str] = None,
        sweep_workers: int = 1,
        point_hook: Optional[Callable[[SweepPoint], None]] = None,
    ) -> None:
        if sweep_workers < 1:
            raise ValueError("sweep_workers must be >= 1")
        self.spec = spec
        self.store = store
        self.resolver = resolver
        self.fingerprint = fingerprint if fingerprint is not None else code_fingerprint()
        self.sweep_workers = sweep_workers
        self.point_hook = point_hook

    def classify(self) -> Tuple[SweepReport, List[SweepJob]]:
        """Expand the grid and split it against the store, without executing.

        Returns the report skeleton (cached/skipped points and every point's
        store key already filled in) plus the missing points as
        :data:`SweepJob`\\ s, which :meth:`run` then executes.
        """
        plan = self.spec.plan(self.resolver)
        report = SweepReport(
            sweep_hash=self.spec.sweep_hash(),
            fingerprint=self.fingerprint,
            skipped=[dict(s) for s in plan.skipped],
        )

        jobs: List[SweepJob] = []
        for point in plan.points:
            resolved = point.resolve_spec(plan.bases[point.scenario])
            key = point_key(point, resolved, self.fingerprint)
            report.keys[point.point_id] = key
            if self.store.has(key):
                report.cached.append(point.point_id)
            else:
                jobs.append((point, resolved, key))
        return report, jobs

    def run(self) -> SweepReport:
        """Execute the missing points, storing each result as it arrives, in job order."""
        report, jobs = self.classify()
        workers = min(self.sweep_workers, len(jobs))
        args = ((point, resolved) for point, resolved, _ in jobs)
        pool = None
        try:
            if workers > 1:
                # Imported here so that importing the package never loads it.
                from concurrent.futures import ProcessPoolExecutor

                pool = ProcessPoolExecutor(workers)
                results = pool.map(_execute_point, args)
            else:
                results = map(_execute_point, args)
            for (point, _, key), result in zip(jobs, results):
                if self.point_hook is not None:
                    self.point_hook(point)
                self.store.put(key, point.point_id, point.scenario, self.fingerprint, result)
                report.computed.append(point.point_id)
        finally:
            if pool is not None:
                # Waits for the points in flight, cancels the rest: a worker
                # killed while sending its result can leave the pool hung.
                pool.shutdown(cancel_futures=True)
            # results.jsonl is the source of truth; the manifest is a derived
            # index rewritten once per sweep (even an interrupted one).
            self.store.flush_manifest()

        report.store_digest = self.store.digest()
        return report
