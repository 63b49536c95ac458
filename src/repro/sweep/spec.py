"""Declarative sweep grids: scenario × placement × seed × protection axes.

A :class:`SweepSpec` names the axes of a grid sweep; :meth:`SweepSpec.plan`
expands it into concrete :class:`SweepPoint`\\ s, silently skipping only the
combinations the topology itself rules out (bridge placement on a flat bus)
and recording those skips so reports stay honest.  Each point has

* a human-readable, filterable **point id** (``scenario/placement=…/seed=…``),
* a content **key** — the SHA-256 of the point's parameters, the fully
  *resolved* :class:`~repro.scenarios.spec.ScenarioSpec` (so editing a
  scenario definition invalidates its cached results), the result schema
  version and the code fingerprint of the installed ``repro`` package.

Everything is plain data: specs and points pickle, which is what lets the
engine run points in worker processes (``sweep_workers``).
"""

from __future__ import annotations

import dataclasses
import fnmatch
import hashlib
import json
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.api.experiment import RESULT_SCHEMA_VERSION, _jsonable
from repro.scenarios.registry import list_scenarios
from repro.scenarios.spec import ScenarioSpec

__all__ = ["SweepSpec", "SweepPoint", "SweepPlan", "point_key", "spec_hash"]


#: How a point treats the scenario's attack mix.
ATTACK_MODES: Tuple[str, ...] = ("scenario", "none")


def _canonical_json(value: object) -> str:
    """Canonical serialization used by every hash in the sweep layer."""
    return json.dumps(_jsonable(value), sort_keys=True, separators=(",", ":"))


def spec_hash(spec: ScenarioSpec) -> str:
    """Content hash of one resolved scenario definition."""
    return hashlib.sha256(
        _canonical_json(dataclasses.asdict(spec)).encode()
    ).hexdigest()[:16]


@dataclass(frozen=True)
class SweepPoint:
    """One cell of the expanded grid."""

    scenario: str
    placement: Optional[str]  # None = the scenario's own placement
    seed: int
    protected: bool
    workload_ops: Optional[int]  # None = the scenario's own workload size
    attack_mode: str  # "scenario" or "none"

    @property
    def point_id(self) -> str:
        """Stable human-readable identity (the filter and report label).

        The ``/workers=1`` segment and the trailing ``/engine=default`` are
        frozen parts of the format, so ids of stored results and published
        reports stay valid.
        """
        return (
            f"{self.scenario}"
            f"/placement={self.placement or 'default'}"
            f"/seed={self.seed}"
            "/workers=1"
            f"/{'protected' if self.protected else 'unprotected'}"
            f"/attacks={self.attack_mode}"
            f"/ops={'default' if self.workload_ops is None else self.workload_ops}"
            "/engine=default"
        )

    def resolve_spec(self, base: ScenarioSpec) -> ScenarioSpec:
        """The scenario specification this point actually runs."""
        spec = base
        if self.placement is not None and self.placement != spec.placement:
            spec = dataclasses.replace(spec, placement=self.placement)
        if self.workload_ops is not None and spec.workload is not None:
            spec = dataclasses.replace(
                spec,
                workload=dataclasses.replace(spec.workload, n_operations=self.workload_ops),
            )
        return spec


def point_key(point: SweepPoint, resolved: ScenarioSpec, fingerprint: str) -> str:
    """Content-addressed store key of one point.

    Covers the point parameters, the fully resolved scenario definition, the
    result schema version and the code fingerprint — change any of them and
    the key (hence the cache entry) changes.
    """
    payload = {
        "point": dataclasses.asdict(point),
        "scenario_spec": dataclasses.asdict(resolved),
        "schema_version": RESULT_SCHEMA_VERSION,
        "fingerprint": fingerprint,
    }
    return hashlib.sha256(_canonical_json(payload).encode()).hexdigest()


@dataclass(frozen=True)
class SweepPlan:
    """Expanded grid: the points to run, the combinations ruled out, and the
    base scenario specs already resolved during expansion (keyed by name, so
    the engine never re-resolves)."""

    points: Tuple[SweepPoint, ...]
    skipped: Tuple[Dict[str, str], ...]  # {"point_id": ..., "reason": ...}
    bases: Dict[str, ScenarioSpec] = dataclasses.field(default_factory=dict)


@dataclass(frozen=True)
class SweepSpec:
    """A grid sweep description (every field is an axis or a filter).

    Empty ``scenarios`` means every registered scenario.  ``placements``
    entries of ``None`` keep each scenario's own placement; explicit
    placements that a topology cannot support (bridge placement without
    bridges) are skipped with a recorded reason.  ``include`` / ``exclude``
    are ``fnmatch`` patterns matched against both the scenario name and the
    full point id (exclude wins).  ``campaign_workers`` accepts only
    ``(1,)``: campaigns run in-process, and the field stays so callers that
    pin it keep working.
    """

    scenarios: Tuple[str, ...] = ()
    placements: Tuple[Optional[str], ...] = (None,)
    seeds: Tuple[int, ...] = (0,)
    campaign_workers: Tuple[int, ...] = (1,)
    protected: Tuple[bool, ...] = (True,)
    workload_ops: Tuple[Optional[int], ...] = (None,)
    attack_modes: Tuple[str, ...] = ("scenario",)
    include: Tuple[str, ...] = ()
    exclude: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        for mode in self.attack_modes:
            if mode not in ATTACK_MODES:
                raise ValueError(f"attack mode must be one of {ATTACK_MODES}, got {mode!r}")
        if self.campaign_workers != (1,):
            raise ValueError(
                f"campaigns run in-process; campaign_workers must be (1,), "
                f"got {self.campaign_workers!r}"
            )
        # ``scenarios`` may legitimately be empty ("all registered").
        for axis in ("placements", "seeds", "protected", "workload_ops", "attack_modes"):
            if not getattr(self, axis):
                raise ValueError(f"sweep axis {axis!r} must not be empty")

    def sweep_hash(self) -> str:
        """Content hash of the grid description itself (reports carry it)."""
        return hashlib.sha256(
            _canonical_json(dataclasses.asdict(self)).encode()
        ).hexdigest()[:16]

    def _selected(self, scenario: str, point_id: str) -> bool:
        subjects = (scenario, point_id)
        if self.include and not any(
            fnmatch.fnmatch(s, pattern) for pattern in self.include for s in subjects
        ):
            return False
        return not any(
            fnmatch.fnmatch(s, pattern) for pattern in self.exclude for s in subjects
        )

    def plan(
        self, resolver: Optional[Callable[[str], ScenarioSpec]] = None
    ) -> SweepPlan:
        """Expand the grid into concrete points.

        ``resolver`` maps a scenario name to its base
        :class:`ScenarioSpec` (defaults to the registry) and exists so tests
        and embedders can sweep unregistered or modified definitions.
        """
        from repro.scenarios.registry import get_scenario

        resolver = resolver or get_scenario
        names = self.scenarios or tuple(list_scenarios())
        points: List[SweepPoint] = []
        skipped: List[Dict[str, str]] = []
        seen_ids: Set[str] = set()
        bases: Dict[str, ScenarioSpec] = {}
        for name in names:
            base = bases.setdefault(name, resolver(name))
            for placement in self.placements:
                # An explicit placement equal to the scenario's own collapses
                # to the default point, so equivalent grid cells share one
                # cache key instead of recomputing identical results.
                norm_placement = None if placement == base.placement else placement
                for seed in self.seeds:
                    for prot in self.protected:
                        for ops in self.workload_ops:
                            norm_ops = ops
                            if (
                                base.workload is not None
                                and ops == base.workload.n_operations
                            ):
                                norm_ops = None
                            for mode in self.attack_modes:
                                point = SweepPoint(
                                    scenario=name,
                                    placement=norm_placement,
                                    seed=seed,
                                    protected=prot,
                                    workload_ops=norm_ops,
                                    attack_mode=mode,
                                )
                                if point.point_id in seen_ids:
                                    continue
                                if not self._selected(name, point.point_id):
                                    continue
                                if (
                                    norm_placement in ("bridge", "both")
                                    and not base.topology.bridges
                                ):
                                    skipped.append({
                                        "point_id": point.point_id,
                                        "reason": f"placement {placement!r} needs bridges",
                                    })
                                    seen_ids.add(point.point_id)
                                    continue
                                seen_ids.add(point.point_id)
                                points.append(point)
        return SweepPlan(points=tuple(points), skipped=tuple(skipped), bases=bases)
