"""The campaign loop: every attack against fresh platforms, in this process.

:class:`CampaignRunner` runs each attack of a battery twice, on a fresh
unprotected and a fresh protected platform from its platform factory, and
scores the pair into one :class:`~repro.attacks.campaign.CampaignRow` of the
detection matrix.  A fresh platform per run keeps the runs independent:
alerts, quarantines and memory tampering from one attack cannot influence the
next.  Every registered campaign runs in milliseconds, so the loop is a plain
loop in the calling process.

Alongside the rows, the report carries the protected-platform monitor alert
counts per violation type (``monitor_totals``), optionally the
instrumentation-event counts of every platform the campaign built
(``event_totals``), and a small ``metrics`` record with the wall time.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Optional, Sequence

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (scenarios -> attacks)
    from repro.scenarios.spec import ScenarioSpec

from repro.attacks.base import Attack
from repro.attacks.campaign import CampaignReport, CampaignRow, PlatformFactory

__all__ = ["CampaignRunner", "shard_seed"]


def shard_seed(base_seed: int, shard_index: int) -> int:
    """Deterministic seed recorded in a campaign's ``metrics["shards"]``."""
    # splitmix64-style mix so neighbouring indices get unrelated values.
    value = (base_seed + 0x9E3779B97F4A7C15 * (shard_index + 1)) & 0xFFFFFFFFFFFFFFFF
    value = ((value ^ (value >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    value = ((value ^ (value >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return value ^ (value >> 31)


class CampaignRunner:
    """Run a battery of attacks against protected and unprotected platforms.

    Parameters
    ----------
    attacks:
        Attack instances to run, in order.
    platform_factory:
        ``factory(protected) -> (system, security_or_None)``, called twice
        per attack (:func:`repro.scenarios.platform_factory_for` makes one
        from a scenario spec).
    base_seed:
        Recorded in ``metrics["shards"][0]["seed"]`` through
        :func:`shard_seed`.  Attacks draw no randomness from it.
    collect_events:
        Attach a counting-only instrumentation sink to every platform the
        campaign builds and report its per-kind counts as
        :attr:`~repro.attacks.campaign.CampaignReport.event_totals`.

    A runner made by :meth:`from_spec` records the scenario name in
    ``metrics["scenario"]``.
    """

    def __init__(
        self,
        attacks: Sequence[Attack],
        platform_factory: PlatformFactory,
        *,
        base_seed: int = 0,
        collect_events: bool = False,
    ) -> None:
        if not attacks:
            raise ValueError("campaign needs at least one attack")
        self.attacks = list(attacks)
        self.platform_factory = platform_factory
        self.base_seed = base_seed
        self.collect_events = collect_events
        self.scenario: Optional[str] = None

    @classmethod
    def from_spec(
        cls,
        spec: "ScenarioSpec",
        *,
        base_seed: int = 0,
        collect_events: bool = False,
    ) -> "CampaignRunner":
        """A runner over a scenario's own attack mix and platforms.

        Raises :class:`ValueError` when the scenario defines no attacks —
        same contract as construction with an empty battery.
        """
        from repro.scenarios import instantiate_attacks, platform_factory_for

        attacks = instantiate_attacks(spec)
        if not attacks:
            raise ValueError(f"scenario {spec.name!r} has no attack mix")
        runner = cls(
            attacks,
            platform_factory_for(spec),
            base_seed=base_seed,
            collect_events=collect_events,
        )
        runner.scenario = spec.name
        return runner

    def run(self) -> CampaignReport:
        """Execute every attack on both platform variants."""
        # Feeds only metrics["wall_seconds"], which canonical_result strips
        # before results are keyed or digested.
        started = time.perf_counter()  # determinism: allow
        stats = bus = None
        if self.collect_events:
            # Imported lazily: repro.api composes the attack layer, not vice versa.
            from repro.api.events import EventBus, StatsSink, attach_instrumentation

            stats = StatsSink()
            bus = EventBus([stats])

        report = CampaignReport()
        for attack in self.attacks:
            system_plain, _ = self.platform_factory(False)
            if bus is not None:
                attach_instrumentation(system_plain, None, bus)
            unprotected = attack.run(system_plain, None)

            system_secure, security = self.platform_factory(True)
            if bus is not None:
                attach_instrumentation(system_secure, security, bus)
            protected = attack.run(system_secure, security)

            report.add(
                CampaignRow(
                    attack=attack.name,
                    goal=attack.goal,
                    unprotected=unprotected,
                    protected=protected,
                )
            )
            if security is not None:
                for violation, count in security.monitor.alerts_by_violation().items():
                    totals = report.monitor_totals
                    totals[violation.value] = totals.get(violation.value, 0) + count

        if stats is not None:
            report.event_totals = dict(stats.counts)
        report.metrics = {
            "n_workers": 1,
            "wall_seconds": time.perf_counter() - started,  # determinism: allow
            "shards": [
                {
                    "shard": 0,
                    "seed": shard_seed(self.base_seed, 0),
                    "attacks": len(self.attacks),
                }
            ],
        }
        if self.scenario is not None:
            report.metrics["scenario"] = self.scenario
        return report
