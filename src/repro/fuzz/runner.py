"""The fuzzing loop behind ``repro fuzz``.

One run is a pure function of (scenario, seed, budget, steps-per-case): the
generator is the only randomness source, the oracle replay is deterministic
simulation, and the report carries no wall clock — the same invocation is
bit-reproducible, which is what lets CI diff two runs of the same seed.

Coverage feedback: every case whose replay produces a *novel* device-counter
signature (which protocol transitions it exercised) joins the mutation pool,
so sequences that got partway through a device protocol breed sequences that
finish it.  Every found violation is minimized with the ddmin shrinker and
then replayed after a workload run; the per-step outcomes of that replay go
into the report's finding, so a corpus file written from it pins them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple, Union

from repro.fuzz.case import FuzzCase
from repro.fuzz.generator import SequenceGenerator
from repro.fuzz.oracle import BypassOracle, Violation
from repro.fuzz.shrink import shrink_case
from repro.scenarios.builder import ScenarioBuilder
from repro.scenarios.spec import ScenarioSpec

__all__ = ["FuzzReport", "fuzz_scenario", "replay_case"]


def replay_case(
    source: Union[ScenarioSpec, ScenarioBuilder], case: FuzzCase
) -> List[Dict[str, object]]:
    """Replay one case after a workload run: each step's status and the
    number of alerts it raised.  ``source`` is the scenario's spec or a
    builder of it (pass the oracle's to reuse it)."""
    builder = source if isinstance(source, ScenarioBuilder) else ScenarioBuilder(source)
    built = builder.build()
    built.run_workload()
    steps: List[Dict[str, object]] = []
    for step in case.steps:
        if step.master not in built.system.master_ports:
            steps.append({"status": "skipped", "alerts": 0})
            continue
        txn, alerts = built.issue(step)
        steps.append({"status": txn.status.value, "alerts": alerts})
    return steps


@dataclass
class FuzzReport:
    """Outcome of one seeded fuzz run (wall-clock free, JSON-stable)."""

    scenario: str
    seed: int
    budget: int
    n_steps: int
    cases_run: int = 0
    steps_run: int = 0
    blocked_steps: int = 0
    coverage_signatures: int = 0
    #: One record per distinct violation identity:
    #: {"case", "violation", "replay"}.
    findings: List[Dict[str, object]] = field(default_factory=list)
    #: Keys of the corpus entries written from this run's findings
    #: (``repro fuzz --corpus``; see :func:`repro.fuzz.corpus.export_cases`).
    corpus_keys: List[str] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return not self.findings

    def to_dict(self) -> Dict[str, object]:
        def scrub(value: object) -> object:
            # Finding records may carry tuples; normalise for JSON equality
            # so two runs of the same seed serialise identically.
            if isinstance(value, dict):
                return {str(k): scrub(v) for k, v in value.items()}
            if isinstance(value, (list, tuple)):
                return [scrub(v) for v in value]
            return value

        return {
            "schema": 1,
            "scenario": self.scenario,
            "seed": self.seed,
            "budget": self.budget,
            "n_steps": self.n_steps,
            "cases_run": self.cases_run,
            "steps_run": self.steps_run,
            "blocked_steps": self.blocked_steps,
            "coverage_signatures": self.coverage_signatures,
            "clean": self.clean,
            "findings": scrub(self.findings),
            "corpus_keys": list(self.corpus_keys),
        }


def _judge_violation(
    oracle: BypassOracle, case: FuzzCase, violation: Violation
) -> Dict[str, object]:
    """Minimize and replay one finding into its ``{case, violation, replay}``
    record."""
    minimized = shrink_case(oracle, case, violation)
    replay = oracle.run(minimized)
    confirmed = next(
        (v for v in replay.violations if v.identity == violation.identity),
        violation,
    )
    return {
        "case": minimized.to_dict(),
        "violation": confirmed.to_dict(),
        "replay": replay_case(oracle.builder, minimized),
    }


def fuzz_scenario(
    spec: ScenarioSpec,
    *,
    seed: int = 0,
    budget: int = 200,
    n_steps: int = 12,
    engines: Sequence[str] = ("object",),
) -> FuzzReport:
    """Search ``budget`` cases for silent reaches of protected memory.

    ``budget`` and ``n_steps`` must each be at least 1: a run that tries
    nothing must not report clean.  ``engines`` accepts only ``("object",)``,
    the one execution engine; it is kept so callers that pin the engine keep
    working.
    """
    if tuple(engines) != ("object",):
        raise ValueError(f"unknown engines {engines!r}; the only engine is 'object'")
    if budget < 1:
        raise ValueError(f"budget must be >= 1, got {budget}")
    if n_steps < 1:
        raise ValueError(f"n_steps must be >= 1, got {n_steps}")
    generator = SequenceGenerator(spec, seed)
    oracle = BypassOracle(spec)
    report = FuzzReport(scenario=spec.name, seed=seed, budget=budget, n_steps=n_steps)
    pool: List[FuzzCase] = []
    seen_signatures: set = set()
    found: Dict[Tuple[str, str, str, str], bool] = {}

    for _ in range(budget):
        if pool and generator.rng.random() < 0.5:
            case = generator.mutate(pool[generator.rng.randrange(len(pool))])
        else:
            case = generator.generate(n_steps)
        result = oracle.run(case)
        report.cases_run += 1
        report.steps_run += result.steps_run
        report.blocked_steps += result.blocked_steps
        if result.signature and result.signature not in seen_signatures:
            seen_signatures.add(result.signature)
            pool.append(case)
        for violation in result.violations:
            if violation.identity in found:
                continue
            found[violation.identity] = True
            report.findings.append(_judge_violation(oracle, case, violation))

    report.coverage_signatures = len(seen_signatures)
    return report
