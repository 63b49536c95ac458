"""Fuzz stimuli on cached builds against the reference path.

The scenario differential drives every registered scenario's *workload*
through the default build and through :func:`repro.scenarios.reference_mode`;
this file extends the same contract to *fuzz-shaped* stimuli: adversarial,
protocol-aware transaction sequences replayed after the workload.  Every
committed corpus case must replay exactly as recorded, and a seeded sample
of generated cases must leave identical per-step outcomes on both paths.
"""

from __future__ import annotations

import pathlib

import pytest

from repro.fuzz import FuzzCase, SequenceGenerator, load_cases, replay_case
from repro.fuzz.planted import planted_backdoor_spec
from repro.scenarios import get_scenario, reference_mode

CORPUS_ENTRIES = load_cases(
    pathlib.Path(__file__).parent.parent / "corpus" / "planted_backdoor.json"
)

#: Scenario/seed pairs for the generated smoke sample: the stateful packs
#: (where the protocol devices live) plus one bridged fabric.
SMOKE_TARGETS = [
    ("firmware_update_bay", 7),
    ("secure_boot_bay", 7),
    ("two_segment_dma_isolation", 7),
]


def _spec_for(name: str):
    if name == "planted_backdoor":
        return planted_backdoor_spec()
    return get_scenario(name)


def _replay_both(spec, case: FuzzCase):
    cached = replay_case(spec, case)
    with reference_mode():
        reference = replay_case(spec, case)
    assert cached == reference, (
        f"{spec.name} case {case.digest()} diverged on the reference path:\n"
        f"  cached:    {cached}\n  reference: {reference}"
    )
    return cached


@pytest.mark.parametrize(
    "entry", CORPUS_ENTRIES,
    ids=[e["case"]["scenario"] for e in CORPUS_ENTRIES],
)
def test_committed_corpus_cases_replay_as_recorded(entry):
    case = FuzzCase.from_dict(entry["case"])
    assert _replay_both(_spec_for(case.scenario), case) == entry["replay"]


@pytest.mark.parametrize("name,seed", SMOKE_TARGETS, ids=[t[0] for t in SMOKE_TARGETS])
def test_generated_cases_match_reference_path(name, seed):
    spec = get_scenario(name)
    generator = SequenceGenerator(spec, seed)
    statuses = set()
    for _ in range(4):
        case = generator.generate(8)
        steps = _replay_both(spec, case)
        assert len(steps) == len(case)
        statuses.update(step["status"] for step in steps)
    # The sample must reach the targets, not only bounce off their guards.
    assert "completed" in statuses
