"""Golden fuzz reports.

Every registered scenario's short fuzz run is pinned here: the canonical JSON
of ``fuzz_scenario(spec, seed=0, budget=8, n_steps=8).to_dict()`` must hash
to the digest recorded in ``tests/golden/fuzz_reports.json``.  A change to
the generator, the oracle, the shrinker, the replay or the platform the
oracle builds that moves a case, a step count, a coverage signature or a
finding fails here with the scenario named.

After an intentional behaviour change, regenerate the file with::

    PYTHONPATH=src python -m tests.golden --write fuzz
"""

from __future__ import annotations

import hashlib
import json
import pathlib

import pytest

from repro.fuzz.runner import fuzz_scenario
from repro.scenarios import registry

GOLDEN_PATH = pathlib.Path(__file__).parent.parent / "golden" / "fuzz_reports.json"

ALL_SCENARIOS = registry.list_scenarios()

#: The pinned run: seed, cases and steps per case.
SEED, BUDGET, N_STEPS = 0, 8, 8


def _golden_entry(name: str) -> dict:
    report = fuzz_scenario(
        registry.get_scenario(name), seed=SEED, budget=BUDGET, n_steps=N_STEPS
    ).to_dict()
    blob = json.dumps(report, sort_keys=True, separators=(",", ":"))
    return {
        "digest": hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16],
        "steps_run": report["steps_run"],
        "blocked_steps": report["blocked_steps"],
        "findings": len(report["findings"]),
    }


def golden_text() -> str:
    table = {name: _golden_entry(name) for name in ALL_SCENARIOS}
    return json.dumps(table, indent=2, sort_keys=True) + "\n"


def _load_golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", ALL_SCENARIOS)
def test_fuzz_report_matches_golden(name):
    want = _load_golden()[name]
    got = _golden_entry(name)
    assert got == want, (
        f"{name} fuzz report drifted from tests/golden/fuzz_reports.json: "
        f"got {got}, want {want}; regenerate the file if the change is intentional"
    )


def test_golden_file_covers_the_registry():
    assert sorted(_load_golden()) == sorted(ALL_SCENARIOS)
