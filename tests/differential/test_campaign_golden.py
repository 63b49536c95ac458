"""Golden attack-campaign results.

Every registered scenario's attack campaign is pinned here: the canonical
form (:func:`repro.sweep.store.canonical_result`, wall-clock timings removed)
of an experiment's ``campaign`` section must hash to the digest recorded in
``tests/golden/campaign_fingerprints.json``.  Each scenario is pinned at two
seeds, once without instrumentation and once with a counting
:class:`~repro.api.events.StatsSink`, which fills ``event_totals``.  A change
to the campaign loop, an attack, the monitor or the platform factory that
moves a detection row, a monitor total, an event count or the campaign
metadata fails here with the scenario named.

The same runs must also keep the paper's detection claims, so a re-pin
cannot hide a detection regression: every distributed scenario that guards
its leaves (``leaf`` or ``both`` placement) detects every attack, bridge-only
placement detects some attacks but not all, centralized enforcement blocks
the hijacked-IP write only after it crossed the bus, and on
``paper_baseline`` every attack succeeds unprotected and fails protected, and
the three hijacked-IP attacks are stopped at the infected IP's own interface.

After an intentional behaviour change, regenerate the file with::

    PYTHONPATH=src python -m tests.golden --write campaign
"""

from __future__ import annotations

import hashlib
import json
import pathlib

import pytest

from repro.api import Experiment, StatsSink
from repro.scenarios import registry
from repro.sweep.store import canonical_result

GOLDEN_PATH = pathlib.Path(__file__).parent.parent / "golden" / "campaign_fingerprints.json"

ALL_SCENARIOS = registry.list_scenarios()

SEEDS = (0, 20111)

MODES = ("plain", "stats")


def _campaign(name: str, seed: int, mode: str):
    experiment = Experiment.from_scenario(name).with_seed(seed)
    if mode == "stats":
        experiment.with_sink(StatsSink())
    section = experiment.run().to_dict()["campaign"]
    return canonical_result({"campaign": section})["campaign"]


#: The hijacked-IP attacks of ``paper_baseline``: stopped at the interface
#: of the infected master, before the shared bus.
CONTAINED_AT_INTERFACE = {"sensitive_register_probe", "hijacked_ip_write", "exfiltration"}


def _check_detection_claims(name: str, section) -> None:
    spec = registry.get_scenario(name)
    summary = section["summary"]
    if spec.enforcement == "distributed" and spec.placement in ("leaf", "both"):
        assert summary["detected"] == summary["attacks"], f"{name}: {summary}"
    if spec.placement == "bridge":
        assert 0 < summary["detected"] < summary["attacks"], f"{name}: {summary}"
    if spec.enforcement == "centralized":
        # One central module stops and flags the hijacked write only at the
        # slave side, after it crossed the bus.
        row = next(r for r in section["rows"] if r["attack"] == "hijacked_ip_write")
        assert (row["protected"], row["contained_at_if"]) == ("blocked", "no"), row
    if name == "paper_baseline":
        assert summary["attacks"] == 7
        for row in section["rows"]:
            assert row["unprotected"] in ("succeeded", "detected_but_effective"), row
            assert row["protected"] in ("blocked", "failed_silently"), row
            if row["attack"] in CONTAINED_AT_INTERFACE:
                assert row["contained_at_if"] == "yes", row


def _golden_entry(section) -> object:
    if section is None:
        return None
    blob = json.dumps(section, sort_keys=True, separators=(",", ":"))
    summary = section["summary"]
    return {
        "digest": hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16],
        "attacks": summary["attacks"],
        "detected": summary["detected"],
        "prevented": summary["prevented"],
    }


def _golden_table() -> dict:
    return {
        name: {
            str(seed): {mode: _golden_entry(_campaign(name, seed, mode)) for mode in MODES}
            for seed in SEEDS
        }
        for name in ALL_SCENARIOS
    }


def golden_text() -> str:
    return json.dumps(_golden_table(), indent=2, sort_keys=True) + "\n"


def _load_golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", ALL_SCENARIOS)
def test_campaign_matches_golden(name, seed, mode):
    want = _load_golden()[name][str(seed)][mode]
    section = _campaign(name, seed, mode)
    if section is not None:
        _check_detection_claims(name, section)
    got = _golden_entry(section)
    assert got == want, (
        f"{name} (seed {seed}, {mode}) drifted from tests/golden/campaign_fingerprints.json: "
        f"got {got}, want {want}; regenerate the file if the change is intentional"
    )


def test_golden_file_covers_the_registry():
    golden = _load_golden()
    assert sorted(golden) == sorted(ALL_SCENARIOS)
    assert len(ALL_SCENARIOS) >= 8
    for name, by_seed in golden.items():
        assert sorted(by_seed) == sorted(str(seed) for seed in SEEDS), name
        for by_mode in by_seed.values():
            assert sorted(by_mode) == sorted(MODES), name
    # The pins only guard the loop if most scenarios actually run a campaign.
    pinned = [name for name, by_seed in golden.items() if by_seed["0"]["plain"] is not None]
    assert len(pinned) >= len(ALL_SCENARIOS) - 2
