"""Golden fingerprints of the Figure-1 platform the unit tests build.

Most unit and integration tests run on one geometry: three CPUs and a DMA,
a 128 KiB BRAM, a 64-register dedicated IP and a 16 MiB DDR whose bottom
holds a ciphered+authenticated and a ciphered-only window.  This file pins
what that platform is and does, for 8 KiB/8 KiB and 1 KiB/1 KiB windows:

* every firewall's installed rules (base, size, label, RWA, formats, max
  burst, confidentiality, integrity), in installation order;
* the six address fields of ``system.config``;
* one seeded :func:`~repro.workloads.generators.make_uniform_programs` run on
  the protected platform: makespan, kernel events, memory digests (DDR
  ciphertext included), alert tuples and the security summary;
* the same run under the centralized baseline;
* the ``attack_heavy`` battery's campaign rows and monitor totals.

After an intentional behaviour change, regenerate the file with::

    PYTHONPATH=src python -m tests.golden --write figure1
"""

from __future__ import annotations

import hashlib
import json
import pathlib

import pytest

from repro.attacks.runner import CampaignRunner
from repro.baselines.centralized import CentralizedPlatform
from repro.scenarios import get_scenario, instantiate_attacks, platform_factory_for
from repro.scenarios.differential import _alert_fingerprint, _memory_digests
from repro.workloads.generators import make_uniform_programs
from tests.conftest import build_figure1, figure1_spec

GOLDEN_PATH = pathlib.Path(__file__).parent.parent / "golden" / "figure1_fingerprints.json"

#: Sizes of the secure and of the cipher-only DDR window.
WINDOWS = (8 * 1024, 1024)

CONFIG_FIELDS = ("bram_base", "bram_size", "ip_regs_base", "ip_n_registers", "ddr_base", "ddr_size")


def _platform(window: int, centralized: bool = False):
    """``(system, security)`` for the protected Figure-1 platform."""
    enforcement = "centralized" if centralized else "distributed"
    return build_figure1(window=window, enforcement=enforcement)


def _digest(value) -> str:
    blob = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


def _rules(memory) -> list:
    return [
        f"{rule.base:#x}+{rule.size:#x} {rule.label} {rule.policy.rwa.value} "
        f"formats={sorted(rule.policy.allowed_formats)} burst={rule.policy.max_burst_length} "
        f"{rule.policy.confidentiality.value}/{rule.policy.integrity.value}"
        for rule in memory.rules
    ]


def _installed_rules(security) -> list:
    if isinstance(security, CentralizedPlatform):
        return [[security.module.name, _rules(security.module.config_memory)]]
    return [[fw.name, _rules(fw.config_memory)] for fw in security.all_firewalls]


def _workload_run(window: int, centralized: bool) -> dict:
    system, security = _platform(window, centralized=centralized)
    programs = make_uniform_programs(
        system.config,
        ["cpu0", "cpu1", "cpu2"],
        n_operations=60,
        communication_ratio=0.7,
        external_share=0.5,
        external_working_set=20 * 1024,
        ip_share_of_internal=0.4,
        seed=5,
    )
    system.load_programs(programs)
    system.start_all(stagger=3)
    system.run()
    fingerprint = {
        "makespan": system.execution_cycles(),
        "events_processed": system.sim.events_processed,
        "memories": _memory_digests(system),
        "alerts": [list(alert) for alert in _alert_fingerprint(security.monitor)],
        "summary": security.summary(),
    }
    return {
        "digest": _digest(fingerprint),
        "makespan": fingerprint["makespan"],
        "events_processed": fingerprint["events_processed"],
        "alerts": len(fingerprint["alerts"]),
    }


def _campaign(window: int) -> dict:
    attacks = instantiate_attacks(get_scenario("attack_heavy"))
    factory = platform_factory_for(figure1_spec(window, flood_threshold=20))
    report = CampaignRunner(attacks, factory).run()
    rows = [
        {
            "attack": row.attack,
            "goal": row.goal,
            **{
                label: {
                    "achieved_goal": result.achieved_goal,
                    "detected": result.detected,
                    "contained": result.contained_at_interface,
                    "detection_cycle": result.detection_cycle,
                    "alerts": result.alerts,
                    "detail": result.detail,
                }
                for label, result in (("unprotected", row.unprotected), ("protected", row.protected))
            },
        }
        for row in report.rows
    ]
    return {
        "digest": _digest(rows),
        "monitor_totals": dict(sorted(report.monitor_totals.items())),
        "summary": {
            "attacks": report.n_attacks,
            "detected": report.n_detected,
            "prevented": report.n_prevented,
        },
    }


def _fingerprint(window: int) -> dict:
    system, security = _platform(window)
    _, central = _platform(window, centralized=True)
    return {
        "rules": _installed_rules(security),
        "centralized_rules": _installed_rules(central),
        "config": {name: getattr(system.config, name) for name in CONFIG_FIELDS},
        "workload": _workload_run(window, centralized=False),
        "workload_centralized": _workload_run(window, centralized=True),
        "campaign": _campaign(window),
    }


def _golden_table() -> dict:
    return {str(window): _fingerprint(window) for window in WINDOWS}


def golden_text() -> str:
    return json.dumps(_golden_table(), indent=2, sort_keys=True) + "\n"


def _load_golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


@pytest.mark.parametrize("window", WINDOWS)
def test_figure1_platform_matches_golden(window):
    want = _load_golden()[str(window)]
    got = json.loads(json.dumps(_fingerprint(window)))
    for key in want:
        assert got[key] == want[key], (
            f"{key} ({window}-byte windows) drifted from tests/golden/figure1_fingerprints.json: "
            f"got {got[key]}, want {want[key]}; regenerate the file if the change is intentional"
        )
    assert sorted(got) == sorted(want)


def test_golden_file_covers_both_windows():
    assert sorted(_load_golden()) == sorted(str(window) for window in WINDOWS)
