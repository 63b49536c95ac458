"""Property test: decision caches versus mid-stream reconfigurations.

The Security Builders memoise policy decisions; a mid-stream reconfiguration
(rule flip or removal) must invalidate those memos at the exact cycle it
lands, so the *tail* of the stream is judged by the new rules and every alert
lands at the same cycle in the same order as on a build with no caches at
all.  This test sweeps seeded random placements of the reconfiguration
cycles against random workload sizes — moving the swap point across compute
bursts and arbitration boundaries — and requires fingerprint identity
(alert ordering included) between the default build and one inside
:func:`repro.scenarios.reference_mode` on every draw.
"""

from __future__ import annotations

import random
from dataclasses import replace

import pytest

from repro.scenarios import reference_mode, registry
from repro.scenarios.builder import ScenarioBuilder
from repro.scenarios.differential import _variant_fingerprint, diff_fingerprints


def _randomized_spec(seed: int):
    rng = random.Random(0x5EED ^ (seed * 7919))
    base = registry.get_scenario("reconfiguration_under_load")
    workload = replace(
        base.workload,
        n_operations=rng.choice([23, 40, 77, 120, 150]),
        write_fraction=rng.choice([0.3, 0.5, 0.7]),
        compute_burst_cycles=rng.choice([0, 5, 10]),
        seed=rng.randrange(1, 10_000),
        stagger=rng.choice([1, 3, 7, 13]),
        # Small working sets revisit addresses, so memoised verdicts from
        # before a swap are looked up again after it.
        internal_working_set=rng.choice([64, 256, 2048]),
        external_working_set=rng.choice([64, 256, 2048]),
    )
    # Shuffle the swap points across the run (including very early and very
    # late cycles, so some draws reconfigure before the first grant and some
    # after the last transaction retires).
    reconfigs = tuple(
        replace(event, at_cycle=rng.randrange(1, 6000)) for event in base.reconfigs
    )
    return replace(base, workload=workload, reconfigs=reconfigs)


def _run(spec):
    built = ScenarioBuilder(spec).build(True)
    final = built.run_workload()
    hits = sum(fw.security_builder.cache_hits for fw in built.security.all_firewalls)
    return _variant_fingerprint(built, final), hits


@pytest.mark.parametrize("seed", range(8))
def test_reconfiguration_interleaving_matches_reference_path(seed):
    spec = _randomized_spec(seed)
    fp_cached, hits = _run(spec)
    with reference_mode():
        fp_reference, reference_hits = _run(spec)

    # The property is only exercised if the cached run actually served
    # verdicts from its memo and the reference run did not.
    assert hits > 0
    assert reference_hits == 0

    # Alert stream first (the sharpest observable: cycle, firewall, master,
    # violation, address — in emission order), then the full fingerprint.
    assert fp_cached["alerts"] == fp_reference["alerts"]
    diffs = diff_fingerprints(fp_cached, fp_reference)
    assert not diffs, (
        f"seed {seed} diverged (reconfigs at "
        f"{[e.at_cycle for e in spec.reconfigs]}):\n  " + "\n  ".join(diffs)
    )

    # The workload is legal until the first swap: no alert may precede it.
    first_swap = min(e.at_cycle for e in spec.reconfigs)
    assert all(cycle >= first_swap for cycle, *_ in fp_cached["alerts"])
