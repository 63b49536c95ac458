"""Golden-model differential harness: memoised builds vs. plain builds.

A platform memoises three per-transaction answers: each Security Builder's
policy decisions, each Local Ciphering Firewall's protected-region lookups
(kept while its Security Builder memoises) and keystream blocks, in each CTR
mode's LRU and in the process-wide memo behind it.  Their contract is
*observable equivalence*: same ciphertexts, same alerts, same cycle counts,
same statistics.  This module locks that contract down systematically: it
runs a whole scenario twice — once with the memos on (the default) and once
inside :func:`reference_mode`, which builds every platform with them off —
and compares structural fingerprints of the two runs.  The ciphers have no
switch: the tests compare the table-driven AES and the :mod:`hashlib`
SHA-256 directly against their from-scratch references.

A fingerprint deliberately excludes cache statistics (hits/misses differ by
construction) and wall-clock time; everything else — simulated cycles, event
counts, the full alert stream, raw memory images (i.e. the ciphertexts the
external attacker sees), firewall verdict counters and per-attack outcomes —
must match bit for bit.
"""

from __future__ import annotations

import contextlib
from typing import Dict, List, Optional, Union

from repro.baselines.centralized import CentralizedPlatform
from repro.core.local_firewall import decision_cache_enabled, use_decision_cache
from repro.core.secure import SecuredPlatform
from repro.crypto.modes import keystream_cache_enabled, use_keystream_cache
from repro.crypto.sha256 import sha256
from repro.soc.system import SoCSystem

from repro.scenarios.builder import BuiltScenario, ScenarioBuilder, instantiate_attacks
from repro.scenarios.spec import ScenarioSpec

__all__ = [
    "reference_mode",
    "run_scenario",
    "differential_pair",
    "diff_fingerprints",
    "assert_equivalent",
]


@contextlib.contextmanager
def reference_mode():
    """Build platforms with their per-transaction memos off inside the block.

    * new Security Builders skip the decision cache, and so the Local
      Ciphering Firewalls they belong to skip the region memo,
    * new CTR modes skip both keystream levels: their own LRU and the
      process-wide memo that every cached mode shares
      (:mod:`repro.crypto.modes`).

    Platforms must be *built inside* the block: only the defaults a build
    reads change.  Two memos stay on.  The address-decode memo of
    :mod:`repro.soc.address_map` answers from a map that is fixed once the
    fabric is finalized, and :mod:`repro.crypto.merkle`'s all-zero tree
    levels are a pure function of the tree size.
    """
    saved = (keystream_cache_enabled(), decision_cache_enabled())
    use_keystream_cache(False)
    use_decision_cache(False)
    try:
        yield
    finally:
        use_keystream_cache(saved[0])
        use_decision_cache(saved[1])


# ---------------------------------------------------------------------------
# Fingerprinting
# ---------------------------------------------------------------------------


def _memory_digests(system: SoCSystem) -> Dict[str, str]:
    """SHA-256 of every memory's raw backing store and every IP's registers.

    For protected external memories the raw store holds ciphertext, so this
    digest *is* the "identical ciphertexts" half of the differential check.
    """
    digests: Dict[str, str] = {}
    for name in sorted(system.memories):
        device = system.memories[name]
        digests[name] = sha256(device.peek(device.base, device.size)).hex()
    for name in sorted(system.ips):
        device = system.ips[name]
        words = b"".join(
            device.read_register(i).to_bytes(4, "little") for i in range(device.n_registers)
        )
        digests[name] = sha256(words).hex()
    return digests


def _alert_fingerprint(monitor) -> List[tuple]:
    # txn_id is excluded deliberately: transaction ids come from a
    # process-global counter, so they differ between two runs in the same
    # process even when the runs are behaviourally identical.
    if monitor is None:
        return []
    return [
        (a.cycle, a.firewall, a.master, a.violation.value, a.address)
        for a in monitor.alerts
    ]


def _security_totals(
    security: Optional[Union[SecuredPlatform, CentralizedPlatform]]
) -> Dict[str, Dict[str, object]]:
    """Firewall verdict counters, minus the cache statistics that legitimately
    differ between the fast and reference runs."""
    if security is None:
        return {}
    if isinstance(security, CentralizedPlatform):
        return {
            "sem": {
                "evaluations": security.module.evaluations,
                "violations": security.module.violations,
            }
        }
    totals: Dict[str, Dict[str, object]] = {}
    for firewall in security.all_firewalls:
        totals[firewall.name] = {
            key: value for key, value in firewall.summary().items() if "cache" not in key
        }
    return totals


def _variant_fingerprint(built: BuiltScenario, final_cycle: int) -> Dict[str, object]:
    system = built.system
    fingerprint: Dict[str, object] = {
        "workload_cycles": final_cycle,
        "makespan": system.execution_cycles(),
        "events_processed": system.sim.events_processed,
        "memories": _memory_digests(system),
        "alerts": _alert_fingerprint(built.monitor),
        "firewalls": _security_totals(built.security),
    }
    if isinstance(built.security, SecuredPlatform):
        fingerprint["reactions"] = [
            (e.cycle, e.kind, e.target) for e in built.security.manager.reactions
        ]
    return fingerprint


def _attack_fingerprint(spec: ScenarioSpec, protected: bool) -> List[Dict[str, object]]:
    """Run each attack of the mix on a fresh platform; fingerprint outcomes."""
    builder = ScenarioBuilder(spec)
    rows: List[Dict[str, object]] = []
    for attack in instantiate_attacks(spec):
        built = builder.build(protected)
        result = attack.run(built.system, built.security)
        rows.append(
            {
                "attack": result.attack,
                "outcome": result.outcome.value,
                "achieved_goal": result.achieved_goal,
                "detected": result.detected,
                "contained": result.contained_at_interface,
                "detection_cycle": result.detection_cycle,
                "alerts": result.alerts,
                "final_cycle": built.system.sim.now,
                "memories": _memory_digests(built.system),
            }
        )
    return rows


def run_scenario(spec: ScenarioSpec) -> Dict[str, object]:
    """Run one scenario end to end and return its structural fingerprint.

    The fingerprint covers the workload phase (protected and unprotected
    builds) and every attack of the mix (each on a fresh platform, again on
    both builds) — everything that must be invariant between the fast and the
    reference implementations.
    """
    fingerprint: Dict[str, object] = {"scenario": spec.name}
    for label, protected in (("protected", True), ("unprotected", False)):
        built = ScenarioBuilder(spec).build(protected)
        final_cycle = built.run_workload()
        variant = _variant_fingerprint(built, final_cycle)
        variant["attacks"] = _attack_fingerprint(spec, protected)
        fingerprint[label] = variant
    return fingerprint


def differential_pair(spec_factory) -> tuple:
    """Fingerprints of the same scenario with the memos on and off.

    ``spec_factory`` is called once per run (specs are cheap; a fresh one per
    run rules out accidental state sharing).
    """
    fast = run_scenario(spec_factory())
    with reference_mode():
        reference = run_scenario(spec_factory())
    return fast, reference


def diff_fingerprints(a: object, b: object, path: str = "") -> List[str]:
    """Human-readable list of paths where two fingerprints diverge."""
    diffs: List[str] = []
    if isinstance(a, dict) and isinstance(b, dict):
        for key in sorted(set(a) | set(b)):
            if key not in a or key not in b:
                diffs.append(f"{path}/{key}: only in one fingerprint")
            else:
                diffs.extend(diff_fingerprints(a[key], b[key], f"{path}/{key}"))
    elif isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)):
        if len(a) != len(b):
            diffs.append(f"{path}: length {len(a)} != {len(b)}")
        else:
            for index, (left, right) in enumerate(zip(a, b)):
                diffs.extend(diff_fingerprints(left, right, f"{path}[{index}]"))
    elif a != b:
        diffs.append(f"{path}: {a!r} != {b!r}")
    return diffs


def assert_equivalent(fast: Dict[str, object], reference: Dict[str, object]) -> None:
    """Raise AssertionError naming every diverging fingerprint path."""
    diffs = diff_fingerprints(fast, reference)
    if diffs:
        raise AssertionError(
            "fast and reference runs diverge:\n  " + "\n  ".join(diffs)
        )
