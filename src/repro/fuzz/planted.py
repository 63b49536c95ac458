"""The planted-backdoor spec: a hole the static verifier cannot see.

``planted_backdoor_spec()`` is the fuzzer's acceptance target, the dynamic
analogue of ``tests/test_staticcheck_analyzer.bypass_spec``: a scenario
that verifies *clean* statically — every master is firewalled, every
restriction enforced, zero ERROR findings — yet silently leaks secrets at
runtime, because the secure-boot sequencer was built with its debug
backdoor compiled in (``debug_unlock=True``).  The access policy authorises
the maintenance CPU to touch the boot device (that is what maintenance CPUs
do), so the three-step chain

    write DEBUG magic -> write STAGE 0 (rollback) -> read a key register

passes every firewall without an alert and restores real key material into
the readable bank.  Only a stateful, sequence-aware oracle can catch it —
which is the whole reason ``repro fuzz`` exists.

The spec is intentionally NOT registered: registered scenarios are meant to
be production-clean, and this one is a test fixture.
"""

from __future__ import annotations

from repro.scenarios.spec import (
    MasterSpec,
    ScenarioSpec,
    SlaveSpec,
    TopologySpec,
    WorkloadSpec,
)

__all__ = ["planted_backdoor_spec"]


def planted_backdoor_spec() -> ScenarioSpec:
    """A statically-clean spec with a known 3-step dynamic key leak."""
    return ScenarioSpec(
        name="planted_backdoor",
        description=(
            "secure-boot sequencer shipped with its debug backdoor compiled "
            "in; the maintenance CPU can silently roll back the boot stage "
            "and read restored key material"
        ),
        topology=TopologySpec(
            masters=(
                MasterSpec("cpu0", kind="cpu", accessible=("bram", "boot0")),
                MasterSpec("cpu1", kind="cpu", accessible=("bram",)),
            ),
            slaves=(
                SlaveSpec("bram", "bram", base=0x0, size=0x2000),
                SlaveSpec(
                    "boot0", "secure_boot", base=0x4200_0000, n_registers=8,
                    sensitive_registers=(4, 5, 6, 7),
                    debug_unlock=True,  # the planted hole
                ),
            ),
        ),
        workload=WorkloadSpec(n_operations=16),
        placement="leaf",
    )
