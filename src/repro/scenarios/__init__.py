"""Scenario engine: declarative SoC topologies, builders and the registry.

The paper's claim is that the distributed Local Firewalls / Local Ciphering
Firewall architecture protects *any* bus-based MPSoC.  This package turns the
claim into an executable surface:

* :mod:`repro.scenarios.spec` — declarative ``TopologySpec`` / ``ScenarioSpec``
  (N masters, M slaves, protected-region maps, per-IP policies, workload and
  attack mixes, runtime reconfiguration events),
* :mod:`repro.scenarios.plan` — ``build_plan`` deriving the ``SecurityPlan``
  (which firewalls exist and the rules each Configuration Memory holds) as a
  pure function of a spec,
* :mod:`repro.scenarios.builder` — ``ScenarioBuilder`` assembling the kernel,
  fabric, devices and masters from a spec and attaching its plan's firewalls,
* :mod:`repro.scenarios.registry` — named stock scenarios (``paper_baseline``,
  ``many_master_contention``, ``crypto_heavy``, ...),
* :mod:`repro.scenarios.differential` — the golden-model harness proving the
  simulation fast paths are observably identical to the reference
  implementations on every registered scenario.
"""

from repro.scenarios.spec import (
    AttackSpec,
    BridgeSpec,
    MasterSpec,
    ReconfigSpec,
    ScenarioSpec,
    SegmentSpec,
    SlaveSpec,
    TopologySpec,
    WindowSpec,
    WorkloadSpec,
)
from repro.scenarios.builder import ATTACK_KINDS, BuiltScenario, ScenarioBuilder, instantiate_attacks
from repro.scenarios.registry import (
    get_scenario,
    iter_scenarios,
    list_scenarios,
    register_scenario,
)
from repro.scenarios.differential import (
    assert_equivalent,
    diff_fingerprints,
    differential_pair,
    reference_mode,
    run_scenario,
)

__all__ = [
    "AttackSpec",
    "BridgeSpec",
    "MasterSpec",
    "ReconfigSpec",
    "ScenarioSpec",
    "SegmentSpec",
    "SlaveSpec",
    "TopologySpec",
    "WindowSpec",
    "WorkloadSpec",
    "ATTACK_KINDS",
    "BuiltScenario",
    "ScenarioBuilder",
    "instantiate_attacks",
    "get_scenario",
    "iter_scenarios",
    "list_scenarios",
    "register_scenario",
    "assert_equivalent",
    "diff_fingerprints",
    "differential_pair",
    "reference_mode",
    "run_scenario",
    "platform_factory_for",
]


def platform_factory_for(spec: ScenarioSpec):
    """``factory(protected) -> (system, security_or_None)`` for one spec.

    Builds a fresh platform per call; this is the factory a scenario's
    attack campaign runs on.
    """

    def factory(protected: bool):
        built = ScenarioBuilder(spec).build(protected)
        return built.system, built.security

    return factory

