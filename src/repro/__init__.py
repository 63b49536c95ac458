"""repro -- reproduction of "Distributed security for communications and
memories in a multiprocessor architecture" (Cotret et al., RAW/IPDPS 2011).

The package is organised bottom-up:

* :mod:`repro.crypto` -- AES-128 in counter mode, SHA-256, Merkle hash
  trees, key store,
* :mod:`repro.soc` -- behavioural MPSoC simulator (event kernel, shared bus,
  BRAM/DDR, MicroBlaze-like processors, DMA, register-file IP),
* :mod:`repro.core` -- the paper's contribution: security policies,
  configuration memories, Local Firewalls, the Local Ciphering Firewall,
  alerts and the reconfiguration manager,
* :mod:`repro.attacks` -- spoofing / replay / relocation / hijack / DoS
  attack injection and campaign scoring,
* :mod:`repro.scenarios` -- declarative topologies (``ScenarioSpec``), the
  scenario builder/registry and the fast-vs-reference differential harness,
* :mod:`repro.workloads` -- synthetic workload generators,
* :mod:`repro.metrics` -- area model (Table I), latency model (Table II),
* :mod:`repro.analysis` -- tables, architecture reports, paper comparison.

* :mod:`repro.api` -- the unified experiment API: the ``Experiment`` façade
  (scenario -> build -> workload -> campaign -> ``ExperimentResult``), the
  instrumentation event bus and the ``python -m repro`` CLI,
* :mod:`repro.sweep` -- grid sweeps over the scenario registry with a
  persistent content-addressed result store and one-command regeneration of
  the paper's tables (``python -m repro paper``).

``repro`` itself exposes only ``Experiment`` and ``ExperimentResult``,
loaded lazily.  The substrate packages (``crypto``, ``soc``, ``core``,
``baselines``, ``workloads``, ``metrics``, ``analysis``) re-export nothing:
import each name from the module that defines it (for example
``from repro.core.policy import SecurityPolicy``), so importing one module
loads only what that module needs.

Quickstart::

    from repro.api import Experiment
    result = Experiment.from_scenario("paper_baseline").run()
    print(result.to_json())

or, for handle-level access to a built platform::

    built = Experiment.from_scenario("paper_baseline").build()
    system, security = built.system, built.security
    # load programs, run, inspect security.monitor ...

``ScenarioBuilder(spec).build()`` (:mod:`repro.scenarios`) does the same
for any :class:`~repro.scenarios.ScenarioSpec`, registered or not.

See ``examples/quickstart.py`` for a complete walk-through.
"""

__all__ = ["Experiment", "ExperimentResult"]


def __getattr__(name):
    # Lazy re-exports of the unified experiment API: ``repro.api`` pulls in
    # the scenario and attack layers, which would make ``import repro``
    # needlessly heavy (and cyclic) if imported eagerly here.
    if name in ("Experiment", "ExperimentResult"):
        from repro import api

        return getattr(api, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
