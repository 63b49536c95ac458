"""The paper's contribution: distributed security for an MPSoC bus.

The package re-exports nothing; import each name from its module:

* policies and configuration memories, plus the default policies and
  reaction thresholds security plans are built from
  (:mod:`repro.core.policy`),
* checking modules (:mod:`repro.core.checks`),
* the Local Firewall and the Local Ciphering Firewall
  (:mod:`repro.core.local_firewall`, :mod:`repro.core.ciphering_firewall`),
* alerting (:mod:`repro.core.alerts`) and runtime reaction / reconfiguration
  (:mod:`repro.core.manager`),
* :func:`repro.core.secure.attach_security`, which attaches all of the
  above to a platform according to a security plan
  (:mod:`repro.scenarios.plan` derives the plan from a scenario spec),
* the paper-calibrated latency constants (:mod:`repro.core.constants`).
"""
