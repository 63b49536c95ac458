"""Workload generation for the reproduction experiments.

The paper's performance discussion is parameterised by two ratios:

* the share of *communication* time versus *computation* time, and
* the share of *external* (DDR) communication versus *internal* (BRAM / IP)
  communication,

because "external communications have a larger overhead due to the
cryptography resources" (section V).  The generators here expose exactly
those knobs; a scenario's :class:`repro.scenarios.spec.WorkloadSpec` sets
them for every CPU.
"""
