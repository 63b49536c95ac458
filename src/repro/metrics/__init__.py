"""Metrics: FPGA area model (Table I) and latency/throughput model (Table II).

Section V's execution-time overhead needs no module of its own: it is the
``workload["makespan"]`` of a protected :class:`repro.api.Experiment` run
against that of the unprotected run of the same spec.

The simulator cannot synthesise RTL, so Table I is regenerated by a resource
*model* calibrated with the paper's own per-component breakdown (see
:mod:`repro.metrics.area` and the substitution table in DESIGN.md).  Latency
numbers, by contrast, are genuinely *measured* on the simulated platform: the
firewalls charge per-module cycle counts to every transaction, and
:mod:`repro.metrics.latency` extracts per-module averages from those counters
the same way the paper's Table II reports per-module figures.
"""
