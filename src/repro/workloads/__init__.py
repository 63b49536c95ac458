"""Workload generation for the reproduction experiments.

The paper's performance discussion is parameterised by two ratios:

* the share of *communication* time versus *computation* time, and
* the share of *external* (DDR) communication versus *internal* (BRAM / IP)
  communication,

because "external communications have a larger overhead due to the
cryptography resources" (section V).  The generators here expose exactly
those knobs, plus a few named application-shaped workloads used by the
examples (producer/consumer over the shared BRAM, firmware streaming into the
protected DDR window, DMA offload).
"""
