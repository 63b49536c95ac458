"""Behavioural MPSoC simulator substrate.

The paper evaluates its distributed firewalls on a Xilinx ML605 platform with
three MicroBlaze soft cores, an on-chip BRAM, an external DDR memory and one
dedicated IP, all attached to a shared system bus.  This package provides a
transaction-level, cycle-accounted behavioural model of that platform:

* :mod:`repro.soc.kernel` -- discrete-event simulation engine and component
  base class,
* :mod:`repro.soc.transaction` -- bus transactions (reads/writes, widths,
  bursts, lifecycle states),
* :mod:`repro.soc.address_map` -- the platform memory map and address
  decoding,
* :mod:`repro.soc.ports` -- master/slave ports and the transaction-filter
  interface through which the security firewalls are interposed,
* :mod:`repro.soc.fabric` -- the interconnect fabric every platform is
  built on: :class:`BusSegment` shared buses with pluggable arbitration,
  :class:`BusBridge` (posted writes, firewall-capable filter chains) and
  multi-hop routing; the paper's shared system bus is the one-segment fabric,
* :mod:`repro.soc.memory` -- BRAM and external-DDR memory models,
* :mod:`repro.soc.processor` -- MicroBlaze-like programmable bus masters,
* :mod:`repro.soc.ip` -- dedicated IP models (DMA engine, register-file slave),
* :mod:`repro.soc.system` -- declarative construction of the Figure-1 platform.

The substrate is deliberately independent of :mod:`repro.core`; the security
layer plugs in through the generic filter interface so that exactly the same
platform can be simulated with and without protection (which is how Table I's
"without firewalls" baseline is produced).
"""
