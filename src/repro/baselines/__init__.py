"""Baseline security architectures the paper positions itself against.

The related-work section contrasts the paper's *distributed* firewalls with
*centralised* approaches, chiefly Coburn et al.'s SECA, where "each SEI
computes information from the data handled by its associated IP and sends it
to a global manager (SEM, Security Enforcement Module).  The SEM manages the
security of the system and controls all SEIs".  To make that comparison
measurable, this package implements a centralised baseline:

* one :class:`~repro.baselines.centralized.CentralizedSecurityModule` holds
  the whole platform's policy set and performs every check itself,
* thin :class:`~repro.baselines.centralized.CentralizedEnforcementInterface`
  shims on the slave ports forward each transaction to that module *after* it
  has crossed the shared bus,
* because the module is a single shared resource, concurrent checks queue up.

``tests/test_baselines_centralized.py`` pins the two consequences the
paper's distributed design avoids: malicious traffic still consumes bus
bandwidth before being rejected, and checking latency grows with contention.
"""
