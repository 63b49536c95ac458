"""Seeded property-based bypass fuzzer.

The static verifier (:mod:`repro.staticcheck`) proves what the *policy*
allows; the fuzzer searches what the *platform* actually does.  It mutates
transaction sequences against a protected build and asserts the paper's
core property dynamically — "no silent reach of protected memory": every
access a master's policy forbids must end blocked or alerted, and no device
guard (e.g. the secure-boot key bank) may leak without an alert.

* :mod:`repro.fuzz.case` — the immutable, JSON-serialisable test case (a
  sequence of :class:`~repro.soc.transaction.Step`),
* :mod:`repro.fuzz.generator` — seeded sequence generation and mutation,
* :mod:`repro.fuzz.oracle` — replays a case, judges it with
  :mod:`repro.staticcheck` Witness semantics,
* :mod:`repro.fuzz.shrink` — deterministic delta-debugging minimizer,
* :mod:`repro.fuzz.corpus` — persists minimized cases through the sweep
  :class:`~repro.sweep.store.ResultStore`,
* :mod:`repro.fuzz.runner` — the fuzzing loop behind ``repro fuzz``,
* :mod:`repro.fuzz.planted` — the known-hole spec the regression suite
  requires the fuzzer to rediscover.

Everything is deterministic for a given (scenario, seed, budget): the only
randomness source is one ``random.Random(seed)``, and reports carry no wall
clock — the same invocation is bit-reproducible.
"""

from repro.fuzz.case import FuzzCase
from repro.fuzz.corpus import Corpus, export_cases, load_cases
from repro.fuzz.generator import SequenceGenerator
from repro.fuzz.oracle import BypassOracle, OracleResult, Violation
from repro.fuzz.planted import planted_backdoor_spec
from repro.fuzz.runner import FuzzReport, fuzz_scenario, replay_case
from repro.fuzz.shrink import shrink_case

__all__ = [
    "FuzzCase",
    "SequenceGenerator",
    "BypassOracle",
    "OracleResult",
    "Violation",
    "shrink_case",
    "Corpus",
    "export_cases",
    "load_cases",
    "FuzzReport",
    "fuzz_scenario",
    "replay_case",
    "planted_backdoor_spec",
]
