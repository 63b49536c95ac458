"""Static policy/fabric verification (``repro verify``).

Proves coverage properties about a ScenarioSpec + SecurityPlan without
running a simulated cycle, then confirms every claim dynamically by
issuing its witness, one bus transaction, on the simulated platform.  See
:mod:`repro.staticcheck.analyzer` for the finding catalog and
``docs/static-analysis.md`` for the user-facing walkthrough.
"""

from repro.staticcheck.analyzer import verify_scenario, verify_spec
from repro.staticcheck.confirm import ConfirmationResult, confirm_report, confirm_witness
from repro.staticcheck.findings import (
    EXPECTATIONS,
    SEVERITIES,
    Finding,
    StaticCheckError,
    VerificationReport,
    Witness,
)

__all__ = [
    "SEVERITIES",
    "EXPECTATIONS",
    "Witness",
    "Finding",
    "VerificationReport",
    "verify_spec",
    "verify_scenario",
    "ConfirmationResult",
    "confirm_witness",
    "confirm_report",
    "StaticCheckError",
]
