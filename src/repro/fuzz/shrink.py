"""Deterministic delta-debugging minimizer for found bypass cases.

Classic ddmin over the step sequence: try dropping large chunks first, halve
the chunk size on failure, finish with a single-step sweep.  The predicate
is "the replayed case still produces a violation with the same identity"
(kind, master, target, op) — not merely *any* violation, so shrinking never
walks from one hole to a different one.  Everything is a pure function of
the input case and the oracle's deterministic replay; no randomness, no
wall clock.
"""

from __future__ import annotations

from typing import Callable, Sequence, Tuple

from repro.fuzz.case import FuzzCase
from repro.fuzz.oracle import BypassOracle, Violation
from repro.soc.transaction import Step

__all__ = ["shrink_case"]

Predicate = Callable[[Tuple[Step, ...]], bool]


def _ddmin(steps: Sequence[Step], predicate: Predicate) -> Tuple[Step, ...]:
    current = tuple(steps)
    chunk = max(1, len(current) // 2)
    while len(current) > 1:
        shrunk = False
        start = 0
        while start < len(current):
            candidate = current[:start] + current[start + chunk:]
            if candidate and predicate(candidate):
                current = candidate
                shrunk = True
                # Restart the sweep at the same granularity: indices shifted.
                start = 0
            else:
                start += chunk
        if not shrunk:
            if chunk == 1:
                break
            chunk = max(1, chunk // 2)
        else:
            chunk = min(chunk, max(1, len(current) // 2))
    return current


def shrink_case(
    oracle: BypassOracle, case: FuzzCase, violation: Violation
) -> FuzzCase:
    """Minimize ``case`` while it still reproduces ``violation``'s identity."""
    identity = violation.identity

    def predicate(steps: Tuple[Step, ...]) -> bool:
        replay = oracle.run(case.with_steps(steps))
        return any(v.identity == identity for v in replay.violations)

    if not predicate(case.steps):  # flaky premise: refuse to "minimize" noise
        return case
    return case.with_steps(_ddmin(case.steps, predicate))
