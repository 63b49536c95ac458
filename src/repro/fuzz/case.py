"""Fuzz cases: immutable, canonically serialisable transaction sequences.

A case is pure data — scenario name, the seed that produced it, and a tuple
of :class:`~repro.soc.transaction.Step` — so it survives the JSON round-trip
through the corpus store bit-identically, and hashes to a stable digest that
keys deduplication and corpus storage.  Loading is strict: a malformed corpus
entry raises a :class:`ValueError` naming the field instead of replaying as
some other case.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from typing import Any, Dict, Tuple

from repro.crypto.sha256 import sha256
from repro.soc.transaction import Step, check_fields, typed_field

__all__ = ["FuzzCase"]


@dataclass(frozen=True)
class FuzzCase:
    """A transaction sequence under judgement, tagged with its provenance."""

    scenario: str
    seed: int
    steps: Tuple[Step, ...] = field(default_factory=tuple)

    def with_steps(self, steps: Tuple[Step, ...]) -> "FuzzCase":
        return replace(self, steps=tuple(steps))

    def to_dict(self) -> Dict[str, object]:
        return {
            "scenario": self.scenario,
            "seed": self.seed,
            "steps": [step.to_dict() for step in self.steps],
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "FuzzCase":
        """The case :meth:`to_dict` wrote; any other payload raises."""
        check_fields(payload, "fuzz case", ("scenario", "seed", "steps"))
        return cls(
            scenario=typed_field(payload, "scenario", str, "fuzz case"),
            seed=typed_field(payload, "seed", int, "fuzz case"),
            steps=tuple(
                Step.from_dict(step) for step in typed_field(payload, "steps", list, "fuzz case")
            ),
        )

    def digest(self) -> str:
        """Stable content hash (scenario + steps; the seed is provenance only)."""
        canonical = json.dumps(
            {"scenario": self.scenario, "steps": [s.to_dict() for s in self.steps]},
            sort_keys=True,
        )
        return sha256(canonical.encode("utf-8")).hex()[:16]

    def __len__(self) -> int:
        return len(self.steps)
