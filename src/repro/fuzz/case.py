"""Fuzz cases: immutable, canonically serialisable transaction sequences.

A case is pure data — scenario name, the seed that produced it, and a tuple
of single-transaction steps — so it survives the JSON round-trip through the
corpus store bit-identically, and hashes to a stable digest that keys
deduplication and corpus storage.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from typing import Dict, Optional, Tuple

from repro.crypto.sha256 import sha256
from repro.soc.transaction import BusOperation, BusTransaction

__all__ = ["FuzzStep", "FuzzCase"]

_OPS = ("read", "write")


@dataclass(frozen=True)
class FuzzStep:
    """One transaction of a fuzz case."""

    master: str
    op: str  # "read" | "write"
    address: int
    width: int = 4
    burst_length: int = 1
    data: Optional[bytes] = None  # writes only

    def __post_init__(self) -> None:
        if self.op not in _OPS:
            raise ValueError(f"step op must be one of {_OPS}, got {self.op!r}")
        if self.op == "write" and self.data is None:
            raise ValueError("write steps need data")

    def to_transaction(self) -> BusTransaction:
        return BusTransaction(
            master=self.master,
            operation=BusOperation.WRITE if self.op == "write" else BusOperation.READ,
            address=self.address,
            width=self.width,
            burst_length=self.burst_length,
            data=self.data,
        )

    def to_dict(self) -> Dict[str, object]:
        payload: Dict[str, object] = {
            "master": self.master,
            "op": self.op,
            "address": self.address,
            "width": self.width,
            "burst_length": self.burst_length,
        }
        if self.data is not None:
            payload["data"] = self.data.hex()
        return payload

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "FuzzStep":
        raw = payload.get("data")
        return cls(
            master=str(payload["master"]),
            op=str(payload["op"]),
            address=int(payload["address"]),  # type: ignore[arg-type]
            width=int(payload.get("width", 4)),  # type: ignore[arg-type]
            burst_length=int(payload.get("burst_length", 1)),  # type: ignore[arg-type]
            data=bytes.fromhex(str(raw)) if raw is not None else None,
        )


@dataclass(frozen=True)
class FuzzCase:
    """A transaction sequence under judgement, tagged with its provenance."""

    scenario: str
    seed: int
    steps: Tuple[FuzzStep, ...] = field(default_factory=tuple)

    def with_steps(self, steps: Tuple[FuzzStep, ...]) -> "FuzzCase":
        return replace(self, steps=tuple(steps))

    def to_dict(self) -> Dict[str, object]:
        return {
            "scenario": self.scenario,
            "seed": self.seed,
            "steps": [step.to_dict() for step in self.steps],
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "FuzzCase":
        return cls(
            scenario=str(payload["scenario"]),
            seed=int(payload["seed"]),  # type: ignore[arg-type]
            steps=tuple(
                FuzzStep.from_dict(step)  # type: ignore[arg-type]
                for step in payload.get("steps", ())  # type: ignore[union-attr]
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
