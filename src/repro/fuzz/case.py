"""Fuzz cases: immutable, canonically serialisable transaction sequences.

A case is pure data — scenario name, the seed that produced it, and a tuple
of single-transaction steps — so it survives the JSON round-trip through the
corpus store bit-identically, and hashes to a stable digest that keys
deduplication and corpus storage.  Loading is strict: a malformed corpus
entry raises a :class:`ValueError` naming the field instead of replaying as
some other case.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from typing import Any, Dict, Optional, Tuple

from repro.crypto.sha256 import sha256
from repro.soc.transaction import BusOperation, BusTransaction

__all__ = ["FuzzStep", "FuzzCase"]

_OPS = ("read", "write")
_WIDTHS = (1, 2, 4)
#: Every field :meth:`FuzzStep.to_dict` writes, except the optional ``data``.
_STEP_FIELDS = ("master", "op", "address", "width", "burst_length")


def _check_fields(
    payload: object, what: str, required: Tuple[str, ...], optional: Tuple[str, ...] = ()
) -> None:
    """Refuse a payload that is not a JSON object of exactly these fields."""
    if not isinstance(payload, dict):
        raise ValueError(f"{what} must be a JSON object, got {type(payload).__name__}")
    unknown = sorted(set(payload) - set(required) - set(optional))
    if unknown:
        raise ValueError(f"{what} has unknown field(s) {unknown}")
    missing = [key for key in required if key not in payload]
    if missing:
        raise ValueError(f"{what} is missing field(s) {missing}")


def _typed(payload: Dict[str, Any], key: str, kind: type, what: str) -> Any:
    """``payload[key]``, which must be exactly of ``kind`` (so neither a bool
    nor a float nor a numeric string passes for an int)."""
    value = payload[key]
    if type(value) is not kind:
        raise ValueError(f"{what} field {key!r} must be {kind.__name__}, got {value!r}")
    return value


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
        if self.width not in _WIDTHS:
            raise ValueError(f"step width must be one of {_WIDTHS}, got {self.width!r}")
        if self.burst_length < 1:
            raise ValueError(f"step burst_length must be at least 1, got {self.burst_length!r}")
        if self.op == "read":
            if self.data is not None:
                raise ValueError("step data is for writes only; a read carries none")
        elif self.data is None:
            raise ValueError("step data is required on a write")
        elif len(self.data) != self.width * self.burst_length:
            raise ValueError(
                f"step data must be width x burst_length = {self.width * self.burst_length} "
                f"bytes, got {len(self.data)}"
            )

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
    def from_dict(cls, payload: Dict[str, Any]) -> "FuzzStep":
        """The step :meth:`to_dict` wrote; any other payload raises."""
        _check_fields(payload, "fuzz step", _STEP_FIELDS, ("data",))
        data = None
        if "data" in payload:
            raw = _typed(payload, "data", str, "fuzz step")
            try:
                data = bytes.fromhex(raw)
            except ValueError:
                raise ValueError(f"fuzz step field 'data' must be hex, got {raw!r}") from None
        return cls(
            master=_typed(payload, "master", str, "fuzz step"),
            op=_typed(payload, "op", str, "fuzz step"),
            address=_typed(payload, "address", int, "fuzz step"),
            width=_typed(payload, "width", int, "fuzz step"),
            burst_length=_typed(payload, "burst_length", int, "fuzz step"),
            data=data,
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
    def from_dict(cls, payload: Dict[str, Any]) -> "FuzzCase":
        """The case :meth:`to_dict` wrote; any other payload raises."""
        _check_fields(payload, "fuzz case", ("scenario", "seed", "steps"))
        return cls(
            scenario=_typed(payload, "scenario", str, "fuzz case"),
            seed=_typed(payload, "seed", int, "fuzz case"),
            steps=tuple(
                FuzzStep.from_dict(step) for step in _typed(payload, "steps", list, "fuzz case")
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
