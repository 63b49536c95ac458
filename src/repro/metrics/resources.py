"""FPGA resource vectors.

Table I of the paper reports four resource columns for the XC6VLX240T:
slice registers, slice LUTs, fully-used LUT-FF pairs and BRAMs.
:class:`ResourceVector` is the small value type the area model does its
arithmetic with.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable

__all__ = ["ResourceVector"]


@dataclass(frozen=True)
class ResourceVector:
    """One row of FPGA resources (all counts, BRAMs in 36Kb blocks)."""

    slice_registers: float = 0.0
    slice_luts: float = 0.0
    lut_ff_pairs: float = 0.0
    brams: float = 0.0

    FIELDS = ("slice_registers", "slice_luts", "lut_ff_pairs", "brams")

    # -- arithmetic ---------------------------------------------------------------

    def __add__(self, other: "ResourceVector") -> "ResourceVector":
        return ResourceVector(
            self.slice_registers + other.slice_registers,
            self.slice_luts + other.slice_luts,
            self.lut_ff_pairs + other.lut_ff_pairs,
            self.brams + other.brams,
        )

    def __sub__(self, other: "ResourceVector") -> "ResourceVector":
        return ResourceVector(
            self.slice_registers - other.slice_registers,
            self.slice_luts - other.slice_luts,
            self.lut_ff_pairs - other.lut_ff_pairs,
            self.brams - other.brams,
        )

    def scale(self, factor: float) -> "ResourceVector":
        """Multiply every column by ``factor``."""
        return ResourceVector(
            self.slice_registers * factor,
            self.slice_luts * factor,
            self.lut_ff_pairs * factor,
            self.brams * factor,
        )

    def __mul__(self, factor: float) -> "ResourceVector":
        return self.scale(factor)

    __rmul__ = __mul__

    # -- comparisons and reporting ---------------------------------------------------

    def overhead_vs(self, baseline: "ResourceVector") -> Dict[str, float]:
        """Relative overhead of ``self`` over ``baseline`` per column (fractions)."""
        out: Dict[str, float] = {}
        for name in self.FIELDS:
            base = getattr(baseline, name)
            this = getattr(self, name)
            out[name] = (this - base) / base if base else float("inf") if this else 0.0
        return out

    def rounded(self) -> "ResourceVector":
        """Round every column to the nearest integer (for table display)."""
        return ResourceVector(
            round(self.slice_registers),
            round(self.slice_luts),
            round(self.lut_ff_pairs),
            round(self.brams),
        )

    def as_dict(self) -> Dict[str, float]:
        return {name: getattr(self, name) for name in self.FIELDS}

    @classmethod
    def total(cls, vectors: Iterable["ResourceVector"]) -> "ResourceVector":
        """Sum a collection of vectors."""
        result = cls()
        for vector in vectors:
            result = result + vector
        return result
