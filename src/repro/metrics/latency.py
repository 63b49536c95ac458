"""Latency and throughput of the firewall modules (Table II).

Table II of the paper reports per-module figures measured on the ML605
platform:

=====================  ==========  ==================
module                  cycles      throughput (Mb/s)
=====================  ==========  ==================
SB (LF / LCF)           12          --
CC                      11          450
IC                      20          131
=====================  ==========  ==================

In the reproduction those cycle counts are *inputs* of the behavioural model
(the firewalls charge them per operation — see :mod:`repro.core.constants`),
so the interesting measurement is the *per-operation average actually charged
on a running platform*: if the plumbing is right, a transaction through the
Security Builder pays exactly 12 cycles per evaluation, the Confidentiality
Core 11 cycles per 128-bit block and the Integrity Core 20 cycles per
protected block, no matter how transactions overlap.  ``generate_table2``
extracts those averages from live firewall instances and reports them next to
the paper values, together with two throughput figures: the paper's measured
throughput (which includes memory-subsystem effects we cannot reproduce) and
the ideal pipeline throughput implied by the cycle counts at the 100 MHz bus
clock.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.core.constants import (
    AES_BLOCK_BITS,
    BUS_CLOCK_HZ,
    CONFIDENTIALITY_CORE_CYCLES,
    CONFIDENTIALITY_CORE_THROUGHPUT_MBPS,
    INTEGRITY_BLOCK_BYTES,
    INTEGRITY_CORE_CYCLES,
    INTEGRITY_CORE_THROUGHPUT_MBPS,
    SECURITY_BUILDER_CYCLES,
)

__all__ = [
    "PAPER_TABLE2",
    "Table2Row",
    "LatencyModel",
    "generate_table2",
    "per_hop_latency",
    "aggregate_hop_latency",
    "PlacementRow",
    "placement_split",
]


#: Paper Table II, verbatim: module -> (cycles, throughput Mb/s or None).
PAPER_TABLE2: Dict[str, tuple] = {
    "SB (LF/LCF)": (SECURITY_BUILDER_CYCLES, None),
    "CC": (CONFIDENTIALITY_CORE_CYCLES, CONFIDENTIALITY_CORE_THROUGHPUT_MBPS),
    "IC": (INTEGRITY_CORE_CYCLES, INTEGRITY_CORE_THROUGHPUT_MBPS),
}


@dataclass(frozen=True)
class Table2Row:
    """One row of the regenerated Table II."""

    module: str
    measured_cycles: float
    paper_cycles: int
    ideal_throughput_mbps: Optional[float]
    paper_throughput_mbps: Optional[float]
    operations: int

    @property
    def cycles_match_paper(self) -> bool:
        """Whether the measured per-operation cycles equal the paper's figure."""
        return abs(self.measured_cycles - self.paper_cycles) < 1e-9


class LatencyModel:
    """Helpers converting cycle counts to time and throughput."""

    def __init__(self, clock_hz: float = BUS_CLOCK_HZ) -> None:
        if clock_hz <= 0:
            raise ValueError("clock frequency must be positive")
        self.clock_hz = clock_hz

    def pipeline_throughput_mbps(self, bits_per_operation: int, cycles_per_operation: float) -> float:
        """Ideal streaming throughput of a module, in Mb/s.

        One operation (``bits_per_operation`` bits) retires every
        ``cycles_per_operation`` cycles.
        """
        if cycles_per_operation <= 0:
            raise ValueError("cycles_per_operation must be positive")
        bits_per_second = bits_per_operation * self.clock_hz / cycles_per_operation
        return bits_per_second / 1e6


def _safe_ratio(total: float, count: int) -> float:
    return total / count if count else 0.0


# ---------------------------------------------------------------------------
# Per-hop latency attribution (hierarchical fabrics)
# ---------------------------------------------------------------------------
#
# On a multi-segment fabric a transaction's latency breakdown carries one
# bucket per hop: ``"bus"`` (one-segment fabric) or ``"bus:<segment>"`` per
# segment crossed, plus ``"bridge:<name>"`` per bridge forwarding.  Splitting those
# out — and splitting the Security Builder cycles by firewall placement —
# is what lets a Table-II-style account compare leaf-firewall cycles against
# bridge-firewall cycles on the same workload.


def per_hop_latency(txn) -> Dict[str, int]:
    """Hop-attributed cycles of one transaction.

    Keys are ``"bus"`` / ``"bus:<segment>"`` for segment transfers and
    ``"bridge:<name>"`` for bridge forwarding; everything else in the
    breakdown (device access, firewall stages) is not a hop and is excluded.
    """
    return {
        stage: cycles
        for stage, cycles in txn.latency_breakdown.items()
        if stage == "bus" or stage.startswith("bus:") or stage.startswith("bridge:")
    }


def aggregate_hop_latency(transactions) -> Dict[str, int]:
    """Sum of :func:`per_hop_latency` over a transaction collection.

    Duplicates are counted once: a fabric monitor's merged history holds one
    entry per *hop observation* (the same transaction object appears once per
    segment it crossed), while each transaction's breakdown already carries
    its whole path — summing every appearance would multiply a multi-hop
    transaction's cycles by its hop count.
    """
    totals: Dict[str, int] = {}
    seen = set()
    for txn in transactions:
        if txn.txn_id in seen:
            continue
        seen.add(txn.txn_id)
        for stage, cycles in per_hop_latency(txn).items():
            totals[stage] = totals.get(stage, 0) + cycles
    return totals


@dataclass(frozen=True)
class PlacementRow:
    """Security Builder accounting for one firewall placement class."""

    placement: str
    firewalls: int
    evaluations: int
    cycles: int


def placement_split(security) -> List[PlacementRow]:
    """Split Security Builder work by firewall placement.

    ``security`` is a :class:`repro.core.secure.SecuredPlatform`; the rows
    cover the leaf master/slave Local Firewalls, the bridge-placed Local
    Firewalls and the Local Ciphering Firewalls, in that order.  On a flat
    platform the bridge row simply reports zero firewalls.
    """
    groups = (
        ("leaf_master", security.master_firewalls.values()),
        ("leaf_slave", security.slave_firewalls.values()),
        ("bridge", security.bridge_firewalls.values()),
        ("lcf", security.ciphering_firewalls.values()),
    )
    rows = []
    for placement, firewalls in groups:
        firewalls = list(firewalls)
        rows.append(
            PlacementRow(
                placement=placement,
                firewalls=len(firewalls),
                evaluations=sum(f.security_builder.evaluations for f in firewalls),
                cycles=sum(f.security_builder.cycles_charged for f in firewalls),
            )
        )
    return rows


def generate_table2(
    local_firewalls: List,
    ciphering_firewall,
    model: Optional[LatencyModel] = None,
) -> List[Table2Row]:
    """Regenerate Table II from live firewall instances.

    ``local_firewalls`` may include the ciphering firewall as well (its
    Security Builder counts contribute to the SB row, exactly as the paper
    reports one SB figure for LF and LCF together).
    """
    model = model or LatencyModel()

    sb_evaluations = 0
    sb_cycles = 0
    for firewall in local_firewalls:
        sb_evaluations += firewall.security_builder.evaluations
        sb_cycles += firewall.security_builder.cycles_charged
    if ciphering_firewall is not None and ciphering_firewall not in local_firewalls:
        sb_evaluations += ciphering_firewall.security_builder.evaluations
        sb_cycles += ciphering_firewall.security_builder.cycles_charged

    rows = [
        Table2Row(
            module="SB (LF/LCF)",
            measured_cycles=_safe_ratio(sb_cycles, sb_evaluations),
            paper_cycles=SECURITY_BUILDER_CYCLES,
            ideal_throughput_mbps=None,
            paper_throughput_mbps=None,
            operations=sb_evaluations,
        )
    ]

    if ciphering_firewall is not None:
        cc = ciphering_firewall.confidentiality_core
        ic = ciphering_firewall.integrity_core
        cc_cycles_per_block = _safe_ratio(cc.cycles_charged, cc.blocks_processed)
        ic_ops = ic.blocks_verified + ic.blocks_updated
        ic_cycles_per_block = _safe_ratio(ic.cycles_charged, ic_ops)

        # Streaming throughput of the Integrity Core is limited by the hash-
        # tree walk: authenticating one leaf requires hashing every level up
        # to the root, so the effective cycles per 256-bit leaf are
        # ``IC_CYCLES x (depth + 1)``.  This is what brings the paper's IC
        # figure (131 Mb/s) far below the CC figure (450 Mb/s) even though a
        # single hash is only 20 cycles.  The depth used here is the average
        # over the LCF's integrity-protected regions (fallback: 10 levels,
        # the depth of a 32 KiB region with 32-byte leaves).
        integrity_trees = [
            region.tree for region in ciphering_firewall.protected_regions if region.tree is not None
        ]
        if integrity_trees:
            average_levels = sum(tree.depth + 1 for tree in integrity_trees) / len(integrity_trees)
        else:
            average_levels = 10.0
        rows.append(
            Table2Row(
                module="CC",
                measured_cycles=cc_cycles_per_block,
                paper_cycles=CONFIDENTIALITY_CORE_CYCLES,
                ideal_throughput_mbps=model.pipeline_throughput_mbps(
                    AES_BLOCK_BITS, cc_cycles_per_block
                )
                if cc_cycles_per_block
                else None,
                paper_throughput_mbps=CONFIDENTIALITY_CORE_THROUGHPUT_MBPS,
                operations=cc.blocks_processed,
            )
        )
        rows.append(
            Table2Row(
                module="IC",
                measured_cycles=ic_cycles_per_block,
                paper_cycles=INTEGRITY_CORE_CYCLES,
                ideal_throughput_mbps=model.pipeline_throughput_mbps(
                    INTEGRITY_BLOCK_BYTES * 8, ic_cycles_per_block * average_levels
                )
                if ic_cycles_per_block
                else None,
                paper_throughput_mbps=INTEGRITY_CORE_THROUGHPUT_MBPS,
                operations=ic_ops,
            )
        )
    return rows
