"""The Local Ciphering Firewall (LCF).

"Local Ciphering Firewall (LCF) monitors the exchanges between internal IPs
and the external memory.  The main feature of LCF is the protection of the
external memory in terms of confidentiality and integrity. [...] The
architecture of the Local Ciphering Firewall is similar to the LF one except
the ciphering and integrity modules" (paper, section IV-B2).

The LCF therefore *is a* :class:`~repro.core.local_firewall.LocalFirewall`
(same LFCB / Security Builder / Firewall Interface, same policy checks) plus:

* a :class:`ConfidentialityCore` -- AES-128 in counter mode; the counter is
  derived from the protected block's address and its timestamp tag, so moving
  ciphertext around (relocation) or restoring old ciphertext (replay) yields
  garbage on decryption,
* an :class:`IntegrityCore` -- a Merkle hash tree over the protected region
  plus per-block version counters (the paper's "time stamp tags"); any
  spoofing, relocation or replay of external-memory content is detected when
  the recomputed root mismatches the trusted on-chip root.

The LCF is interposed on the *slave port* of the external DDR, which is where
the paper places it (between the internal bus and the external memory).  On
the write path it enciphers data before it leaves the FPGA; on the read path
it deciphers and verifies data before it reaches the bus.  External memory
therefore only ever holds ciphertext for protected regions — which is exactly
what an attacker probing the external bus or the memory chips sees.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.core.alerts import SecurityMonitor, ViolationType
from repro.core.constants import (
    CONFIDENTIALITY_CORE_CYCLES,
    INTEGRITY_BLOCK_BYTES,
    INTEGRITY_CORE_CYCLES,
    SECURITY_BUILDER_CYCLES,
)
from repro.core.local_firewall import LocalFirewall
from repro.core.policy import ConfigurationMemory, PolicyRule
from repro.crypto.aes import AES128
from repro.crypto.keys import KeyStore
from repro.crypto.merkle import MerkleTree
from repro.crypto.modes import CTRMode
from repro.soc.kernel import Simulator
from repro.soc.ports import FilterAction, FilterResult
from repro.soc.transaction import BusTransaction, TransactionStatus

__all__ = ["ConfidentialityCore", "IntegrityCore", "ProtectedRegion", "LocalCipheringFirewall"]

_ALLOW = FilterAction.ALLOW


class ConfidentialityCore:
    """AES-128/CTR encryption datapath of the LCF.

    Charges :data:`CONFIDENTIALITY_CORE_CYCLES` per 16-byte AES block
    processed (Table II: 11 cycles).
    """

    AES_BLOCK = 16

    def __init__(self, name: str, cycles_per_block: int = CONFIDENTIALITY_CORE_CYCLES) -> None:
        self.name = name
        self.cycles_per_block = cycles_per_block
        self._ciphers: Dict[bytes, CTRMode] = {}
        self.blocks_processed = 0
        self.bytes_processed = 0
        self.cycles_charged = 0

    def _mode_for(self, key: bytes) -> CTRMode:
        if key not in self._ciphers:
            self._ciphers[key] = CTRMode(AES128(key))
        return self._ciphers[key]

    def _charge(self, n_bytes: int) -> int:
        n_blocks = max(1, (n_bytes + self.AES_BLOCK - 1) // self.AES_BLOCK)
        cycles = n_blocks * self.cycles_per_block
        self.blocks_processed += n_blocks
        self.bytes_processed += n_bytes
        self.cycles_charged += cycles
        return cycles

    def encipher(self, key: bytes, nonce: bytes, plaintext: bytes) -> Tuple[bytes, int]:
        """Encrypt a block; returns (ciphertext, cycles_charged)."""
        cycles = self._charge(len(plaintext))
        return self._mode_for(key).encrypt(plaintext, nonce), cycles

    def decipher(self, key: bytes, nonce: bytes, ciphertext: bytes) -> Tuple[bytes, int]:
        """Decrypt a block; returns (plaintext, cycles_charged)."""
        cycles = self._charge(len(ciphertext))
        return self._mode_for(key).decrypt(ciphertext, nonce), cycles


class IntegrityCore:
    """Hash-tree integrity datapath of the LCF.

    Charges :data:`INTEGRITY_CORE_CYCLES` per protected block verified or
    updated (Table II: 20 cycles).
    """

    def __init__(self, name: str, cycles_per_block: int = INTEGRITY_CORE_CYCLES) -> None:
        self.name = name
        self.cycles_per_block = cycles_per_block
        self.blocks_verified = 0
        self.blocks_updated = 0
        self.failures = 0
        self.cycles_charged = 0

    def verify(self, tree: MerkleTree, block_index: int, plaintext: bytes) -> Tuple[bool, int]:
        """Verify a block against the trusted root; returns (ok, cycles)."""
        self.blocks_verified += 1
        self.cycles_charged += self.cycles_per_block
        ok = tree.verify(block_index, plaintext)
        if not ok:
            self.failures += 1
        return ok, self.cycles_per_block

    def update(self, tree: MerkleTree, block_index: int, plaintext: bytes) -> int:
        """Record a block write in the tree; returns cycles charged."""
        self.blocks_updated += 1
        self.cycles_charged += self.cycles_per_block
        tree.update(block_index, plaintext)
        return self.cycles_per_block


@dataclass
class ProtectedRegion:
    """Runtime protection state for one ciphered/authenticated policy rule."""

    rule: PolicyRule
    key: bytes
    tree: Optional[MerkleTree]
    block_size: int = INTEGRITY_BLOCK_BYTES
    # Per-block version counters (the paper's time-stamp tags).  Shared with
    # the Merkle tree's versions when integrity is enabled so nonce derivation
    # and leaf binding stay consistent.
    versions: Optional[List[int]] = None

    def __post_init__(self) -> None:
        n_blocks = (self.rule.size + self.block_size - 1) // self.block_size
        if self.versions is None:
            self.versions = [0] * n_blocks

    @property
    def n_blocks(self) -> int:
        return len(self.versions or [])

    def block_index(self, address: int) -> int:
        index = (address - self.rule.base) // self.block_size
        if not 0 <= index < self.n_blocks:
            raise ValueError(f"address {address:#x} outside protected region")
        return index

    def block_base(self, index: int) -> int:
        return self.rule.base + index * self.block_size

    def blocks_overlapping(self, address: int, size: int) -> List[int]:
        first = self.block_index(address)
        last = self.block_index(address + size - 1)
        return list(range(first, last + 1))

    def version_of(self, index: int) -> int:
        if self.tree is not None:
            return self.tree.version(index)
        assert self.versions is not None
        return self.versions[index]

    def bump_version(self, index: int) -> None:
        """Advance the version counter for CM-only regions (the tree bumps its
        own version inside ``update``)."""
        assert self.versions is not None
        self.versions[index] += 1

    def nonce(self, index: int, version: int) -> bytes:
        """CTR nonce binding block position and timestamp tag."""
        return (index & 0xFFFFFFFF).to_bytes(4, "big") + (version & 0xFFFFFFFF).to_bytes(4, "big")


class LocalCipheringFirewall(LocalFirewall):
    """LF plus Confidentiality Core and Integrity Core, guarding the DDR path.

    Parameters
    ----------
    device:
        The external memory device this firewall fronts (needed for the
        read-modify-write of partially written protected blocks, exactly as
        the hardware fetches the rest of the block over the memory interface).
    key_store:
        Trusted key table; policies reference keys by ``key_spi``.
    """

    name = "local_ciphering_firewall"

    #: Upper bound on memoised region lookups before the memo is reset.
    REGION_CACHE_LIMIT = 65536

    def __init__(
        self,
        sim: Simulator,
        name: str,
        config_memory: ConfigurationMemory,
        device,
        key_store: KeyStore,
        monitor: Optional[SecurityMonitor] = None,
        protected_ip: str = "external_memory",
        sb_latency: int = SECURITY_BUILDER_CYCLES,
        cc_cycles_per_block: int = CONFIDENTIALITY_CORE_CYCLES,
        ic_cycles_per_block: int = INTEGRITY_CORE_CYCLES,
        block_size: int = INTEGRITY_BLOCK_BYTES,
        **kwargs,
    ) -> None:
        super().__init__(
            sim,
            name,
            config_memory,
            monitor=monitor,
            protected_ip=protected_ip,
            sb_latency=sb_latency,
            **kwargs,
        )
        self.device = device
        self.key_store = key_store
        self.block_size = block_size
        self.confidentiality_core = ConfidentialityCore(f"{name}.cc", cc_cycles_per_block)
        self.integrity_core = IntegrityCore(f"{name}.ic", ic_cycles_per_block)
        self._regions: Dict[int, ProtectedRegion] = {}  # keyed by rule base
        # Memoised region_for() answers; every protected transaction performs
        # this lookup on both the request and the response path, so the scan
        # over regions is worth caching.  Invalidated when the Configuration
        # Memory's rule set changes; used only while the Security Builder
        # memoises its verdicts.
        self._region_cache: Dict[Tuple[int, int], Optional[ProtectedRegion]] = {}
        self._region_cache_generation = config_memory.generation
        self._build_regions()

    # -- region setup -------------------------------------------------------------------

    def _build_regions(self) -> None:
        for rule in self.config_memory.rules:
            policy = rule.policy
            if not (policy.needs_ciphering or policy.needs_integrity):
                continue
            if policy.key_spi is None:
                raise ValueError(
                    f"{self.name}: rule at {rule.base:#x} needs ciphering/integrity "
                    "but its policy has no key_spi"
                )
            key = self.key_store.get(policy.key_spi)
            n_blocks = (rule.size + self.block_size - 1) // self.block_size
            tree = (
                MerkleTree(n_blocks, block_size=self.block_size)
                if policy.needs_integrity
                else None
            )
            self._regions[rule.base] = ProtectedRegion(
                rule=rule, key=key, tree=tree, block_size=self.block_size
            )

    def region_for(self, address: int, size: int = 1) -> Optional[ProtectedRegion]:
        """The protected region covering an address range, if any (memoised
        while the Security Builder's ``cache_enabled`` is true)."""
        if not self.security_builder.cache_enabled:
            return self._scan_regions(address, size)
        if self.config_memory.generation != self._region_cache_generation:
            self._region_cache.clear()
            self._region_cache_generation = self.config_memory.generation
        key = (address, size)
        try:
            return self._region_cache[key]
        except KeyError:
            pass
        found = self._scan_regions(address, size)
        if len(self._region_cache) >= self.REGION_CACHE_LIMIT:
            self._region_cache.clear()
        self._region_cache[key] = found
        return found

    def _scan_regions(self, address: int, size: int) -> Optional[ProtectedRegion]:
        for region in self._regions.values():
            if region.rule.covers(address, size):
                return region
        return None

    @property
    def protected_regions(self) -> List[ProtectedRegion]:
        return list(self._regions.values())

    # -- filter hooks ---------------------------------------------------------------------

    def filter_request(self, txn: BusTransaction) -> FilterResult:
        # First run the plain LF policy checks (RWA / ADF / burst / ranges).
        base_result = super().filter_request(txn)
        if base_result.action is not _ALLOW:
            return base_result

        region = self.region_for(txn.address, txn.width * txn.burst_length)
        if region is None or txn.is_read:
            # Unprotected region, or a read (handled on the response path once
            # the ciphertext has been fetched from the external memory).
            return base_result

        return self._handle_protected_write(txn, region, base_result)

    def filter_response(self, txn: BusTransaction) -> FilterResult:
        base_result = super().filter_response(txn)
        if base_result.action is not _ALLOW:
            return base_result
        if not txn.is_read or txn.data is None:
            return base_result
        region = self.region_for(txn.address, txn.width * txn.burst_length)
        if region is None:
            return base_result
        return self._handle_protected_read(txn, region, base_result)

    # -- protected write path ----------------------------------------------------------------

    def _handle_protected_write(
        self, txn: BusTransaction, region: ProtectedRegion, base_result: FilterResult
    ) -> FilterResult:
        data = txn.data
        assert data is not None
        address = txn.address
        size = txn.width * txn.burst_length
        end_address = address + size
        rule = region.rule
        policy = rule.policy
        ciphering = policy.needs_ciphering
        tree = region.tree
        block_size = region.block_size
        rule_end = rule.base + rule.size
        cc_cycles = 0
        ic_cycles = 0
        new_payload = bytearray(data)

        for index in region.blocks_overlapping(address, size):
            block_base = rule.base + index * block_size
            block_end = block_base + block_size
            usable = min(block_size, rule_end - block_base)
            version = region.version_of(index)

            # Reconstruct the current plaintext of the block (read-modify-write).
            if address <= block_base and end_address >= block_base + usable:
                old_plain = bytes(block_size)
            else:
                stored = self.device.peek(block_base, usable).ljust(block_size, b"\x00")
                if ciphering and version > 0:
                    nonce = region.nonce(index, version)
                    old_plain, cycles = self.confidentiality_core.decipher(region.key, nonce, stored)
                    cc_cycles += cycles
                else:
                    old_plain = stored
                if tree is not None and version > 0:
                    ok, cycles = self.integrity_core.verify(tree, index, old_plain)
                    ic_cycles += cycles
                    if not ok:
                        self._raise(txn, ViolationType.INTEGRITY_FAILURE,
                                    detail=f"stale/tampered block {index} detected during write")
                        self.firewall_interface.gate(False)
                        return FilterResult.deny(
                            reason=f"{self.name}: integrity failure on write",
                            latency=base_result.latency + cc_cycles + ic_cycles,
                            stage="integrity_core",
                            status=TransactionStatus.INTEGRITY_ERROR,
                        )

            # Patch the written bytes into the plaintext block.
            new_plain = bytearray(old_plain)
            overlap_start = max(address, block_base)
            overlap_end = min(end_address, block_end)
            src_offset = overlap_start - address
            dst_offset = overlap_start - block_base
            length = overlap_end - overlap_start
            new_plain[dst_offset : dst_offset + length] = data[src_offset : src_offset + length]

            # Advance the timestamp tag and re-protect the block.
            if ciphering:
                nonce = region.nonce(index, version + 1)
                new_cipher, cycles = self.confidentiality_core.encipher(
                    region.key, nonce, bytes(new_plain)
                )
                cc_cycles += cycles
            else:
                new_cipher = bytes(new_plain)

            if tree is not None:
                ic_cycles += self.integrity_core.update(tree, index, bytes(new_plain))
            else:
                region.bump_version(index)

            # Write the parts of the block *outside* the transaction directly;
            # the part covered by the transaction is returned as transformed
            # payload so the memory device stores exactly the new ciphertext.
            self.device.poke(block_base, new_cipher[:usable])
            new_payload[src_offset : src_offset + length] = new_cipher[
                dst_offset : dst_offset + length
            ]

        txn.annotations[f"{self.name}.ciphered"] = ciphering
        txn.annotations[f"{self.name}.authenticated"] = policy.needs_integrity
        breakdown = {"security_builder": base_result.latency}
        if cc_cycles:
            breakdown["confidentiality_core"] = cc_cycles
        if ic_cycles:
            breakdown["integrity_core"] = ic_cycles
        return FilterResult.allow(
            latency=base_result.latency + cc_cycles + ic_cycles,
            stage="lcf_crypto",
            transformed_data=bytes(new_payload),
            breakdown=breakdown,
        )

    # -- protected read path -------------------------------------------------------------------

    def _handle_protected_read(
        self, txn: BusTransaction, region: ProtectedRegion, base_result: FilterResult
    ) -> FilterResult:
        policy = region.rule.policy
        cc_cycles = 0
        ic_cycles = 0
        plaintext_out = bytearray(txn.size)

        for index in region.blocks_overlapping(txn.address, txn.size):
            block_base = region.block_base(index)
            block_end = block_base + region.block_size
            usable = min(region.block_size, region.rule.end - block_base)
            stored = self.device.peek(block_base, usable).ljust(region.block_size, b"\x00")

            if policy.needs_ciphering and region.version_of(index) > 0:
                nonce = region.nonce(index, region.version_of(index))
                plain, cycles = self.confidentiality_core.decipher(region.key, nonce, stored)
                cc_cycles += cycles
            else:
                plain = stored

            if region.tree is not None:
                ok, cycles = self.integrity_core.verify(region.tree, index, plain)
                ic_cycles += cycles
                if not ok:
                    self._raise(txn, ViolationType.INTEGRITY_FAILURE,
                                detail=f"block {index} failed hash-tree verification on read")
                    self.firewall_interface.gate(False)
                    return FilterResult.deny(
                        reason=f"{self.name}: integrity failure on read",
                        latency=base_result.latency + cc_cycles + ic_cycles,
                        stage="integrity_core",
                        status=TransactionStatus.INTEGRITY_ERROR,
                    )

            overlap_start = max(txn.address, block_base)
            overlap_end = min(txn.end_address, block_end)
            src_offset = overlap_start - block_base
            dst_offset = overlap_start - txn.address
            length = overlap_end - overlap_start
            plaintext_out[dst_offset : dst_offset + length] = plain[src_offset : src_offset + length]

        breakdown = {}
        if base_result.latency:
            breakdown["security_builder"] = base_result.latency
        if cc_cycles:
            breakdown["confidentiality_core"] = cc_cycles
        if ic_cycles:
            breakdown["integrity_core"] = ic_cycles
        return FilterResult.allow(
            latency=base_result.latency + cc_cycles + ic_cycles,
            stage="lcf_crypto",
            transformed_data=bytes(plaintext_out),
            breakdown=breakdown or None,
        )

    # -- reporting -------------------------------------------------------------------------------

    def summary(self) -> dict:
        base = super().summary()
        base.update(
            {
                "cc_blocks": self.confidentiality_core.blocks_processed,
                "cc_cycles_charged": self.confidentiality_core.cycles_charged,
                "ic_blocks_verified": self.integrity_core.blocks_verified,
                "ic_blocks_updated": self.integrity_core.blocks_updated,
                "ic_failures": self.integrity_core.failures,
                "ic_cycles_charged": self.integrity_core.cycles_charged,
                "protected_regions": len(self._regions),
            }
        )
        return base
