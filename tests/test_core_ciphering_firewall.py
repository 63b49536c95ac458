"""Tests for the Local Ciphering Firewall (Confidentiality + Integrity Cores).

These tests exercise the LCF in isolation (standalone firewall in front of a
raw DDR model), on the full secured platform via fixtures, and under the
workload of every registered scenario that builds one.
"""

from dataclasses import replace

import pytest

from repro.core.alerts import SecurityMonitor, ViolationType
from repro.core.ciphering_firewall import ConfidentialityCore, LocalCipheringFirewall
from repro.core.constants import (
    CONFIDENTIALITY_CORE_CYCLES,
    INTEGRITY_BLOCK_BYTES,
    INTEGRITY_CORE_CYCLES,
    SECURITY_BUILDER_CYCLES,
)
from repro.core.policy import (
    ConfidentialityMode,
    ConfigurationMemory,
    IntegrityMode,
    SecurityPolicy,
)
from repro.crypto.keys import KeyStore, random_key
from repro.scenarios import ScenarioBuilder, registry
from repro.soc.kernel import Simulator
from repro.soc.memory import ExternalDDR
from repro.soc.transaction import BusOperation, BusTransaction, TransactionStatus

DDR_BASE = 0x9000_0000
SECURE_SIZE = 512          # 16 protected blocks of 32 bytes
CIPHER_ONLY_BASE = DDR_BASE + SECURE_SIZE
PLAIN_BASE = DDR_BASE + 2 * SECURE_SIZE
CIPHERED_WINDOWS = {"secure": DDR_BASE, "cipher_only": CIPHER_ONLY_BASE}

#: Registered scenarios whose protected build has a Local Ciphering Firewall,
#: with the number of ciphered windows it guards.
LCF_SCENARIOS = {
    "attack_heavy": 2,
    "bridge_firewalled_centralized": 1,
    "cross_segment_attack_storm": 1,
    "crypto_heavy": 2,
    "deep_hierarchy_3seg": 2,
    "dense_protection": 1,
    "many_master_contention": 1,
    "paper_baseline": 2,
    "reconfiguration_under_load": 2,
    "sparse_protection": 1,
    "two_segment_dma_isolation": 2,
}

#: Workload seeds for the scenario runs (perfbench's default and held-out).
WORKLOAD_SEEDS = (0, 20111)


def build_lcf(monitor=None):
    sim = Simulator()
    ddr = ExternalDDR(sim, "ddr", base=DDR_BASE, size=64 * 1024)
    keys = KeyStore()
    keys.install(10, random_key(1))
    keys.install(11, random_key(2))
    memory = ConfigurationMemory("cfg_ddr", capacity=8)
    memory.add(
        DDR_BASE, SECURE_SIZE,
        SecurityPolicy(spi=10, confidentiality=ConfidentialityMode.CIPHER,
                       integrity=IntegrityMode.HASH_TREE, key_spi=10),
        label="secure",
    )
    memory.add(
        CIPHER_ONLY_BASE, SECURE_SIZE,
        SecurityPolicy(spi=11, confidentiality=ConfidentialityMode.CIPHER,
                       integrity=IntegrityMode.BYPASS, key_spi=11),
        label="cipher_only",
    )
    memory.add(PLAIN_BASE, SECURE_SIZE, SecurityPolicy(spi=12), label="plain")
    lcf = LocalCipheringFirewall(
        sim, "lcf_test", memory, device=ddr, key_store=keys, monitor=monitor
    )
    return sim, ddr, lcf


def write_txn(address, data, master="cpu0"):
    return BusTransaction(master=master, operation=BusOperation.WRITE, address=address,
                          width=4, burst_length=max(1, len(data) // 4), data=data)


def read_txn(address, size=4, master="cpu0"):
    return BusTransaction(master=master, operation=BusOperation.READ, address=address,
                          width=4, burst_length=max(1, size // 4))


def do_write(ddr, lcf, address, data):
    """Emulate the slave-port flow for a write: request filter then device.

    Mirrors what :func:`repro.soc.ports._apply_chain` does: the filter's
    ``transformed_data`` (ciphertext) replaces the payload before the device
    stores it.
    """
    txn = write_txn(address, data)
    result = lcf.filter_request(txn)
    if result.transformed_data is not None:
        txn.data = result.transformed_data
    if result.allowed:
        ddr.poke(address, txn.data)
    return txn, result


def do_read(ddr, lcf, address, size):
    """Emulate the slave-port flow for a read: request, device, response."""
    txn = read_txn(address, size)
    request = lcf.filter_request(txn)
    assert request.allowed
    txn.data = ddr.peek(address, size)
    response = lcf.filter_response(txn)
    if response.transformed_data is not None:
        txn.data = response.transformed_data
    return txn, response


class TestConstruction:
    def test_regions_built_for_protected_rules_only(self):
        _, _, lcf = build_lcf()
        assert len(lcf.protected_regions) == 2
        assert lcf.region_for(DDR_BASE) is not None
        assert lcf.region_for(CIPHER_ONLY_BASE) is not None
        assert lcf.region_for(PLAIN_BASE) is None

    def test_ciphered_rule_without_key_rejected(self):
        sim = Simulator()
        ddr = ExternalDDR(sim, "ddr", base=DDR_BASE, size=4096)
        memory = ConfigurationMemory("cfg")
        policy = SecurityPolicy(spi=1, confidentiality=ConfidentialityMode.CIPHER, key_spi=5)
        memory.add(DDR_BASE, 256, policy)
        with pytest.raises(Exception):
            # key 5 not installed in the (empty) key store
            LocalCipheringFirewall(sim, "lcf", memory, device=ddr, key_store=KeyStore())


class TestConfidentiality:
    def test_external_memory_only_holds_ciphertext(self):
        _, ddr, lcf = build_lcf()
        secret = b"TOP-SECRET-DATA!"
        do_write(ddr, lcf, DDR_BASE + 0x20, secret)
        raw = ddr.peek(DDR_BASE + 0x20, len(secret))
        assert raw != secret
        # and the plaintext is nowhere in the protected window
        window = ddr.peek(DDR_BASE, SECURE_SIZE)
        assert secret not in window

    def test_read_returns_original_plaintext(self):
        _, ddr, lcf = build_lcf()
        secret = b"TOP-SECRET-DATA!"
        do_write(ddr, lcf, DDR_BASE + 0x20, secret)
        txn, response = do_read(ddr, lcf, DDR_BASE + 0x20, len(secret))
        assert response.allowed
        assert txn.data == secret

    def test_cipher_only_region_is_ciphered(self):
        _, ddr, lcf = build_lcf()
        secret = b"CIPHERONLYDATA!!"
        do_write(ddr, lcf, CIPHER_ONLY_BASE + 0x40, secret)
        assert ddr.peek(CIPHER_ONLY_BASE + 0x40, len(secret)) != secret
        txn, _ = do_read(ddr, lcf, CIPHER_ONLY_BASE + 0x40, len(secret))
        assert txn.data == secret

    def test_plain_region_untouched(self):
        _, ddr, lcf = build_lcf()
        data = b"PLAINTEXT-HERE!!"
        do_write(ddr, lcf, PLAIN_BASE + 0x10, data)
        assert ddr.peek(PLAIN_BASE + 0x10, len(data)) == data

    def test_partial_block_write_preserves_rest_of_block(self):
        _, ddr, lcf = build_lcf()
        base = DDR_BASE + 0x40
        do_write(ddr, lcf, base, b"A" * 32)           # whole block
        do_write(ddr, lcf, base + 8, b"BBBB")          # 4 bytes inside it
        txn, _ = do_read(ddr, lcf, base, 32)
        assert txn.data == b"A" * 8 + b"BBBB" + b"A" * 20

    def test_write_spanning_two_blocks(self):
        _, ddr, lcf = build_lcf()
        base = DDR_BASE + 0x20   # blocks 1 and 2
        payload = bytes(range(48))
        do_write(ddr, lcf, base, payload)
        txn, _ = do_read(ddr, lcf, base, 48)
        assert txn.data == payload

    @pytest.mark.parametrize("window", sorted(CIPHERED_WINDOWS))
    def test_rewriting_a_block_leaves_fresh_ciphertext(self, window):
        # Every write advances the block's timestamp tag, which is part of
        # the CTR nonce, so equal plaintext never leaves equal ciphertext.
        _, ddr, lcf = build_lcf()
        address = CIPHERED_WINDOWS[window] + 2 * INTEGRITY_BLOCK_BYTES
        plaintext = b"SAME-PLAINTEXT-WRITTEN-TWICE!!!!"
        do_write(ddr, lcf, address, plaintext)
        first = ddr.peek(address, len(plaintext))
        do_write(ddr, lcf, address, plaintext)
        assert ddr.peek(address, len(plaintext)) != first
        txn, _ = do_read(ddr, lcf, address, len(plaintext))
        assert txn.data == plaintext

    @pytest.mark.parametrize("source", sorted(CIPHERED_WINDOWS))
    def test_ciphertext_moved_to_the_other_window_stays_opaque(self, source):
        # Both blocks sit at the same index with the same timestamp tag, so
        # they share a CTR nonce: only the per-window key keeps the moved
        # ciphertext from deciphering to the original plaintext.
        target = "cipher_only" if source == "secure" else "secure"
        _, ddr, lcf = build_lcf()
        index = 3
        src = CIPHERED_WINDOWS[source] + index * INTEGRITY_BLOCK_BYTES
        dst = CIPHERED_WINDOWS[target] + index * INTEGRITY_BLOCK_BYTES
        plaintext = b"RELOCATED-ACROSS-WINDOWS-32BYTES"
        do_write(ddr, lcf, src, plaintext)
        do_write(ddr, lcf, dst, bytes(len(plaintext)))
        source_region, target_region = lcf.region_for(src), lcf.region_for(dst)
        assert source_region.version_of(index) == target_region.version_of(index) == 1
        assert source_region.key != target_region.key
        ddr.poke(dst, ddr.peek(src, len(plaintext)))
        txn, response = do_read(ddr, lcf, dst, len(plaintext))
        assert txn.data != plaintext
        # Only the authenticated window also rejects the read.
        assert response.allowed == (target == "cipher_only")


class TestIntegrity:
    def test_tampered_ciphertext_detected_on_read(self):
        monitor = SecurityMonitor()
        _, ddr, lcf = build_lcf(monitor)
        do_write(ddr, lcf, DDR_BASE + 0x20, b"GOOD-FIRMWARE!!!")
        # Attacker flips bytes directly in external memory.
        ddr.poke(DDR_BASE + 0x20, b"EVIL")
        txn = read_txn(DDR_BASE + 0x20, 16)
        assert lcf.filter_request(txn).allowed
        txn.data = ddr.peek(DDR_BASE + 0x20, 16)
        response = lcf.filter_response(txn)
        assert not response.allowed
        assert response.status is TransactionStatus.INTEGRITY_ERROR
        assert monitor.count(ViolationType.INTEGRITY_FAILURE) == 1

    def test_replayed_ciphertext_detected(self):
        monitor = SecurityMonitor()
        _, ddr, lcf = build_lcf(monitor)
        address = DDR_BASE + 0x60
        do_write(ddr, lcf, address, b"VERSION-1-DATA!!")
        stale = ddr.peek(address - (address % 32), 32)
        do_write(ddr, lcf, address, b"VERSION-2-DATA!!")
        ddr.poke(address - (address % 32), stale)  # replay old ciphertext
        txn, response = (lambda: None), None
        txn = read_txn(address, 16)
        lcf.filter_request(txn)
        txn.data = ddr.peek(address, 16)
        response = lcf.filter_response(txn)
        assert not response.allowed
        assert monitor.count(ViolationType.INTEGRITY_FAILURE) >= 1

    def test_relocated_ciphertext_detected(self):
        monitor = SecurityMonitor()
        _, ddr, lcf = build_lcf(monitor)
        src = DDR_BASE + 0x80
        dst = DDR_BASE + 0xC0
        do_write(ddr, lcf, src, b"BLOCK-AT-SOURCE!")
        do_write(ddr, lcf, dst, b"BLOCK-AT-DEST!!!")
        ddr.poke(dst, ddr.peek(src, 32))
        txn = read_txn(dst, 16)
        lcf.filter_request(txn)
        txn.data = ddr.peek(dst, 16)
        assert not lcf.filter_response(txn).allowed

    def test_cipher_only_region_does_not_detect_tampering(self):
        # Matches the paper's threat discussion: cipher-only regions resist
        # disclosure but random tampering is not detected (only garbled).
        monitor = SecurityMonitor()
        _, ddr, lcf = build_lcf(monitor)
        address = CIPHER_ONLY_BASE + 0x20
        do_write(ddr, lcf, address, b"CIPHER-ONLY-DATA")
        ddr.poke(address, b"XXXX")
        txn, response = do_read(ddr, lcf, address, 16)
        assert response.allowed
        assert txn.data != b"CIPHER-ONLY-DATA"   # garbled, but accepted
        assert monitor.count(ViolationType.INTEGRITY_FAILURE) == 0

    def test_untouched_blocks_verify_against_initial_zero_state(self):
        _, ddr, lcf = build_lcf()
        txn, response = do_read(ddr, lcf, DDR_BASE + 0x100, 16)
        assert response.allowed
        assert txn.data == bytes(16)


class TestLatencyAccounting:
    def test_write_charges_sb_cc_and_ic(self):
        _, ddr, lcf = build_lcf()
        txn, result = do_write(ddr, lcf, DDR_BASE + 0x20, b"A" * 32)
        assert result.allowed
        assert result.breakdown["security_builder"] == SECURITY_BUILDER_CYCLES
        # One 32-byte block = two AES blocks, one integrity update.
        assert result.breakdown["confidentiality_core"] == 2 * CONFIDENTIALITY_CORE_CYCLES
        assert result.breakdown["integrity_core"] == INTEGRITY_CORE_CYCLES
        assert result.latency == sum(result.breakdown.values())

    def test_read_charges_cc_and_ic_on_response(self):
        _, ddr, lcf = build_lcf()
        do_write(ddr, lcf, DDR_BASE + 0x20, b"A" * 32)
        txn, response = do_read(ddr, lcf, DDR_BASE + 0x20, 32)
        assert response.allowed
        assert response.breakdown["confidentiality_core"] >= 2 * CONFIDENTIALITY_CORE_CYCLES
        assert response.breakdown["integrity_core"] >= INTEGRITY_CORE_CYCLES

    def test_plain_region_charges_only_sb(self):
        _, ddr, lcf = build_lcf()
        txn, result = do_write(ddr, lcf, PLAIN_BASE + 0x10, b"ABCD")
        assert result.latency == SECURITY_BUILDER_CYCLES
        assert "confidentiality_core" not in txn.latency_breakdown

    def test_core_counters_track_blocks(self):
        _, ddr, lcf = build_lcf()
        do_write(ddr, lcf, DDR_BASE + 0x20, b"A" * 32)
        do_read(ddr, lcf, DDR_BASE + 0x20, 32)
        summary = lcf.summary()
        assert summary["cc_blocks"] >= 4          # 2 on write + 2 on read
        assert summary["ic_blocks_updated"] == 1
        assert summary["ic_blocks_verified"] >= 1
        assert summary["ic_failures"] == 0
        assert summary["protected_regions"] == 2


class TestOnSecuredPlatform:
    def test_end_to_end_write_read_through_bus(self, secured):
        system, security = secured
        cfg = system.config
        from repro.soc.processor import MemoryOperation, ProcessorProgram

        payload = bytes(range(32))
        program = ProcessorProgram([
            MemoryOperation.write(cfg.ddr_base + 0x40, payload),
            MemoryOperation.read(cfg.ddr_base + 0x40, width=4, burst_length=8),
        ])
        system.processors["cpu0"].load_program(program)
        system.processors["cpu0"].start()
        system.run()
        cpu = system.processors["cpu0"]
        assert cpu.transactions[1].data == payload
        assert system.ddr.peek(cfg.ddr_base + 0x40, 32) != payload
        assert security.monitor.count() == 0


def _ciphered_regions(built):
    firewalls = getattr(built.security, "ciphering_firewalls", {})
    return [
        region
        for lcf in firewalls.values()
        for region in lcf.protected_regions
        if region.rule.policy.needs_ciphering
    ]


class TestRegisteredScenarios:
    def test_scenario_table_covers_the_registry(self):
        found = {}
        for name in registry.list_scenarios():
            regions = _ciphered_regions(ScenarioBuilder(registry.get_scenario(name)).build(True))
            if regions:
                found[name] = len(regions)
        assert found == LCF_SCENARIOS

    @pytest.mark.parametrize("seed", WORKLOAD_SEEDS)
    @pytest.mark.parametrize("name", sorted(LCF_SCENARIOS))
    def test_workload_never_reuses_a_key_nonce_pair(self, name, seed, monkeypatch):
        pairs = []
        encipher = ConfidentialityCore.encipher

        def recording(core, key, nonce, plaintext):
            pairs.append((key, nonce))
            return encipher(core, key, nonce, plaintext)

        monkeypatch.setattr(ConfidentialityCore, "encipher", recording)
        spec = registry.get_scenario(name)
        spec = replace(spec, workload=replace(spec.workload, seed=seed))
        ScenarioBuilder(spec).build(True).run_workload()
        assert pairs, f"{name} enciphered nothing at seed {seed}"
        assert len(set(pairs)) == len(pairs), f"{name} reused a (key, nonce) pair at seed {seed}"

    @pytest.mark.parametrize("name", sorted(n for n, windows in LCF_SCENARIOS.items() if windows > 1))
    def test_every_ciphered_window_holds_its_own_key(self, name):
        regions = _ciphered_regions(ScenarioBuilder(registry.get_scenario(name)).build(True))
        assert len(regions) == LCF_SCENARIOS[name]
        assert len({region.key for region in regions}) == len(regions)
