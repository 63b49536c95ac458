"""Regression tests for the simulation fast path.

The fast path trades per-transaction recomputation for precomputation and
memoisation in four places: table-driven AES, hashlib's SHA-256, the CTR
keystream cache (each mode's LRU and the process-wide memo behind it), and
the firewalls' policy-decision caches.  All of them must be *observably
identical* to the reference implementations — same bytes, same verdicts,
same statistics — and the decision caches must be invalidated by policy
reconfiguration.  These tests pin each equivalence.
"""

from __future__ import annotations

import random

import pytest

from repro.core.checks import AddressRangeCheck
from repro.core.local_firewall import LocalFirewall, SecurityBuilder
from repro.core.policy import ConfigurationMemory, ReadWriteAccess, SecurityPolicy
from repro.crypto.aes import AES128
from repro.crypto.modes import CTRMode
from repro.crypto.sha256 import SHA256, sha256
from repro.scenarios import get_scenario
from repro.scenarios.differential import assert_equivalent, reference_mode, run_scenario
from repro.soc.address_map import AddressMap, DecodeError
from repro.soc.kernel import Simulator
from repro.soc.transaction import BusOperation, BusTransaction, Step

from tests.conftest import build_figure1


# ---------------------------------------------------------------------------
# AES: table-driven path must match the FIPS-197 reference byte for byte
# ---------------------------------------------------------------------------


class TestAESTablePath:
    def test_fips_vector_through_fast_path(self):
        cipher = AES128(bytes.fromhex("000102030405060708090a0b0c0d0e0f"))
        plaintext = bytes.fromhex("00112233445566778899aabbccddeeff")
        expected = bytes.fromhex("69c4e0d86a7b0430d8cdb78070b4c55a")
        assert cipher.encrypt_block(plaintext) == expected

    def test_matches_reference_for_random_keys_and_blocks(self):
        rng = random.Random(0xAE5)
        for _ in range(100):
            key = bytes(rng.randrange(256) for _ in range(16))
            block = bytes(rng.randrange(256) for _ in range(16))
            cipher = AES128(key)
            assert cipher.encrypt_block(block) == cipher.encrypt_block_reference(block)


# ---------------------------------------------------------------------------
# SHA-256: hashlib must agree with the from-scratch implementation
# ---------------------------------------------------------------------------


class TestSha256Backends:
    def test_backends_agree_across_lengths(self):
        rng = random.Random(0x5A)
        for length in (0, 1, 55, 56, 63, 64, 65, 200, 1000):
            data = bytes(rng.randrange(256) for _ in range(length))
            assert sha256(data) == SHA256(data).digest()


# ---------------------------------------------------------------------------
# CTR keystream cache
# ---------------------------------------------------------------------------


class TestCTRKeystreamCache:
    def test_cached_and_uncached_streams_agree(self):
        key = bytes(range(16))
        cached = CTRMode(AES128(key))
        with reference_mode():
            uncached = CTRMode(AES128(key))
        nonce = b"\x01" * 8
        payload = bytes(range(64))
        assert cached.encrypt(payload, nonce) == uncached.encrypt(payload, nonce)
        # Second pass over the same nonce is served from the cache.
        assert cached.encrypt(payload, nonce) == uncached.encrypt(payload, nonce)
        assert cached.cache_hits > 0
        assert cached.decrypt(cached.encrypt(payload, nonce), nonce) == payload

    def test_cache_is_bounded(self):
        mode = CTRMode(AES128(bytes(16)))
        for counter in range(mode.CACHE_LIMIT + 10):
            mode.keystream(b"\x00" * 8, 16, initial_counter=counter)
        assert len(mode._keystream_cache) <= mode.CACHE_LIMIT


def _secure_window_traffic(system, security) -> bytes:
    """Seeded writes then read-backs of the Figure-1 ``secure`` window;
    returns the window's raw (ciphertext) bytes."""
    (secure,) = [r for r in security.ciphering_firewall.protected_regions
                 if r.rule.label == "ddr_secure"]
    rng = random.Random(0x5EC_3E40)
    written = {}
    for _ in range(16):
        address = secure.rule.base + 4 * rng.randrange(secure.rule.size // 4)
        written[address] = rng.randbytes(4)
        system.issue(Step("cpu0", "write", address, data=written[address]))
    for address, data in written.items():
        assert system.issue(Step("cpu1", "read", address)).data == data
    return system.ddr.peek(secure.rule.base, secure.rule.size)


class TestKeystreamMemo:
    """The process-wide memo behind every CTR mode's LRU."""

    @pytest.fixture
    def aes_runs(self, monkeypatch):
        """Every (key, block) ``AES128.encrypt_block`` receives, in order."""
        runs = []
        table = AES128.encrypt_block

        def recording(cipher, block):
            runs.append((cipher.key, block))
            return table(cipher, block)

        monkeypatch.setattr(AES128, "encrypt_block", recording)
        return runs

    def test_second_build_enciphers_nothing_the_first_did(self, cold_keystream_memo, aes_runs):
        first = _secure_window_traffic(*build_figure1())
        assert aes_runs and len(cold_keystream_memo) == len(set(aes_runs))
        aes_runs.clear()

        second = _secure_window_traffic(*build_figure1())
        assert aes_runs == []
        # Same keys, counter blocks and keystream: the same ciphertext.
        assert second == first

    def test_reference_mode_neither_reads_nor_fills_it(self, cold_keystream_memo):
        cipher, nonce = AES128(bytes(range(16))), b"\x5a" * 8
        blocks = [CTRMode.make_counter_block(nonce, counter) for counter in (0, 1)]
        planted = {cipher.key + blocks[0]: b"\x00" * 16}  # a wrong block, never served
        cold_keystream_memo.update(planted)
        with reference_mode():
            uncached = CTRMode(cipher)
        assert uncached.keystream(nonce, 32) == b"".join(map(cipher.encrypt_block, blocks))
        assert cold_keystream_memo == planted

    def test_never_exceeds_its_bound(self, cold_keystream_memo):
        limit = CTRMode.CACHE_LIMIT
        n = limit // 2 + 8  # three keys' worth of blocks pass the bound once
        keys = [bytes([k]) * 16 for k in range(3)]
        modes = [CTRMode(AES128(key)) for key in keys]
        for counter in range(n):
            counter_block = CTRMode.make_counter_block(b"\x00" * 8, counter)
            for key, mode in zip(keys, modes):
                block = mode.keystream(b"\x00" * 8, 16, initial_counter=counter)
                assert len(cold_keystream_memo) <= limit
                assert cold_keystream_memo[key + counter_block] == block
        # The insertion that found it full cleared it first.
        assert len(cold_keystream_memo) == 3 * n - limit

    def test_two_keys_one_counter_block_get_different_streams(self, cold_keystream_memo):
        nonce = b"\x01" * 8
        counter_block = CTRMode.make_counter_block(nonce, 0)
        ciphers = [AES128(b"\xaa" * 16), AES128(b"\xbb" * 16)]
        streams = [CTRMode(cipher).keystream(nonce, 16) for cipher in ciphers]
        assert streams[0] != streams[1]
        assert streams == [cipher.encrypt_block(counter_block) for cipher in ciphers]
        assert len(cold_keystream_memo) == 2

    def test_fast_build_on_a_warm_memo_equals_reference_mode(self, cold_keystream_memo, aes_runs):
        spec = get_scenario("crypto_heavy")
        run_scenario(spec)
        assert cold_keystream_memo
        aes_runs.clear()
        fast = run_scenario(spec)
        assert aes_runs == []  # every keystream block came from the memo
        with reference_mode():
            reference = run_scenario(spec)
        assert_equivalent(fast, reference)


# ---------------------------------------------------------------------------
# Firewall decision cache: correctness, statistics parity, invalidation
# ---------------------------------------------------------------------------


def _memory_with_rw_rule() -> ConfigurationMemory:
    memory = ConfigurationMemory("cm_test")
    memory.add(0x1000, 0x100, SecurityPolicy(spi=1, rwa=ReadWriteAccess.READ_WRITE))
    return memory


def _write_txn(address: int = 0x1000) -> BusTransaction:
    return BusTransaction(
        master="cpu0", operation=BusOperation.WRITE, address=address, width=4,
        data=bytes(4),
    )


class TestSecurityBuilderCache:
    def test_repeat_evaluations_hit_the_cache_with_identical_results(self):
        builder = SecurityBuilder("sb", _memory_with_rw_rule())
        txn = _write_txn()
        policy_a, results_a = builder.evaluate(txn)
        policy_b, results_b = builder.evaluate(_write_txn())
        assert builder.cache_hits == 1 and builder.cache_misses == 1
        assert policy_a is policy_b
        # Every hit shares the cached list; immutable CheckResults keep that safe.
        assert results_b is results_a
        assert [r.passed for r in results_a] == [r.passed for r in results_b]

    def test_statistics_identical_to_uncached_run(self):
        cached = SecurityBuilder("sb_cached", _memory_with_rw_rule())
        with reference_mode():
            uncached = SecurityBuilder("sb_plain", _memory_with_rw_rule())
        assert not uncached.cache_enabled
        for _ in range(5):
            cached.evaluate(_write_txn())
            uncached.evaluate(_write_txn())
        assert cached.evaluations == uncached.evaluations
        assert cached.violations == uncached.violations
        assert cached.cycles_charged == uncached.cycles_charged
        assert cached.config_memory.lookup_count == uncached.config_memory.lookup_count
        assert cached.config_memory.miss_count == uncached.config_memory.miss_count

    def test_replace_policy_invalidates_cached_allow(self):
        memory = _memory_with_rw_rule()
        builder = SecurityBuilder("sb", memory)
        _, results = builder.evaluate(_write_txn())
        assert all(r.passed for r in results)
        # Runtime reconfiguration: the region becomes read-only.
        assert memory.replace_policy(
            0x1000, SecurityPolicy(spi=2, rwa=ReadWriteAccess.READ_ONLY)
        )
        _, results = builder.evaluate(_write_txn())
        assert any(not r.passed for r in results), (
            "stale cached ALLOW survived a policy reconfiguration"
        )

    def test_address_range_windows_invalidate_cached_allow(self):
        builder = SecurityBuilder("sb", _memory_with_rw_rule())
        _, results = builder.evaluate(_write_txn())
        assert all(r.passed for r in results)
        (address_range,) = [c for c in builder.checks if isinstance(c, AddressRangeCheck)]
        address_range.windows = [(0x2000, 0x100)]  # excludes 0x1000
        _, results = builder.evaluate(_write_txn())
        assert [r.check for r in results if not r.passed] == ["address_range"], (
            "stale cached ALLOW survived new address-range windows"
        )
        assert builder.cache_hits == 0 and builder.cache_misses == 2

    def test_suite_with_two_address_range_modules_is_not_cached(self):
        checks = [AddressRangeCheck(), AddressRangeCheck([(0x1000, 0x100)])]
        builder = SecurityBuilder("sb", _memory_with_rw_rule(), checks=checks)
        assert not builder.cache_enabled

    def test_default_policy_assignment_invalidates_cached_miss(self):
        memory = ConfigurationMemory("cm_default")
        builder = SecurityBuilder("sb", memory)
        txn = _write_txn(0x9000)  # no rule covers this address
        policy, _ = builder.evaluate(txn)
        assert policy is None
        # Plain attribute assignment (the pre-existing API) must also
        # invalidate cached POLICY_MISS denials.
        memory.default_policy = SecurityPolicy(spi=9, rwa=ReadWriteAccess.READ_WRITE)
        policy, results = builder.evaluate(_write_txn(0x9000))
        assert policy is not None and all(r.passed for r in results)

    def test_remove_rule_invalidates_to_policy_miss(self):
        memory = _memory_with_rw_rule()
        builder = SecurityBuilder("sb", memory)
        policy, _ = builder.evaluate(_write_txn())
        assert policy is not None
        assert memory.remove(0x1000)
        policy, results = builder.evaluate(_write_txn())
        assert policy is None
        assert results[0].check == "policy_lookup" and not results[0].passed

    def test_violation_counts_replay_on_cache_hits(self):
        memory = ConfigurationMemory("cm_ro")
        memory.add(0x1000, 0x100, SecurityPolicy(spi=1, rwa=ReadWriteAccess.READ_ONLY))
        builder = SecurityBuilder("sb", memory)
        for expected in (1, 2, 3):
            builder.evaluate(_write_txn())
            assert builder.violations == expected

    def test_firewall_level_reconfiguration_end_to_end(self):
        sim = Simulator()
        memory = _memory_with_rw_rule()
        firewall = LocalFirewall(sim, "lf_test", memory)
        assert firewall.filter_request(_write_txn()).allowed
        assert firewall.filter_request(_write_txn()).allowed  # cached
        memory.replace_policy(0x1000, SecurityPolicy(spi=3, rwa=ReadWriteAccess.READ_ONLY))
        assert not firewall.filter_request(_write_txn()).allowed


# ---------------------------------------------------------------------------
# Address-map decode memo
# ---------------------------------------------------------------------------


class TestAddressMapDecodeCache:
    def test_decode_memo_and_invalidation_on_add(self):
        amap = AddressMap()
        amap.add_region("bram", 0x0000, 0x1000, slave="bram")
        region = amap.decode(0x10, 4)
        assert amap.decode(0x10, 4) is region
        with pytest.raises(DecodeError):
            amap.decode(0x2000)
        amap.add_region("ddr", 0x2000, 0x1000, slave="ddr", external=True)
        assert amap.decode(0x2000).name == "ddr"
        assert amap.decode(0x10, 4).name == "bram"
