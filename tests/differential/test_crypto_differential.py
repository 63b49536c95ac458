"""Seeded randomized differential tests for the dual crypto implementations.

Complements the scenario-level harness with direct, randomized checks:

* AES-128: the T-table fast path vs. the byte-wise FIPS-197 reference, over
  random keys and blocks, plus the global backend switch;
* SHA-256: the hashlib backend vs. the from-scratch implementation, over
  random lengths straddling every Merkle–Damgård padding boundary;
* CTR mode: LRU-cached vs. uncached keystreams at and around the cache-limit
  boundary, where eviction starts.
"""

from __future__ import annotations

import random

from repro.crypto.aes import AES128
from repro.crypto.aes import fast_backend_enabled as aes_fast_enabled
from repro.crypto.aes import use_reference_backend as aes_use_reference
from repro.crypto.modes import CTRMode
from repro.crypto.sha256 import SHA256, sha256
from repro.crypto.sha256 import use_reference_backend as sha_use_reference


class TestAESDifferential:
    def test_random_keys_and_blocks(self):
        rng = random.Random(0xD1FF_AE5)
        for _ in range(200):
            key = rng.randbytes(16)
            block = rng.randbytes(16)
            cipher = AES128(key)
            assert cipher.encrypt_block(block) == cipher.encrypt_block_reference(block)

    def test_backend_switch_routes_block_calls_to_the_reference(self):
        rng = random.Random(0xAE5_0002)
        cipher = AES128(rng.randbytes(16))
        block = rng.randbytes(16)
        fast = cipher.encrypt_block(block)
        aes_use_reference(True)
        try:
            assert not aes_fast_enabled()
            # Same call site, reference rounds, identical bytes.
            assert cipher.encrypt_block(block) == fast
        finally:
            aes_use_reference(False)
        assert aes_fast_enabled()
        assert cipher.encrypt_block(block) == fast


class TestSha256Differential:
    # Lengths straddling the padding boundaries (55/56, 63/64) plus a spread
    # of random multi-block sizes.
    BOUNDARY_LENGTHS = (0, 1, 54, 55, 56, 57, 63, 64, 65, 119, 120, 127, 128, 129)

    def test_random_messages_across_padding_boundaries(self):
        rng = random.Random(0x5AA5)
        lengths = list(self.BOUNDARY_LENGTHS) + [rng.randrange(1, 4096) for _ in range(30)]
        for length in lengths:
            data = rng.randbytes(length)
            fast = sha256(data)
            sha_use_reference(True)
            try:
                assert sha256(data) == fast
            finally:
                sha_use_reference(False)
            assert SHA256(data).digest() == fast

    def test_incremental_updates_match_one_shot(self):
        rng = random.Random(0x5AA6)
        for _ in range(20):
            chunks = [rng.randbytes(rng.randrange(0, 200)) for _ in range(rng.randrange(1, 8))]
            data = b"".join(chunks)
            hasher = SHA256()
            for chunk in chunks:
                hasher.update(chunk)
            assert hasher.digest() == sha256(data)


class TestCTRKeystreamDifferential:
    def test_random_payloads_cached_vs_uncached(self):
        rng = random.Random(0xC7C7)
        key = rng.randbytes(16)
        cached = CTRMode(AES128(key), cache_blocks=True)
        uncached = CTRMode(AES128(key), cache_blocks=False)
        for _ in range(50):
            nonce = rng.randbytes(8)
            payload = rng.randbytes(rng.randrange(1, 300))
            counter = rng.randrange(0, 1 << 32)
            assert cached.encrypt(payload, nonce, counter) == uncached.encrypt(
                payload, nonce, counter
            )
        assert cached.cache_hits + cached.cache_misses > 0
        assert uncached.cache_hits == uncached.cache_misses == 0

    def test_streams_identical_across_the_lru_eviction_boundary(self):
        """Walk the counter straight through CACHE_LIMIT distinct blocks, then
        revisit early counters (already evicted) — bytes must still match the
        uncached reference on both sides of the boundary."""
        key = bytes(range(16))
        cached = CTRMode(AES128(key), cache_blocks=True)
        uncached = CTRMode(AES128(key), cache_blocks=False)
        nonce = b"\xa5" * 8
        limit = CTRMode.CACHE_LIMIT

        for counter in (0, 1, limit - 1, limit, limit + 1, limit + 7):
            assert cached.keystream(nonce, 16, initial_counter=counter) == uncached.keystream(
                nonce, 16, initial_counter=counter
            )

        # Fill past the limit so early entries are evicted...
        span = cached.keystream(nonce, 16 * (limit + 16), initial_counter=0)
        assert len(cached._keystream_cache) <= limit
        # ...then revisit the evicted head: recomputed, still identical.
        head = cached.keystream(nonce, 16, initial_counter=0)
        assert head == uncached.keystream(nonce, 16, initial_counter=0)
        assert span[:16] == head

    def test_boundary_payload_sizes_around_block_edges(self):
        key = b"\x42" * 16
        cached = CTRMode(AES128(key))
        uncached = CTRMode(AES128(key), cache_blocks=False)
        nonce = b"\x00" * 8
        rng = random.Random(7)
        for size in (1, 15, 16, 17, 31, 32, 33, 255, 256, 257):
            payload = rng.randbytes(size)
            assert cached.encrypt(payload, nonce) == uncached.encrypt(payload, nonce)
            assert cached.decrypt(cached.encrypt(payload, nonce), nonce) == payload
