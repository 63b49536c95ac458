"""Seeded randomized differential tests for the dual crypto implementations.

Complements the scenario-level harness, which leaves the ciphers alone, with
direct, randomized checks:

* AES-128: the T-table fast path vs. the byte-wise FIPS-197 reference, over
  random keys and blocks and over every counter block a Local Ciphering
  Firewall enciphers while it serves seeded traffic;
* SHA-256: :mod:`hashlib` vs. the from-scratch implementation, over random
  lengths straddling every Merkle–Damgård padding boundary and over every
  leaf and node input the hash tree hashes;
* CTR mode: LRU-cached vs. uncached keystreams at and around the cache-limit
  boundary, where eviction starts.
"""

from __future__ import annotations

import random

from repro.core.constants import INTEGRITY_BLOCK_BYTES
from repro.crypto import merkle
from repro.crypto.aes import AES128
from repro.crypto.modes import CTRMode
from repro.crypto.sha256 import SHA256, sha256
from repro.scenarios.differential import reference_mode
from repro.soc.transaction import Step, TransactionStatus

from tests.conftest import build_figure1


class TestAESDifferential:
    def test_random_keys_and_blocks(self):
        rng = random.Random(0xD1FF_AE5)
        for _ in range(200):
            key = rng.randbytes(16)
            block = rng.randbytes(16)
            cipher = AES128(key)
            assert cipher.encrypt_block(block) == cipher.encrypt_block_reference(block)

    def test_every_counter_block_the_lcf_enciphers(self, monkeypatch, cold_keystream_memo):
        """Seeded writes and reads of the ``secure`` window: each nonce ‖
        counter block the Confidentiality Core enciphers matches the
        FIPS-197 reference rounds.  The keystream memo starts empty, so no
        block an earlier test enciphered is hidden from the check."""
        seen = []
        table = AES128.encrypt_block

        def recording_encrypt_block(cipher, block):
            out = table(cipher, block)
            seen.append((cipher, block, out))
            return out

        monkeypatch.setattr(AES128, "encrypt_block", recording_encrypt_block)
        system, security = build_figure1()
        (secure,) = [r for r in security.ciphering_firewall.protected_regions
                     if r.rule.label == "ddr_secure"]
        rng = random.Random(0xAE5_0002)
        written = {}
        for _ in range(24):
            address = secure.rule.base + 4 * rng.randrange(secure.rule.size // 4)
            written[address] = rng.randbytes(4)
            txn = system.issue(Step("cpu0", "write", address, data=written[address]))
            assert txn.status is TransactionStatus.COMPLETED
        for address, data in written.items():
            assert system.issue(Step("cpu1", "read", address)).data == data

        assert {len(block) for _, block, _ in seen} == {16}
        for cipher, block, out in seen:
            assert cipher.encrypt_block_reference(block) == out


class TestSha256Differential:
    # Lengths straddling the padding boundaries (55/56, 63/64) plus a spread
    # of random multi-block sizes.
    BOUNDARY_LENGTHS = (0, 1, 54, 55, 56, 57, 63, 64, 65, 119, 120, 127, 128, 129)

    def test_random_messages_across_padding_boundaries(self):
        rng = random.Random(0x5AA5)
        lengths = list(self.BOUNDARY_LENGTHS) + [rng.randrange(1, 4096) for _ in range(30)]
        for length in lengths:
            data = rng.randbytes(length)
            assert SHA256(data).digest() == sha256(data)

    def test_every_hash_tree_input(self, monkeypatch):
        """Seeded updates and verifications of a tree over Integrity-Core
        blocks: each 52-byte leaf input and 68-byte node input hashes to the
        from-scratch digest."""
        seen = []

        def recording_sha256(data):
            digest = sha256(data)
            seen.append((data, digest))
            return digest

        monkeypatch.setattr(merkle, "sha256", recording_sha256)
        rng = random.Random(0x5AA7)
        tree = merkle.MerkleTree(16, block_size=INTEGRITY_BLOCK_BYTES)
        blocks = {}
        for _ in range(40):
            index = rng.randrange(16)
            blocks[index] = rng.randbytes(INTEGRITY_BLOCK_BYTES)
            tree.update(index, blocks[index])
        for index, data in blocks.items():
            assert tree.verify(index, data)
        tampered = next(iter(blocks))
        assert not tree.verify(tampered, bytes(INTEGRITY_BLOCK_BYTES))

        assert {len(data) for data, _ in seen} == {52, 68}
        for data, digest in seen:
            assert SHA256(data).digest() == digest

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
        cached = CTRMode(AES128(key))
        with reference_mode():
            uncached = CTRMode(AES128(key))
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
        cached = CTRMode(AES128(key))
        with reference_mode():
            uncached = CTRMode(AES128(key))
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
        with reference_mode():
            uncached = CTRMode(AES128(key))
        nonce = b"\x00" * 8
        rng = random.Random(7)
        for size in (1, 15, 16, 17, 31, 32, 33, 255, 256, 257):
            payload = rng.randbytes(size)
            assert cached.encrypt(payload, nonce) == uncached.encrypt(payload, nonce)
            assert cached.decrypt(cached.encrypt(payload, nonce), nonce) == payload
