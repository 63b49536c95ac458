"""Tests for counter mode and its XOR helper."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.aes import AES128
from repro.crypto.modes import CTRMode, keystream_cache_enabled, use_keystream_cache, xor_bytes

KEY = bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c")

# NIST SP 800-38A F.5.1 (AES-128 CTR) first two blocks.
NIST_PLAINTEXT = bytes.fromhex(
    "6bc1bee22e409f96e93d7e117393172aae2d8a571e03ac9c9eb76fac45af8e51"
)
NIST_CTR_INITIAL_COUNTER = bytes.fromhex("f0f1f2f3f4f5f6f7f8f9fafbfcfdfeff")
NIST_CTR_CIPHERTEXT = bytes.fromhex(
    "874d6191b620e3261bef6864990db6ce9806f66b7970fdff8617187bb9fffdff"
)


class _ReferenceAES(AES128):
    """AES-128 whose block calls run the FIPS-197 reference rounds."""

    encrypt_block = AES128.encrypt_block_reference


def _ctr(cipher, cached: bool) -> CTRMode:
    saved = keystream_cache_enabled()
    use_keystream_cache(cached)
    try:
        return CTRMode(cipher)
    finally:
        use_keystream_cache(saved)


class TestXorBytes:
    def test_xor_basics(self):
        assert xor_bytes(b"\x00\xff", b"\xff\xff") == b"\xff\x00"

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            xor_bytes(b"\x00", b"\x00\x01")

    @given(st.binary(min_size=1, max_size=64))
    @settings(max_examples=25, deadline=None)
    def test_xor_is_involutive(self, data):
        mask = bytes((i * 37) & 0xFF for i in range(len(data)))
        assert xor_bytes(xor_bytes(data, mask), mask) == data


class TestCTR:
    @pytest.mark.parametrize("cipher", [AES128, _ReferenceAES], ids=["table_aes", "reference_aes"])
    @pytest.mark.parametrize("cached", [True, False], ids=["cached", "uncached"])
    def test_nist_vector(self, cached, cipher):
        # The NIST CTR vector uses the full 16-byte counter block as the
        # initial counter; reproduce it by splitting into nonce and counter.
        nonce = NIST_CTR_INITIAL_COUNTER[:8]
        initial = int.from_bytes(NIST_CTR_INITIAL_COUNTER[8:], "big")
        mode = _ctr(cipher(KEY), cached)
        # The second pass is served from the keystream cache when it is on.
        for _ in range(2):
            assert mode.encrypt(NIST_PLAINTEXT, nonce, initial) == NIST_CTR_CIPHERTEXT
        assert mode.cache_hits == (2 if cached else 0)

    def test_arbitrary_length_no_padding(self):
        mode = CTRMode(AES128(KEY))
        message = b"odd-length message!"
        nonce = b"\x01" * 8
        assert mode.decrypt(mode.encrypt(message, nonce), nonce) == message

    def test_counter_block_layout(self):
        block = CTRMode.make_counter_block(b"\xaa" * 8, 5)
        assert block == b"\xaa" * 8 + (5).to_bytes(8, "big")

    def test_counter_block_rejects_bad_nonce(self):
        with pytest.raises(ValueError):
            CTRMode.make_counter_block(b"\x00" * 7, 0)

    def test_keystream_negative_length(self):
        mode = CTRMode(AES128(KEY))
        with pytest.raises(ValueError):
            mode.keystream(b"\x00" * 8, -1)

    def test_different_nonces_give_different_ciphertext(self):
        mode = CTRMode(AES128(KEY))
        message = b"0" * 32
        assert mode.encrypt(message, b"\x00" * 8) != mode.encrypt(message, b"\x01" * 8)

    @given(st.binary(min_size=0, max_size=100), st.binary(min_size=8, max_size=8))
    @settings(max_examples=30, deadline=None)
    def test_roundtrip(self, message, nonce):
        mode = CTRMode(AES128(KEY))
        assert mode.decrypt(mode.encrypt(message, nonce), nonce) == message
