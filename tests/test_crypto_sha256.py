"""Tests for the from-scratch SHA-256 implementation."""

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.sha256 import SHA256, sha256


# NIST FIPS 180-4 / well-known reference digests.
KNOWN_VECTORS = {
    b"": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    b"abc": "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad",
    b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq":
        "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
    b"The quick brown fox jumps over the lazy dog":
        "d7a8fbb307d7809469ca9abcb0082e4f8d5651e46d3cdb762d02d0bf37c9e592",
}


class TestKnownVectors:
    # sha256() dispatches to hashlib by default; the SHA256 class always runs
    # the from-scratch compression function.
    @pytest.mark.parametrize(
        "digest", [sha256, lambda message: SHA256(message).digest()], ids=["sha256", "SHA256"]
    )
    @pytest.mark.parametrize("message,expected", sorted(KNOWN_VECTORS.items()))
    def test_reference_digests(self, message, expected, digest):
        assert digest(message).hex() == expected

    def test_one_million_a(self):
        # The classic NIST long-message vector, built incrementally.
        hasher = SHA256()
        for _ in range(1000):
            hasher.update(b"a" * 1000)
        assert hasher.hexdigest() == (
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        )


class TestIncrementalInterface:
    def test_update_chaining_returns_self(self):
        assert SHA256().update(b"ab").update(b"c").digest() == sha256(b"abc")

    def test_split_updates_equal_single_update(self):
        whole = sha256(b"hello world, this is a split-update test")
        parts = SHA256()
        parts.update(b"hello world, ")
        parts.update(b"this is a ")
        parts.update(b"split-update test")
        assert parts.digest() == whole

    def test_digest_does_not_finalise_state(self):
        hasher = SHA256(b"abc")
        first = hasher.digest()
        second = hasher.digest()
        assert first == second
        hasher.update(b"def")
        assert hasher.digest() == sha256(b"abcdef")

    def test_copy_is_independent(self):
        hasher = SHA256(b"abc")
        clone = hasher.copy()
        clone.update(b"def")
        assert hasher.digest() == sha256(b"abc")
        assert clone.digest() == sha256(b"abcdef")

    def test_update_rejects_str(self):
        with pytest.raises(TypeError):
            SHA256().update("text")  # type: ignore[arg-type]

    def test_digest_size_constants(self):
        assert SHA256.DIGEST_SIZE == 32
        assert SHA256.BLOCK_SIZE == 64
        assert len(sha256(b"x")) == 32


class TestAgainstHashlib:
    @given(st.binary(min_size=0, max_size=500))
    @settings(max_examples=60, deadline=None)
    def test_matches_hashlib_for_random_inputs(self, data):
        assert sha256(data) == hashlib.sha256(data).digest()

    @pytest.mark.parametrize("length", [55, 56, 57, 63, 64, 65, 119, 120, 121, 128])
    def test_padding_boundaries(self, length):
        # Lengths straddling the Merkle-Damgård padding boundaries.
        data = bytes(range(256))[:length] if length <= 256 else b"x" * length
        assert sha256(data) == hashlib.sha256(data).digest()

    @given(st.lists(st.binary(min_size=0, max_size=70), min_size=1, max_size=6))
    @settings(max_examples=30, deadline=None)
    def test_incremental_matches_hashlib(self, chunks):
        ours = SHA256()
        theirs = hashlib.sha256()
        for chunk in chunks:
            ours.update(chunk)
            theirs.update(chunk)
        assert ours.digest() == theirs.digest()
