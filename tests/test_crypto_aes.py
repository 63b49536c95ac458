"""Unit and property tests for the AES-128 implementation."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.aes import AES128, SBOX, gmul, xtime
from repro.crypto.modes import xor_bytes


# FIPS-197 Appendix C.1 test vector.
FIPS_KEY = bytes.fromhex("000102030405060708090a0b0c0d0e0f")
FIPS_PLAINTEXT = bytes.fromhex("00112233445566778899aabbccddeeff")
FIPS_CIPHERTEXT = bytes.fromhex("69c4e0d86a7b0430d8cdb78070b4c55a")

# FIPS-197 Appendix B vector.
APPENDIX_B_KEY = bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c")
APPENDIX_B_PLAINTEXT = bytes.fromhex("3243f6a8885a308d313198a2e0370734")
APPENDIX_B_CIPHERTEXT = bytes.fromhex("3925841d02dc09fbdc118597196a0b32")

# NIST SP 800-38A, whose AES-128 key is the Appendix B one: the first two
# plaintext blocks with their F.1.1 (ECB), F.2.1 (CBC) and F.5.1 (CTR)
# results, plus the CBC IV and the first CTR counter block.
SP800_38A_P1 = bytes.fromhex("6bc1bee22e409f96e93d7e117393172a")
SP800_38A_P2 = bytes.fromhex("ae2d8a571e03ac9c9eb76fac45af8e51")
ECB_C1 = bytes.fromhex("3ad77bb40d7a3660a89ecaf32466ef97")
ECB_C2 = bytes.fromhex("f5d3d58503b9699de785895a96fdbaaf")
CBC_IV = bytes.fromhex("000102030405060708090a0b0c0d0e0f")
CBC_C1 = bytes.fromhex("7649abac8119b246cee98e9b12e9197d")
CBC_C2 = bytes.fromhex("5086cb9b507219ee95db113a917678b2")
CTR_T1 = bytes.fromhex("f0f1f2f3f4f5f6f7f8f9fafbfcfdfeff")
CTR_T2 = bytes.fromhex("f0f1f2f3f4f5f6f7f8f9fafbfcfdff00")
CTR_C1 = bytes.fromhex("874d6191b620e3261bef6864990db6ce")
CTR_C2 = bytes.fromhex("9806f66b7970fdff8617187bb9fffdff")


#: Single-block known answers: (key, input block, output block).  A CBC
#: block is the encryption of P XOR the previous ciphertext (the IV first);
#: a CTR block is the encryption of the counter block, which gives C XOR P.
KNOWN_ANSWERS = {
    "fips197_c1": (FIPS_KEY, FIPS_PLAINTEXT, FIPS_CIPHERTEXT),
    "fips197_b": (APPENDIX_B_KEY, APPENDIX_B_PLAINTEXT, APPENDIX_B_CIPHERTEXT),
    "sp800_38a_ecb1": (APPENDIX_B_KEY, SP800_38A_P1, ECB_C1),
    "sp800_38a_ecb2": (APPENDIX_B_KEY, SP800_38A_P2, ECB_C2),
    "sp800_38a_cbc1": (APPENDIX_B_KEY, xor_bytes(SP800_38A_P1, CBC_IV), CBC_C1),
    "sp800_38a_cbc2": (APPENDIX_B_KEY, xor_bytes(SP800_38A_P2, CBC_C1), CBC_C2),
    "sp800_38a_ctr1": (APPENDIX_B_KEY, CTR_T1, xor_bytes(CTR_C1, SP800_38A_P1)),
    "sp800_38a_ctr2": (APPENDIX_B_KEY, CTR_T2, xor_bytes(CTR_C2, SP800_38A_P2)),
}


#: Both ways to run the forward cipher: the T-table fast path and the
#: FIPS-197 reference rounds.
FORWARD_PATHS = {
    "table": AES128.encrypt_block,
    "reference": AES128.encrypt_block_reference,
}


class TestGaloisField:
    def test_xtime_known_values(self):
        assert xtime(0x57) == 0xAE
        assert xtime(0xAE) == 0x47
        assert xtime(0x47) == 0x8E
        assert xtime(0x8E) == 0x07

    def test_gmul_known_product(self):
        # 0x57 * 0x13 = 0xfe (FIPS-197 section 4.2.1 example).
        assert gmul(0x57, 0x13) == 0xFE

    def test_gmul_identity_and_zero(self):
        for value in range(256):
            assert gmul(value, 1) == value
            assert gmul(value, 0) == 0

    def test_gmul_commutative(self):
        for a in range(0, 256, 17):
            for b in range(0, 256, 13):
                assert gmul(a, b) == gmul(b, a)


class TestSBox:
    def test_sbox_known_entries(self):
        assert SBOX[0x00] == 0x63
        assert SBOX[0x01] == 0x7C
        assert SBOX[0x53] == 0xED
        assert SBOX[0xFF] == 0x16

    def test_sbox_is_a_permutation(self):
        assert sorted(SBOX) == list(range(256))

    def test_sbox_has_no_fixed_points(self):
        assert all(SBOX[value] != value for value in range(256))

    def test_sbox_matches_the_exponentiation_construction(self):
        """The log/antilog S-box equals the textbook one: the inverse as
        a^254 (0 for 0) by square-and-multiply, then the FIPS-197 affine map
        bit by bit."""

        def inverse(a):
            result, base, exponent = 1, a, 254
            while exponent:
                if exponent & 1:
                    result = gmul(result, base)
                base = gmul(base, base)
                exponent >>= 1
            return result if a else 0

        def affine(inv):
            out = 0
            for bit in range(8):
                b = inv >> bit
                for shift in (4, 5, 6, 7):
                    b ^= inv >> ((bit + shift) % 8)
                out |= ((b ^ (0x63 >> bit)) & 1) << bit
            return out

        assert SBOX == tuple(affine(inverse(a)) for a in range(256))
        assert all(gmul(a, inverse(a)) == 1 for a in range(1, 256))


class TestAES128Vectors:
    @pytest.mark.parametrize("path", sorted(FORWARD_PATHS))
    @pytest.mark.parametrize("vector", sorted(KNOWN_ANSWERS))
    def test_known_answer(self, vector, path):
        key, block, expected = KNOWN_ANSWERS[vector]
        assert FORWARD_PATHS[path](AES128(key), block) == expected

    def test_key_schedule_first_and_last_round_keys(self):
        cipher = AES128(APPENDIX_B_KEY)
        assert cipher.round_key(0) == APPENDIX_B_KEY
        # Last round key from FIPS-197 appendix A.1.
        assert cipher.round_key(10) == bytes.fromhex("d014f9a8c9ee2589e13f0cc8b6630ca6")

    def test_round_key_out_of_range(self):
        cipher = AES128(FIPS_KEY)
        with pytest.raises(ValueError):
            cipher.round_key(11)
        with pytest.raises(ValueError):
            cipher.round_key(-1)


class TestAES128Validation:
    def test_rejects_wrong_key_length(self):
        with pytest.raises(ValueError):
            AES128(b"short")
        with pytest.raises(ValueError):
            AES128(bytes(24))

    def test_rejects_non_bytes_key(self):
        with pytest.raises(TypeError):
            AES128("0123456789abcdef")  # type: ignore[arg-type]

    def test_rejects_wrong_block_length(self):
        cipher = AES128(FIPS_KEY)
        with pytest.raises(ValueError):
            cipher.encrypt_block(b"tooshort")
        with pytest.raises(ValueError):
            cipher.encrypt_block_reference(bytes(17))

    def test_key_property_roundtrip(self):
        cipher = AES128(FIPS_KEY)
        assert cipher.key == FIPS_KEY


class TestAES128Properties:
    @given(st.binary(min_size=16, max_size=16))
    @settings(max_examples=20, deadline=None)
    def test_encryption_changes_plaintext(self, block):
        cipher = AES128(FIPS_KEY)
        assert cipher.encrypt_block(block) != block

    @given(st.binary(min_size=16, max_size=16), st.integers(min_value=0, max_value=127))
    @settings(max_examples=20, deadline=None)
    def test_single_bit_key_change_changes_ciphertext(self, block, bit):
        key_a = bytearray(FIPS_KEY)
        key_a[bit // 8] ^= 1 << (bit % 8)
        ct_original = AES128(FIPS_KEY).encrypt_block(block)
        ct_modified = AES128(bytes(key_a)).encrypt_block(block)
        assert ct_original != ct_modified

    def test_deterministic(self):
        cipher = AES128(FIPS_KEY)
        assert cipher.encrypt_block(FIPS_PLAINTEXT) == cipher.encrypt_block(FIPS_PLAINTEXT)

    def test_avalanche_effect_on_plaintext(self):
        cipher = AES128(FIPS_KEY)
        reference = cipher.encrypt_block(FIPS_PLAINTEXT)
        flipped = bytearray(FIPS_PLAINTEXT)
        flipped[0] ^= 0x01
        other = cipher.encrypt_block(bytes(flipped))
        differing_bits = sum(bin(a ^ b).count("1") for a, b in zip(reference, other))
        # A single-bit plaintext change should flip roughly half the 128 bits.
        assert differing_bits > 30
