"""AES-128 block cipher.

The Local Ciphering Firewall's Confidentiality Core is "based on a AES
(Advanced Encryption Standard) algorithm with 128-bits key" (paper, section
IV-B2).  This module implements the FIPS-197 forward cipher for 128-bit keys
from scratch: S-box construction from the finite-field inverse, key expansion
and the four round transformations.  The LCF runs AES in counter mode
(:mod:`repro.crypto.modes`), which only ever enciphers counter blocks, so the
inverse cipher is not needed.

Two code paths share the same key schedule:

* the *table-driven* path (:meth:`AES128.encrypt_block`), which the
  simulator calls, folds SubBytes, ShiftRows and MixColumns of one round
  into four 256-entry 32-bit T-table lookups per state column — the classic
  software formulation of the cipher, and the same precompute-then-look-up
  structure a hardware pipeline uses;
* the *reference* path (:meth:`AES128.encrypt_block_reference`) applies the
  four round transformations exactly as FIPS-197 writes them, one byte at a
  time, so every intermediate step stays inspectable.  It is the test
  oracle: the tests compare the table-driven path against it on known
  answers, random blocks and every counter block the Local Ciphering
  Firewall enciphers.

Throughput of the *hardware* core is modelled separately in
:mod:`repro.metrics.latency`.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

__all__ = ["AES128", "SBOX", "xtime", "gmul"]

# ---------------------------------------------------------------------------
# GF(2^8) arithmetic
# ---------------------------------------------------------------------------

_AES_MODULUS = 0x11B  # x^8 + x^4 + x^3 + x + 1


def xtime(a: int) -> int:
    """Multiply ``a`` by x (i.e. 2) in GF(2^8) modulo the AES polynomial."""
    a <<= 1
    if a & 0x100:
        a ^= _AES_MODULUS
    return a & 0xFF


def gmul(a: int, b: int) -> int:
    """Multiply two bytes in GF(2^8) modulo the AES polynomial."""
    result = 0
    while b:
        if b & 1:
            result ^= a
        a = xtime(a)
        b >>= 1
    return result & 0xFF


def _build_sbox() -> Tuple[int, ...]:
    """Construct the AES S-box from first principles.

    The S-box maps ``a`` to an affine transformation of its multiplicative
    inverse in GF(2^8) (0 maps to 0).  The inverses come from the log and
    antilog tables of the generator 3: ``exp[k]`` is 3^k, so the inverse of
    ``a`` is ``exp[(255 - log[a]) % 255]``.  The FIPS-197 affine map is
    b_i = inv_i XOR inv_{i+4} XOR inv_{i+5} XOR inv_{i+6} XOR inv_{i+7} XOR
    c_i with c = 0x63, which is ``inv`` XOR its left rotations by 1 to 4
    bits XOR 0x63.
    """
    exp = [0] * 255
    log = [0] * 256
    value = 1
    for power in range(255):
        exp[power] = value
        log[value] = power
        value ^= xtime(value)  # value * 3
    sbox = [0x63]  # the inverse of 0 is taken as 0, whose affine image is c
    for a in range(1, 256):
        inv = exp[(255 - log[a]) % 255]
        # With inv in both bytes, a right shift by 8 - k rotates it left by k.
        both = inv * 0x101
        rotated = (both >> 7) ^ (both >> 6) ^ (both >> 5) ^ (both >> 4)
        sbox.append((inv ^ rotated ^ 0x63) & 0xFF)
    return tuple(sbox)


SBOX = _build_sbox()

# Round constants for key expansion: rcon[i] = x^(i-1) in GF(2^8).
_RCON = [0x01]
for _ in range(9):
    _RCON.append(xtime(_RCON[-1]))

# Precomputed GF(2^8) multiplication tables for the MixColumns coefficients.
# They keep the per-block cost low enough for whole-memory-region experiments
# while the reference gmul() implementation above stays available for tests.
# 3 * x is 2 * x XOR x.
_MUL2 = tuple(xtime(x) for x in range(256))
_MUL3 = tuple(double ^ x for x, double in enumerate(_MUL2))

# T-tables: one round's SubBytes + MixColumns contribution of a single state
# byte, as a packed 32-bit column word.  T1..T3 are byte rotations of T0,
# matching the classic software AES.
_TE0 = tuple(
    (_MUL2[s] << 24) | (s << 16) | (s << 8) | _MUL3[s] for s in SBOX
)
_TE1 = tuple(((w >> 8) | ((w & 0xFF) << 24)) & 0xFFFFFFFF for w in _TE0)
_TE2 = tuple(((w >> 8) | ((w & 0xFF) << 24)) & 0xFFFFFFFF for w in _TE1)
_TE3 = tuple(((w >> 8) | ((w & 0xFF) << 24)) & 0xFFFFFFFF for w in _TE2)

class AES128:
    """AES with a 128-bit key (10 rounds), operating on 16-byte blocks.

    Parameters
    ----------
    key:
        Exactly 16 bytes of key material.

    Examples
    --------
    The FIPS-197 Appendix C.1 known answer:

    >>> cipher = AES128(bytes(range(16)))
    >>> cipher.encrypt_block(bytes.fromhex("00112233445566778899aabbccddeeff")).hex()
    '69c4e0d86a7b0430d8cdb78070b4c55a'
    """

    BLOCK_SIZE = 16
    KEY_SIZE = 16
    ROUNDS = 10

    def __init__(self, key: bytes) -> None:
        if not isinstance(key, (bytes, bytearray)):
            raise TypeError(f"key must be bytes, got {type(key).__name__}")
        if len(key) != self.KEY_SIZE:
            raise ValueError(
                f"AES-128 requires a {self.KEY_SIZE}-byte key, got {len(key)} bytes"
            )
        self._key = bytes(key)
        self._round_keys = self._expand_key(self._key)
        # Packed 32-bit round-key words for the table-driven path: one word
        # per state column, rounds 0..10 in order.
        self._rk_enc: Tuple[int, ...] = tuple(
            (w[0] << 24) | (w[1] << 16) | (w[2] << 8) | w[3] for w in self._round_keys
        )

    # -- key schedule -------------------------------------------------------

    @staticmethod
    def _expand_key(key: bytes) -> List[List[int]]:
        """Expand the cipher key into 11 round keys of 16 bytes each.

        Returns a list of 44 four-byte words (as lists of ints); round key
        ``r`` is words ``4r .. 4r+3``.
        """
        words: List[List[int]] = [list(key[4 * i : 4 * i + 4]) for i in range(4)]
        for i in range(4, 4 * (AES128.ROUNDS + 1)):
            temp = list(words[i - 1])
            if i % 4 == 0:
                # RotWord then SubWord then XOR with round constant.
                temp = temp[1:] + temp[:1]
                temp = [SBOX[b] for b in temp]
                temp[0] ^= _RCON[i // 4 - 1]
            words.append([words[i - 4][j] ^ temp[j] for j in range(4)])
        return words

    def round_key(self, round_index: int) -> bytes:
        """Return the 16-byte round key for round ``round_index`` (0..10)."""
        if not 0 <= round_index <= self.ROUNDS:
            raise ValueError(f"round index out of range: {round_index}")
        words = self._round_keys[4 * round_index : 4 * round_index + 4]
        return bytes(b for word in words for b in word)

    # -- state helpers ------------------------------------------------------
    #
    # The state is kept as a flat list of 16 bytes in column-major order
    # (FIPS-197 layout): state[row + 4*col].

    @staticmethod
    def _bytes_to_state(block: bytes) -> List[int]:
        return list(block)

    @staticmethod
    def _state_to_bytes(state: Sequence[int]) -> bytes:
        return bytes(state)

    def _add_round_key(self, state: List[int], round_index: int) -> None:
        key = self.round_key(round_index)
        for i in range(16):
            state[i] ^= key[i]

    @staticmethod
    def _sub_bytes(state: List[int]) -> None:
        for i in range(16):
            state[i] = SBOX[state[i]]

    @staticmethod
    def _shift_rows(state: List[int]) -> None:
        # Row r (elements state[r], state[r+4], state[r+8], state[r+12]) is
        # rotated left by r positions.
        for row in range(1, 4):
            column_values = [state[row + 4 * col] for col in range(4)]
            rotated = column_values[row:] + column_values[:row]
            for col in range(4):
                state[row + 4 * col] = rotated[col]

    @staticmethod
    def _mix_single_column(column: List[int]) -> List[int]:
        a0, a1, a2, a3 = column
        return [
            _MUL2[a0] ^ _MUL3[a1] ^ a2 ^ a3,
            a0 ^ _MUL2[a1] ^ _MUL3[a2] ^ a3,
            a0 ^ a1 ^ _MUL2[a2] ^ _MUL3[a3],
            _MUL3[a0] ^ a1 ^ a2 ^ _MUL2[a3],
        ]

    @classmethod
    def _mix_columns(cls, state: List[int]) -> None:
        for col in range(4):
            column = state[4 * col : 4 * col + 4]
            state[4 * col : 4 * col + 4] = cls._mix_single_column(column)

    # -- public block API ----------------------------------------------------
    #
    # encrypt_block is the table-driven hot path; encrypt_block_reference
    # spells out the FIPS-197 round transformations and is the ground truth
    # the fast path is tested against.

    def encrypt_block(self, block: bytes) -> bytes:
        """Encrypt exactly one 16-byte block (table-driven fast path)."""
        if len(block) != self.BLOCK_SIZE:
            raise ValueError(
                f"AES block must be {self.BLOCK_SIZE} bytes, got {len(block)}"
            )
        rk = self._rk_enc
        te0, te1, te2, te3 = _TE0, _TE1, _TE2, _TE3
        c0 = int.from_bytes(block[0:4], "big") ^ rk[0]
        c1 = int.from_bytes(block[4:8], "big") ^ rk[1]
        c2 = int.from_bytes(block[8:12], "big") ^ rk[2]
        c3 = int.from_bytes(block[12:16], "big") ^ rk[3]
        for k in range(4, 40, 4):
            t0 = te0[c0 >> 24] ^ te1[(c1 >> 16) & 0xFF] ^ te2[(c2 >> 8) & 0xFF] ^ te3[c3 & 0xFF] ^ rk[k]
            t1 = te0[c1 >> 24] ^ te1[(c2 >> 16) & 0xFF] ^ te2[(c3 >> 8) & 0xFF] ^ te3[c0 & 0xFF] ^ rk[k + 1]
            t2 = te0[c2 >> 24] ^ te1[(c3 >> 16) & 0xFF] ^ te2[(c0 >> 8) & 0xFF] ^ te3[c1 & 0xFF] ^ rk[k + 2]
            t3 = te0[c3 >> 24] ^ te1[(c0 >> 16) & 0xFF] ^ te2[(c1 >> 8) & 0xFF] ^ te3[c2 & 0xFF] ^ rk[k + 3]
            c0, c1, c2, c3 = t0, t1, t2, t3
        sbox = SBOX
        o0 = ((sbox[c0 >> 24] << 24) | (sbox[(c1 >> 16) & 0xFF] << 16)
              | (sbox[(c2 >> 8) & 0xFF] << 8) | sbox[c3 & 0xFF]) ^ rk[40]
        o1 = ((sbox[c1 >> 24] << 24) | (sbox[(c2 >> 16) & 0xFF] << 16)
              | (sbox[(c3 >> 8) & 0xFF] << 8) | sbox[c0 & 0xFF]) ^ rk[41]
        o2 = ((sbox[c2 >> 24] << 24) | (sbox[(c3 >> 16) & 0xFF] << 16)
              | (sbox[(c0 >> 8) & 0xFF] << 8) | sbox[c1 & 0xFF]) ^ rk[42]
        o3 = ((sbox[c3 >> 24] << 24) | (sbox[(c0 >> 16) & 0xFF] << 16)
              | (sbox[(c1 >> 8) & 0xFF] << 8) | sbox[c2 & 0xFF]) ^ rk[43]
        return (
            o0.to_bytes(4, "big") + o1.to_bytes(4, "big")
            + o2.to_bytes(4, "big") + o3.to_bytes(4, "big")
        )

    def encrypt_block_reference(self, block: bytes) -> bytes:
        """Encrypt one block via the byte-wise FIPS-197 round functions."""
        if len(block) != self.BLOCK_SIZE:
            raise ValueError(
                f"AES block must be {self.BLOCK_SIZE} bytes, got {len(block)}"
            )
        state = self._bytes_to_state(block)
        self._add_round_key(state, 0)
        for round_index in range(1, self.ROUNDS):
            self._sub_bytes(state)
            self._shift_rows(state)
            self._mix_columns(state)
            self._add_round_key(state, round_index)
        self._sub_bytes(state)
        self._shift_rows(state)
        self._add_round_key(state, self.ROUNDS)
        return self._state_to_bytes(state)

    @property
    def key(self) -> bytes:
        """The raw 16-byte cipher key."""
        return self._key

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"AES128(key=<{len(self._key)} bytes>)"
