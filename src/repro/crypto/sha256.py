"""SHA-256 (FIPS 180-4): the simulator's one-shot hash and its test oracle.

The Integrity Core of the Local Ciphering Firewall is "based on hash-trees"
(paper, section IV-B2).  The hash function at the leaves and interior nodes of
that tree is provided here.  The one-shot :func:`sha256` helper is the
simulator's hot path (every hash-tree leaf and node goes through it), so it
calls :mod:`hashlib`'s C implementation.

:class:`SHA256` follows the standard Merkle–Damgård construction with the
SHA-256 compression function, implemented from first principles so it can be
audited against the spec.  It is the test oracle: the tests compare
:func:`sha256` against it across every padding boundary and on every leaf
and node input the hash tree produces.
"""

from __future__ import annotations

import hashlib as _hashlib
from typing import List

__all__ = ["SHA256", "sha256"]


def _rotr(value: int, amount: int) -> int:
    """Rotate a 32-bit value right by ``amount`` bits."""
    value &= 0xFFFFFFFF
    return ((value >> amount) | (value << (32 - amount))) & 0xFFFFFFFF


def _generate_constants() -> List[int]:
    """First 32 bits of the fractional parts of the cube roots of the first
    64 prime numbers (the SHA-256 round constants), computed rather than
    hard-coded so the derivation is visible."""
    primes: List[int] = []
    candidate = 2
    while len(primes) < 64:
        if all(candidate % p for p in primes):
            primes.append(candidate)
        candidate += 1
    constants = []
    for p in primes:
        cube_root = p ** (1.0 / 3.0)
        frac = cube_root - int(cube_root)
        constants.append(int(frac * (1 << 32)) & 0xFFFFFFFF)
    return constants


def _generate_initial_state() -> List[int]:
    """First 32 bits of the fractional parts of the square roots of the first
    8 primes (the SHA-256 initial hash value)."""
    primes = [2, 3, 5, 7, 11, 13, 17, 19]
    state = []
    for p in primes:
        root = p ** 0.5
        frac = root - int(root)
        state.append(int(frac * (1 << 32)) & 0xFFFFFFFF)
    return state


_K = _generate_constants()
_H0 = _generate_initial_state()


class SHA256:
    """Incremental SHA-256 hasher.

    Mirrors the familiar ``hashlib`` interface (``update`` / ``digest`` /
    ``hexdigest``) so it can be swapped for the standard library in user code,
    but is implemented entirely in this module.
    """

    DIGEST_SIZE = 32
    BLOCK_SIZE = 64

    def __init__(self, data: bytes = b"") -> None:
        self._state = list(_H0)
        self._buffer = bytearray()
        self._length = 0  # total message length in bytes
        if data:
            self.update(data)

    def update(self, data: bytes) -> "SHA256":
        """Absorb ``data`` into the hash state.  Returns self for chaining."""
        if not isinstance(data, (bytes, bytearray, memoryview)):
            raise TypeError(f"data must be bytes-like, got {type(data).__name__}")
        self._buffer += bytes(data)
        self._length += len(data)
        while len(self._buffer) >= self.BLOCK_SIZE:
            block = bytes(self._buffer[: self.BLOCK_SIZE])
            del self._buffer[: self.BLOCK_SIZE]
            self._state = self._compress(self._state, block)
        return self

    def copy(self) -> "SHA256":
        """Return an independent copy of the current hash state."""
        clone = SHA256()
        clone._state = list(self._state)
        clone._buffer = bytearray(self._buffer)
        clone._length = self._length
        return clone

    def digest(self) -> bytes:
        """Return the 32-byte digest of the data absorbed so far."""
        # Work on copies so that digest() does not disturb further updates.
        state = list(self._state)
        buffer = bytearray(self._buffer)
        bit_length = self._length * 8

        buffer.append(0x80)
        while (len(buffer) % self.BLOCK_SIZE) != 56:
            buffer.append(0x00)
        buffer += bit_length.to_bytes(8, "big")

        for offset in range(0, len(buffer), self.BLOCK_SIZE):
            state = self._compress(state, bytes(buffer[offset : offset + self.BLOCK_SIZE]))
        return b"".join(word.to_bytes(4, "big") for word in state)

    def hexdigest(self) -> str:
        """Return the digest as a lowercase hex string."""
        return self.digest().hex()

    # -- compression function ------------------------------------------------

    @staticmethod
    def _compress(state: List[int], block: bytes) -> List[int]:
        """One application of the SHA-256 compression function."""
        assert len(block) == 64
        w = [int.from_bytes(block[4 * i : 4 * i + 4], "big") for i in range(16)]
        for i in range(16, 64):
            s0 = _rotr(w[i - 15], 7) ^ _rotr(w[i - 15], 18) ^ (w[i - 15] >> 3)
            s1 = _rotr(w[i - 2], 17) ^ _rotr(w[i - 2], 19) ^ (w[i - 2] >> 10)
            w.append((w[i - 16] + s0 + w[i - 7] + s1) & 0xFFFFFFFF)

        a, b, c, d, e, f, g, h = state
        for i in range(64):
            s1 = _rotr(e, 6) ^ _rotr(e, 11) ^ _rotr(e, 25)
            ch = (e & f) ^ (~e & g)
            temp1 = (h + s1 + ch + _K[i] + w[i]) & 0xFFFFFFFF
            s0 = _rotr(a, 2) ^ _rotr(a, 13) ^ _rotr(a, 22)
            maj = (a & b) ^ (a & c) ^ (b & c)
            temp2 = (s0 + maj) & 0xFFFFFFFF

            h = g
            g = f
            f = e
            e = (d + temp1) & 0xFFFFFFFF
            d = c
            c = b
            b = a
            a = (temp1 + temp2) & 0xFFFFFFFF

        return [
            (state[0] + a) & 0xFFFFFFFF,
            (state[1] + b) & 0xFFFFFFFF,
            (state[2] + c) & 0xFFFFFFFF,
            (state[3] + d) & 0xFFFFFFFF,
            (state[4] + e) & 0xFFFFFFFF,
            (state[5] + f) & 0xFFFFFFFF,
            (state[6] + g) & 0xFFFFFFFF,
            (state[7] + h) & 0xFFFFFFFF,
        ]


def sha256(data: bytes) -> bytes:
    """One-shot SHA-256 digest of ``data`` (:mod:`hashlib`; :class:`SHA256`
    computes the same digest)."""
    return _hashlib.sha256(data).digest()
