"""Counter mode of operation for the Confidentiality Core.

The hardware Confidentiality Core streams 32-bit bus words through an AES-128
pipeline.  At the behavioural level the Local Ciphering Firewall enciphers and
deciphers whole external-memory blocks in counter mode (:class:`CTRMode`),
the natural fit for random-access memory encryption: each 16-byte block of a
memory page is (de)ciphered independently, by XOR with the encryption of a
counter block derived from its position and timestamp tag.  Counter mode only
runs the block cipher forward, so any object exposing ``encrypt_block`` and
``BLOCK_SIZE`` (such as :class:`repro.crypto.aes.AES128`) will do.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Protocol

__all__ = [
    "BlockCipher",
    "CTRMode",
    "xor_bytes",
    "use_keystream_cache",
    "keystream_cache_enabled",
]

# Whether new CTRMode instances memoise keystream blocks.  The differential
# harness turns it off to build platforms on the uncached reference path.
_KEYSTREAM_CACHE_DEFAULT = True


def use_keystream_cache(enabled: bool = True) -> None:
    """Set whether :class:`CTRMode` instances built from now on cache keystream
    blocks."""
    global _KEYSTREAM_CACHE_DEFAULT
    _KEYSTREAM_CACHE_DEFAULT = enabled


def keystream_cache_enabled() -> bool:
    """Whether new :class:`CTRMode` instances cache keystream blocks."""
    return _KEYSTREAM_CACHE_DEFAULT


class BlockCipher(Protocol):
    """Structural interface expected from a block cipher."""

    BLOCK_SIZE: int

    def encrypt_block(self, block: bytes) -> bytes:  # pragma: no cover - protocol
        ...


def xor_bytes(a: bytes, b: bytes) -> bytes:
    """XOR two equal-length byte strings."""
    if len(a) != len(b):
        raise ValueError(f"length mismatch: {len(a)} != {len(b)}")
    # One wide integer XOR instead of a per-byte Python loop.
    n = len(a)
    return (int.from_bytes(a, "big") ^ int.from_bytes(b, "big")).to_bytes(n, "big")


class CTRMode:
    """Counter mode: encrypt a keystream derived from a counter block.

    Counter mode is the mode of choice for protecting a random-access external
    memory because block ``i`` of a page can be (de)ciphered without touching
    its neighbours; the Local Ciphering Firewall derives the counter from the
    block's physical address and its timestamp tag, which is also what defeats
    replay and relocation of ciphertext (see the paper's section IV-A).

    Because the keystream depends only on (key, counter block) — never on the
    data — each generated keystream block is memoised in a bounded LRU cache.
    The LCF re-reads protected blocks far more often than it rewrites them
    (every read and every read-modify-write re-derives the same nonce until
    the version tag bumps), so the AES core is only exercised on genuinely new
    counter blocks.  A mode built after ``use_keystream_cache(False)`` has no
    cache.
    """

    #: Upper bound on memoised keystream blocks (16 bytes each).
    CACHE_LIMIT = 4096

    def __init__(self, cipher: BlockCipher) -> None:
        self._cipher = cipher
        self._block = cipher.BLOCK_SIZE
        self._use_cache = _KEYSTREAM_CACHE_DEFAULT
        self._keystream_cache: "OrderedDict[bytes, bytes]" = OrderedDict()
        self.cache_hits = 0
        self.cache_misses = 0

    @staticmethod
    def make_counter_block(nonce: bytes, counter: int, block_size: int = 16) -> bytes:
        """Build a counter block from an 8-byte nonce and a 64-bit counter."""
        if len(nonce) != block_size // 2:
            raise ValueError(
                f"nonce must be {block_size // 2} bytes, got {len(nonce)}"
            )
        if counter < 0 or counter >= 1 << (8 * (block_size - len(nonce))):
            raise ValueError("counter out of range")
        return nonce + counter.to_bytes(block_size - len(nonce), "big")

    def _keystream_block(self, counter_block: bytes) -> bytes:
        """One keystream block, served from the LRU cache when possible."""
        if not self._use_cache:
            return self._cipher.encrypt_block(counter_block)
        cache = self._keystream_cache
        cached = cache.get(counter_block)
        if cached is not None:
            self.cache_hits += 1
            cache.move_to_end(counter_block)
            return cached
        self.cache_misses += 1
        stream = self._cipher.encrypt_block(counter_block)
        cache[counter_block] = stream
        if len(cache) > self.CACHE_LIMIT:
            cache.popitem(last=False)
        return stream

    def keystream(self, nonce: bytes, length: int, initial_counter: int = 0) -> bytes:
        """Generate ``length`` keystream bytes starting at ``initial_counter``."""
        if length < 0:
            raise ValueError("length must be non-negative")
        out = bytearray()
        counter = initial_counter
        while len(out) < length:
            counter_block = self.make_counter_block(nonce, counter, self._block)
            out += self._keystream_block(counter_block)
            counter += 1
        return bytes(out[:length])

    def encrypt(self, plaintext: bytes, nonce: bytes, initial_counter: int = 0) -> bytes:
        """Encrypt arbitrary-length plaintext (no padding needed)."""
        stream = self.keystream(nonce, len(plaintext), initial_counter)
        return xor_bytes(plaintext, stream)

    def decrypt(self, ciphertext: bytes, nonce: bytes, initial_counter: int = 0) -> bytes:
        """Decrypt arbitrary-length ciphertext (CTR is symmetric)."""
        return self.encrypt(ciphertext, nonce, initial_counter)
