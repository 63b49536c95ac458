"""Key material management for security policies.

Each security policy may carry a Cryptographic Key parameter (``CK``), "the key
used by the block cipher module ... only available for the Local Ciphering
Firewall" (paper, section IV-A).  This module provides:

* :func:`random_key` -- deterministic pseudo-random key generation seeded for
  reproducible experiments (the simulator never needs true randomness); every
  ciphered window of a built platform holds its own such key,
* :class:`KeyStore` -- the trusted on-chip key table indexed by Security
  Policy Identifier (SPI), with zeroisation support for the reconfiguration
  scenario described in the paper's perspectives.
"""

from __future__ import annotations

from typing import Dict, Iterator

from repro.crypto.sha256 import sha256

__all__ = ["random_key", "KeyStore", "KeyError_", "KeyStoreLocked"]


class KeyError_(KeyError):
    """Raised when a requested SPI has no key installed."""


class KeyStoreLocked(RuntimeError):
    """Raised when attempting to modify a locked key store."""


def random_key(seed: int, length: int = 16) -> bytes:
    """Deterministically expand an integer seed into ``length`` key bytes.

    A simple hash-counter construction: ``SHA256(seed || counter)`` blocks are
    concatenated and truncated.  Determinism keeps every experiment in the
    reproduction repeatable; real hardware would use a TRNG.
    """
    if length <= 0:
        raise ValueError("length must be positive")
    out = bytearray()
    counter = 0
    seed_bytes = seed.to_bytes(16, "big", signed=False) if seed >= 0 else sha256(
        str(seed).encode()
    )
    while len(out) < length:
        out += sha256(bytes(seed_bytes) + counter.to_bytes(4, "big"))
        counter += 1
    return bytes(out[:length])


class KeyStore:
    """Trusted on-chip table of per-policy cryptographic keys.

    Keys are indexed by SPI.  The store can be *locked* after system boot,
    after which installation and zeroisation require an explicit unlock —
    modelling the fact that the configuration memories are "considered as
    trusted units" written only by the trusted configuration flow.
    """

    def __init__(self, key_length: int = 16) -> None:
        if key_length <= 0:
            raise ValueError("key_length must be positive")
        self.key_length = key_length
        self._keys: Dict[int, bytes] = {}
        self._locked = False

    # -- lifecycle ------------------------------------------------------------

    def install(self, spi: int, key: bytes) -> None:
        """Install (or replace) the key for a policy identifier."""
        self._ensure_unlocked()
        if spi < 0:
            raise ValueError("SPI must be non-negative")
        if len(key) != self.key_length:
            raise ValueError(
                f"key must be {self.key_length} bytes, got {len(key)}"
            )
        self._keys[spi] = bytes(key)

    def zeroise(self, spi: int) -> None:
        """Erase the key for one policy (reaction to a detected attack)."""
        self._ensure_unlocked()
        self._keys.pop(spi, None)

    def zeroise_all(self) -> None:
        """Erase every key in the store."""
        self._ensure_unlocked()
        self._keys.clear()

    def lock(self) -> None:
        """Lock the store against further modification."""
        self._locked = True

    def unlock(self) -> None:
        """Unlock the store (trusted configuration flow only)."""
        self._locked = False

    @property
    def locked(self) -> bool:
        """Whether the store currently refuses modifications."""
        return self._locked

    def _ensure_unlocked(self) -> None:
        if self._locked:
            raise KeyStoreLocked("key store is locked")

    # -- lookup ---------------------------------------------------------------

    def get(self, spi: int) -> bytes:
        """Return the key for ``spi`` or raise :class:`KeyError_`."""
        try:
            return self._keys[spi]
        except KeyError as exc:
            raise KeyError_(f"no key installed for SPI {spi}") from exc

    def has(self, spi: int) -> bool:
        """Whether a key is installed for ``spi``."""
        return spi in self._keys

    def __len__(self) -> int:
        return len(self._keys)

    def __iter__(self) -> Iterator[int]:
        return iter(sorted(self._keys))

    def __contains__(self, spi: int) -> bool:
        return spi in self._keys
