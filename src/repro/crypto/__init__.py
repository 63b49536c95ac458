"""Cryptographic substrate used by the Local Ciphering Firewall.

The paper's Confidentiality Core is an AES-128 block cipher and its Integrity
Core is a hash tree.  This package provides functional, pure-Python
implementations of every primitive those cores need:

* :mod:`repro.crypto.aes` -- AES-128 block cipher (key expansion, encrypt).
* :mod:`repro.crypto.modes` -- counter (CTR) mode with a keystream cache.
* :mod:`repro.crypto.sha256` -- SHA-256 compression function and digest.
* :mod:`repro.crypto.merkle` -- Merkle hash tree protecting a block-addressed
  memory (the Integrity Core's data structure).
* :mod:`repro.crypto.keys` -- deterministic key generation and the key store
  holding per-policy cryptographic keys (the ``CK`` policy parameter).

These are *functional* models: correctness of what is encrypted, hashed and
verified is real; the number of clock cycles each hardware core would take is
accounted separately by :mod:`repro.metrics.latency`.
"""
