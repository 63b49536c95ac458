#!/usr/bin/env python3
"""Secure firmware update: stream an image into protected external memory.

The scenario the paper's threat model worries about most is code or data in
the *external* memory being tampered with and then executed/consumed by one of
the processors.  This example:

1. streams a firmware image into the ciphered + authenticated DDR window
   through the Local Ciphering Firewall,
2. verifies the processor reads back exactly what it wrote, while the DDR
   chip itself only ever stores ciphertext,
3. simulates an attacker on the external bus who patches the stored image
   (spoofing) and shows that the next read is rejected with an integrity
   error instead of delivering the attacker's code,
4. simulates a replay of the original (stale) image after a legitimate
   update, which is likewise rejected thanks to the timestamp tags.

Run with:  python examples/secure_firmware_update.py
"""

from repro.api import Experiment
from repro.soc.transaction import Step, TransactionStatus


def main() -> None:
    built = Experiment.from_scenario("paper_baseline").build()
    system, security = built.system, built.security
    cfg = system.config

    # 1. Stream the image in 16-byte bursts, then read it back the same way.
    image = bytes(((917 + 17 * i) ^ (i >> 3)) & 0xFF for i in range(1024))
    chunks = range(0, len(image), 16)
    for offset in chunks:
        system.issue(Step("cpu0", "write", cfg.ddr_base + offset, burst_length=4,
                          data=image[offset:offset + 16]))
    readback = b"".join(
        system.issue(Step("cpu0", "read", cfg.ddr_base + offset, burst_length=4)).data
        for offset in chunks
    )
    stored = system.ddr.peek(cfg.ddr_base, len(image))
    print(f"firmware image size          : {len(image)} bytes")
    print(f"read-back matches image      : {readback == image}")
    print(f"DDR stores plaintext image?  : {stored == image}")
    print(f"alerts during the update     : {security.monitor.count()}")
    assert readback == image and stored != image

    # 2. Spoofing: the attacker patches the stored firmware directly.
    print("\n-- attacker patches 16 bytes of the stored firmware (spoofing) --")
    system.ddr.poke(cfg.ddr_base + 0x80, b"\xde\xad\xbe\xef" * 4)
    txn = system.issue(Step("cpu0", "read", cfg.ddr_base + 0x80, burst_length=4))
    print(f"victim read status           : {txn.status.value}")
    print(f"integrity alerts             : "
          f"{security.monitor.summary()['by_violation'].get('integrity_failure', 0)}")
    assert txn.status is TransactionStatus.INTEGRITY_ERROR

    # 3. Replay: attacker restores the original image over a newer version.
    print("\n-- legitimate update of one block, then attacker replays the old one --")
    block_address = cfg.ddr_base + 0x100
    stale_ciphertext = system.ddr.peek(block_address, 32)
    system.issue(Step("cpu0", "write", block_address, burst_length=8,
                      data=b"PATCHED-FIRMWARE-BLOCK-v2.0.1!!!"))
    system.ddr.poke(block_address, stale_ciphertext)   # replay the old ciphertext
    txn = system.issue(Step("cpu0", "read", block_address, burst_length=8))
    print(f"victim read status           : {txn.status.value}")
    assert txn.status is TransactionStatus.INTEGRITY_ERROR

    print("\ntotal alerts:", security.monitor.count())
    print("detection summary:", security.monitor.summary()["by_violation"])


if __name__ == "__main__":
    main()
