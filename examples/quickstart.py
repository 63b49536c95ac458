#!/usr/bin/env python3
"""Quickstart: build the paper's platform, protect it, run traffic, attack it.

This walks through the public API in five steps:

1. build the protected ``paper_baseline`` scenario (3 MicroBlaze-like CPUs,
   BRAM, external DDR, one dedicated IP on a shared bus -- the paper's
   Figure 1, with Local Firewalls on every interface and a Local Ciphering
   Firewall on the external memory),
2. run legitimate traffic and observe that it completes with zero alerts
   while the external memory only ever holds ciphertext,
3. let a hijacked IP issue an unauthorized access and watch it being blocked
   *at its own interface*, before it reaches the shared bus,
4. print the security monitor's summary,
5. run the same claim as a one-liner through the unified ``Experiment``
   façade -- the scenario-to-report pipeline everything else builds on.

Run with:  python examples/quickstart.py
"""

from repro.api import Experiment
from repro.soc.processor import MemoryOperation, ProcessorProgram
from repro.soc.transaction import Step, TransactionStatus


def main() -> None:
    # ------------------------------------------------------------------ 1
    built = Experiment.from_scenario("paper_baseline").build()
    system, security = built.system, built.security
    print("Platform built:", ", ".join(system.processors), "+ dma, bram, ddr, ip0")
    print("Firewalls attached:", ", ".join(fw.name for fw in security.all_firewalls))
    print()

    # ------------------------------------------------------------------ 2
    cfg = system.config
    secret = b"user PIN = 4242!"
    program = ProcessorProgram(
        [
            # Internal traffic: BRAM and the dedicated IP's registers.
            MemoryOperation.write(cfg.bram_base + 0x100, b"\x11\x22\x33\x44"),
            MemoryOperation.read(cfg.bram_base + 0x100),
            MemoryOperation.write(cfg.ip_regs_base + 0x10, (7).to_bytes(4, "little")),
            # External traffic: lands in the ciphered + authenticated window.
            MemoryOperation.write(cfg.ddr_base + 0x40, secret),
            MemoryOperation.read(cfg.ddr_base + 0x40, width=4, burst_length=4),
        ],
        name="legitimate",
    )
    system.processors["cpu0"].load_program(program)
    system.processors["cpu0"].start()
    system.run()

    cpu0 = system.processors["cpu0"]
    readback = cpu0.transactions[-1].data
    raw_in_ddr = system.ddr.peek(cfg.ddr_base + 0x40, len(secret))
    print("cpu0 finished in", cpu0.execution_cycles, "cycles")
    print("  secret written to external memory :", secret)
    print("  what cpu0 reads back              :", readback)
    print("  what the DDR chip actually stores :", raw_in_ddr.hex())
    print("  alerts raised by legitimate traffic:", security.monitor.count())
    assert readback == secret and raw_in_ddr != secret
    print()

    # ------------------------------------------------------------------ 3
    # A hijacked DMA engine tries to read the dedicated IP's key registers.
    probe = system.issue(Step("dma", "read", cfg.ip_regs_base))
    print("hijacked DMA probe of the IP key registers:")
    print("  status             :", probe.status.value)
    print("  reached the bus?   :", "dma" in system.bus.monitor.per_master)
    print("  reason             :", probe.annotations.get("block_reason"))
    assert probe.status is TransactionStatus.BLOCKED_AT_MASTER
    print()

    # ------------------------------------------------------------------ 4
    print("security monitor summary:")
    for key, value in security.monitor.summary().items():
        print(f"  {key}: {value}")
    print()

    # ------------------------------------------------------------------ 5
    # The same platform, workload and attack mix as a registered scenario,
    # through the unified pipeline: one call from scenario name to report.
    result = Experiment.from_scenario("paper_baseline").run()
    campaign = result.campaign["summary"]
    print("Experiment('paper_baseline').run():")
    print(f"  workload final cycle : {result.workload['final_cycle']}")
    print(f"  workload alerts      : {result.alerts['total']}")
    print(f"  attacks prevented    : {campaign['prevented']}/{campaign['attacks']}")
    print(f"  attacks detected     : {campaign['detected']}/{campaign['attacks']}")
    assert campaign["detected"] == campaign["attacks"]


if __name__ == "__main__":
    main()
