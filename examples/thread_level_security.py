#!/usr/bin/env python3
"""Thread-specific security levels (the paper's final perspective).

"In this work, policies are defined using the address spaces, it can be
interesting to study the adaptation to thread-specific security where each
thread has its own security level." (paper, conclusion)

This example builds a small platform (one CPU, one BRAM) from a scenario
spec, where cpu0 runs two threads:

* thread 7 — the trusted key-management thread (clearance 2),
* thread 8 — an untrusted application thread (clearance 0),

and a Local Firewall whose checking modules include a thread-clearance check
requiring clearance 2 for the key vault region of the BRAM.  The same
address-based policy covers both threads;
only the clearance differs — and only the trusted thread's accesses go
through.  At the end the directory demotes the trusted thread (e.g. after a
detected compromise) and its next access is blocked too.

Run with:  python examples/thread_level_security.py
"""

from repro.api import EventBus, InMemorySink, attach_instrumentation
from repro.core.alerts import SecurityMonitor
from repro.core.checks import default_check_suite
from repro.core.local_firewall import LocalFirewall
from repro.core.policy import ConfigurationMemory, SecurityPolicy
from repro.core.thread_policy import ThreadClearanceCheck, ThreadSecurityDirectory
from repro.scenarios import MasterSpec, ScenarioBuilder, ScenarioSpec, SlaveSpec, TopologySpec
from repro.soc.processor import MemoryOperation, ProcessorProgram

KEY_VAULT_BASE = 0x2000
PUBLIC_BASE = 0x0000
REGION = 0x2000


SPEC = ScenarioSpec(
    name="thread_level",
    description="one CPU and one BRAM on a flat bus",
    topology=TopologySpec(
        masters=(MasterSpec("cpu0"),),
        slaves=(SlaveSpec("bram", "bram", base=0x0, size=0x8000),),
    ),
)


def main() -> None:
    # Built unprotected: the firewall below is the only one.
    built = ScenarioBuilder(SPEC).build(protected=False)
    sim = built.system.sim
    # Attach an event bus and every component publishes through it.
    events = InMemorySink()
    attach_instrumentation(built.system, bus=EventBus([events]))

    monitor = SecurityMonitor()
    monitor.event_bus = sim.event_bus
    rules = ConfigurationMemory("cfg_cpu0", capacity=4)
    rules.add(PUBLIC_BASE, REGION, SecurityPolicy(spi=1), label="public")
    rules.add(KEY_VAULT_BASE, REGION, SecurityPolicy(spi=2), label="key_vault")

    directory = ThreadSecurityDirectory(default_clearance=0)
    directory.set_clearance(7, 2)   # key-management thread
    directory.set_clearance(8, 0)   # application thread

    clearance = ThreadClearanceCheck(rules, directory, {KEY_VAULT_BASE: 2})
    firewall = LocalFirewall(
        sim, "lf_cpu0", rules, monitor=monitor,
        checks=[*default_check_suite(), clearance],
    )
    port = built.system.master_ports["cpu0"]
    port.attach_filter(firewall)

    program = ProcessorProgram([
        # trusted thread provisions a key into the vault and reads it back
        MemoryOperation.write(KEY_VAULT_BASE, b"\x10\x32\x54\x76", thread_id=7),
        MemoryOperation.read(KEY_VAULT_BASE, thread_id=7),
        # untrusted thread works in the public window...
        MemoryOperation.write(PUBLIC_BASE + 0x40, b"\xaa\xbb\xcc\xdd", thread_id=8),
        # ...but also tries to read the vault
        MemoryOperation.read(KEY_VAULT_BASE, thread_id=8),
    ], name="two_threads")
    cpu0 = built.system.processors["cpu0"]
    cpu0.load_program(program)
    cpu0.start()
    sim.run()

    labels = ["trusted write to vault", "trusted read of vault",
              "untrusted write to public", "untrusted read of vault"]
    for label, txn in zip(labels, cpu0.transactions):
        print(f"{label:<28}: {txn.status.value}")
    print("alerts so far               :", monitor.count())

    # The security manager later demotes the key thread (compromise suspected).
    print("\n-- thread 7 demoted to clearance 0 --")
    directory.set_clearance(7, 0)
    from repro.soc.transaction import BusOperation, BusTransaction

    txn = BusTransaction(master="cpu0", operation=BusOperation.READ,
                         address=KEY_VAULT_BASE, width=4)
    txn.annotations["thread_id"] = 7
    port.issue(txn, lambda t: None)
    sim.run()
    print("demoted thread reads vault  :", txn.status.value)
    print("total alerts                :", monitor.count())
    print("firewall summary            :", firewall.summary())
    print("clearance denials           :", clearance.denials)
    blocked = events.of_kind("txn.blocked")
    print("event-bus view              :", dict(sorted(events.counts.items())))
    print("blocked at interface        :",
          [f"cycle {e.cycle} {e.data['master']}@{e.data['address']:#x}" for e in blocked])


if __name__ == "__main__":
    main()
