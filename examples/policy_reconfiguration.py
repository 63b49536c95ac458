#!/usr/bin/env python3
"""Runtime reconfiguration of security policies (the paper's perspectives).

The paper's conclusion announces: "We also plan to integrate reconfiguration
of security services (i.e. modification of security policies) to counter some
attacks against the system."  This example exercises that extension:

1. cpu1 is allowed read/write access to the shared BRAM mailbox,
2. a burst of violations from cpu1 (it has been hijacked) makes the security
   manager quarantine it automatically -- all further traffic from cpu1 is
   dropped at its own Local Firewall,
3. the operator re-provisions cpu1 and the manager releases the quarantine,
   but also *reconfigures* the policy so cpu1 is now read-only on the mailbox,
4. the reaction latency (cycles between detection and countermeasure) is
   reported, illustrating the "react as fast as possible" requirement.

Run with:  python examples/policy_reconfiguration.py
"""

from dataclasses import replace

from repro.api import InMemorySink, attach_instrumentation, EventBus
from repro.core.policy import default_policies
from repro.scenarios import ScenarioBuilder, get_scenario
from repro.soc.transaction import Step, TransactionStatus


def main() -> None:
    # The Figure-1 platform, quarantining a master after three violations.
    spec = replace(get_scenario("paper_baseline"), quarantine_after=3)
    built = ScenarioBuilder(spec).build()
    system, security = built.system, built.security
    # Subscribe an in-memory sink: alerts, quarantines and policy rewrites
    # arrive as structured events instead of being dug out of the monitor.
    events = InMemorySink()
    attach_instrumentation(system, security, EventBus([events]))
    cfg = system.config
    manager = security.manager
    mailbox = cfg.bram_base + 0x1000

    # 1. Normal operation: cpu1 writes the mailbox.
    txn = system.issue(Step("cpu1", "write", mailbox, data=b"\x01\x02\x03\x04"))
    print("normal mailbox write by cpu1 :", txn.status.value)

    # 2. cpu1 is hijacked: it repeatedly probes the IP's key registers with
    #    byte accesses (format violation) -- three strikes and it is out.
    print("\n-- cpu1 starts misbehaving --")
    for attempt in range(3):
        probe = system.issue(Step("cpu1", "write", cfg.ip_regs_base, width=1, data=b"\xff"))
        print(f"  malicious access #{attempt + 1}: {probe.status.value}")
    firewall = security.master_firewalls["cpu1"]
    print("cpu1 quarantined            :", firewall.quarantined)
    print("reaction latency (cycles)   :", manager.reaction_latency())

    # Even formerly-legitimate traffic is now stopped at cpu1's interface.
    txn = system.issue(Step("cpu1", "write", mailbox, data=b"\x05\x06\x07\x08"))
    print("mailbox write while quarantined:", txn.status.value)
    assert txn.status is TransactionStatus.BLOCKED_AT_MASTER

    # 3. Operator re-provisions cpu1: released, but demoted to read-only.
    print("\n-- operator re-provisions cpu1 --")
    manager.release("cpu1")
    readonly = default_policies()["internal_readonly"]
    manager.reconfigure_policy("lf_cpu1", cfg.bram_base, readonly)
    txn_read = system.issue(Step("cpu1", "read", mailbox))
    txn_write = system.issue(Step("cpu1", "write", mailbox, data=b"\x09\x0a\x0b\x0c"))
    print("mailbox read after release  :", txn_read.status.value)
    print("mailbox write after demotion:", txn_write.status.value)
    assert txn_read.status is TransactionStatus.COMPLETED
    assert txn_write.status is TransactionStatus.BLOCKED_AT_MASTER

    # 4. Full audit trail, straight from the instrumentation event bus.
    print("\nsecurity events (reaction + reconfiguration stream):")
    for event in events.events:
        if event.kind.startswith("security.rea") or event.kind == "security.reconfiguration":
            data = event.data
            print(f"  cycle {event.cycle:>6}: {data.get('reaction', event.kind):<20} "
                  f"target={data.get('target', data.get('master', '?'))} {data.get('detail', '')}")
    print("\nevent counts:", {k: v for k, v in sorted(events.counts.items())})
    print("alerts by violation type:", security.monitor.summary()["by_violation"])


if __name__ == "__main__":
    main()
