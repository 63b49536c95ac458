"""Experiment E3 -- paper Figure 1: the secured platform architecture.

Figure 1 is structural (it shows the platform topology and where the Local
Firewalls / Local Ciphering Firewall sit), so the reproduction criterion is
that the constructed platform has exactly the paper's structure:

* three processors, one internal shared memory, one external memory, one
  dedicated IP, all on one shared bus,
* a Local Firewall on every master and internal-slave interface,
* the Local Ciphering Firewall (and only it) on the external-memory path,
* the internal firewall structure (LFCB + SB + FI, plus CC + IC in the LCF).

The benchmark timing measures full platform construction + securing, which is
the fixed cost every experiment in this repository pays per run.
"""

from __future__ import annotations

from conftest import write_bench_json, write_result

from repro.analysis.report import ArchitectureReport
from repro.core.ciphering_firewall import LocalCipheringFirewall
from repro.core.local_firewall import LocalFirewall
from repro.scenarios import ScenarioBuilder, get_scenario


def build_secured():
    built = ScenarioBuilder(get_scenario("paper_baseline")).build()
    return built.system, built.security


def test_fig1_architecture(benchmark, results_dir):
    system, security = benchmark(build_secured)

    # Platform structure (paper section V: 3 MicroBlaze, BRAM, DDR, one IP).
    assert len(system.processors) == 3
    assert set(system.memories) == {"bram", "ddr"}
    assert set(system.ips) == {"ip0"}

    # Firewall placement: every master and internal slave gets an LF, the
    # external memory gets the LCF.
    assert set(security.master_firewalls) == {"cpu0", "cpu1", "cpu2", "dma"}
    assert set(security.slave_firewalls) == {"bram", "ip0"}
    assert isinstance(security.ciphering_firewall, LocalCipheringFirewall)
    for firewall in security.master_firewalls.values():
        assert isinstance(firewall, LocalFirewall)
        assert not isinstance(firewall, LocalCipheringFirewall)

    # Internal structure of each firewall (Figure 1's LF breakdown).
    sample = security.master_firewalls["cpu0"]
    assert sample.communication_block is not None
    assert sample.security_builder is not None
    assert sample.firewall_interface is not None
    lcf = security.ciphering_firewall
    assert lcf.confidentiality_core is not None
    assert lcf.integrity_core is not None

    report = ArchitectureReport(system.describe_topology())
    # Every interface of the platform carries a firewall.
    assert report.firewall_count() == len(system.master_ports) + len(system.slave_ports)

    rendered = report.render()
    rendered += "\n\nfirewall inventory:\n"
    for firewall in security.all_firewalls:
        kind = "LCF" if isinstance(firewall, LocalCipheringFirewall) else "LF"
        rendered += f"  {firewall.name:<12} ({kind}) guards {firewall.protected_ip}, " \
                    f"{len(firewall.config_memory)} policy rules\n"
    write_result(results_dir, "fig1_architecture.txt", rendered)
    write_bench_json(
        results_dir,
        "fig1_architecture",
        benchmark,
        processors=len(system.processors),
        firewalls=report.firewall_count(),
        master_firewalls=len(security.master_firewalls),
        slave_firewalls=len(security.slave_firewalls),
    )
