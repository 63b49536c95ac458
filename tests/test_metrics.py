"""Tests for the area model (Table I), the latency model (Table II) and the
execution-overhead analysis."""

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import Experiment
from repro.core.constants import (
    CONFIDENTIALITY_CORE_CYCLES,
    INTEGRITY_CORE_CYCLES,
    SECURITY_BUILDER_CYCLES,
)
from repro.metrics.area import (
    AreaModel,
    PAPER_REFERENCE_LF_COUNT,
    PAPER_TABLE1,
    generate_table1,
)
from repro.metrics.latency import LatencyModel, PAPER_TABLE2, generate_table2
from repro.metrics.resources import ResourceVector
from repro.scenarios import WorkloadSpec, get_scenario
from repro.soc.processor import MemoryOperation, ProcessorProgram

from tests.conftest import figure1_spec


class TestResourceVector:
    def test_arithmetic(self):
        a = ResourceVector(10, 20, 30, 1)
        b = ResourceVector(1, 2, 3, 0)
        assert (a + b).slice_registers == 11
        assert (a - b).slice_luts == 18
        assert (a * 2).lut_ff_pairs == 60
        assert (2 * a).brams == 2

    def test_overhead_vs(self):
        base = ResourceVector(100, 100, 100, 10)
        grown = ResourceVector(110, 150, 100, 10)
        overhead = grown.overhead_vs(base)
        assert overhead["slice_registers"] == pytest.approx(0.10)
        assert overhead["slice_luts"] == pytest.approx(0.50)
        assert overhead["brams"] == 0.0

    def test_rounded_and_dict(self):
        vec = ResourceVector(1.4, 2.6, 3.5, 0.2)
        rounded = vec.rounded()
        assert rounded.slice_registers == 1 and rounded.slice_luts == 3
        assert set(vec.as_dict()) == set(ResourceVector.FIELDS)

    def test_total(self):
        total = ResourceVector.total([ResourceVector(1, 1, 1, 1)] * 3)
        assert total.slice_registers == 3


class TestAreaModel:
    def test_reference_configuration_reproduces_paper_totals_exactly(self):
        model = AreaModel()
        protected = model.platform_with_firewalls(n_local_firewalls=PAPER_REFERENCE_LF_COUNT)
        paper = PAPER_TABLE1["generic_with_firewalls"]
        assert protected.rounded().slice_registers == paper.slice_registers
        assert protected.rounded().slice_luts == paper.slice_luts
        assert protected.rounded().lut_ff_pairs == paper.lut_ff_pairs
        assert protected.rounded().brams == paper.brams

    def test_baseline_is_paper_baseline(self):
        assert AreaModel().platform_without_firewalls() == PAPER_TABLE1["generic_without_firewalls"]

    def test_lcf_dominated_by_crypto_cores(self):
        # The paper: "about 90% of Local Ciphering Firewall area" is CC + IC.
        assert AreaModel().lcf_component_share() == pytest.approx(0.90, rel=0.05)

    def test_local_firewall_cost_is_small_compared_to_lcf(self):
        model = AreaModel()
        lf = model.local_firewall_area()
        lcf = model.ciphering_firewall_area()
        assert lf.slice_luts < 0.2 * lcf.slice_luts

    def test_area_scales_with_number_of_rules(self):
        # The paper: "a more aggressive security policy will lead to a larger
        # cost in terms of area".
        model = AreaModel()
        small = model.local_firewall_area(n_rules=8)
        large = model.local_firewall_area(n_rules=64)
        assert large.slice_luts > small.slice_luts
        assert large.slice_registers > small.slice_registers
        rule_counts = [4, 8, 16, 32, 64, 128]
        lf_luts = [model.local_firewall_area(n_rules=n).slice_luts for n in rule_counts]
        platform_luts = [
            model.platform_with_firewalls(
                n_local_firewalls=PAPER_REFERENCE_LF_COUNT, rules_per_local_firewall=n
            ).slice_luts
            for n in rule_counts
        ]
        assert lf_luts == sorted(lf_luts) and lf_luts[-1] > lf_luts[0]
        assert platform_luts == sorted(platform_luts)

    def test_area_scales_with_number_of_firewalls(self):
        model = AreaModel()
        few = model.platform_with_firewalls(n_local_firewalls=2)
        many = model.platform_with_firewalls(n_local_firewalls=8)
        assert many.slice_luts > few.slice_luts
        luts = [
            model.platform_with_firewalls(n_local_firewalls=n).slice_luts
            for n in (2, 4, PAPER_REFERENCE_LF_COUNT, 8, 12)
        ]
        assert luts == sorted(luts)

    def test_disabling_integrity_core_reduces_area(self):
        model = AreaModel()
        with_ic = model.ciphering_firewall_area(with_integrity=True)
        without_ic = model.ciphering_firewall_area(with_integrity=False)
        assert without_ic.slice_registers < with_ic.slice_registers

    def test_integration_overhead_is_nonnegative(self):
        overhead = AreaModel().integration_overhead_per_firewall
        assert all(value >= 0 for value in overhead.as_dict().values())

    def test_platform_area_from_secured(self, secured):
        _, security = secured
        model = AreaModel()
        area = model.platform_area_from_secured(security)
        baseline = model.platform_without_firewalls()
        assert area.slice_luts > baseline.slice_luts
        assert area.brams >= baseline.brams

    def test_generate_table1_layout(self):
        rows = generate_table1()
        labels = [row.label for row in rows]
        assert labels[0].startswith("Generic w/o")
        assert labels[1].startswith("Generic w/")
        assert any("CC" in label for label in labels)
        assert rows[1].overhead_percent is not None
        assert rows[1].overhead_percent["brams"] == pytest.approx(18.87, abs=0.05)

    @given(st.integers(min_value=0, max_value=12), st.integers(min_value=1, max_value=128))
    @settings(max_examples=25, deadline=None)
    def test_model_is_monotone_in_firewalls_and_rules(self, n_firewalls, n_rules):
        model = AreaModel()
        area = model.platform_with_firewalls(
            n_local_firewalls=n_firewalls, rules_per_local_firewall=n_rules
        )
        assert all(value >= 0 for value in area.as_dict().values())
        more = model.platform_with_firewalls(
            n_local_firewalls=n_firewalls + 1, rules_per_local_firewall=n_rules
        )
        assert more.slice_luts >= area.slice_luts


class TestLatencyModel:
    def test_pipeline_throughput(self):
        model = LatencyModel(clock_hz=100e6)
        # 128 bits every 11 cycles at 100 MHz.
        assert model.pipeline_throughput_mbps(128, 11) == pytest.approx(1163.6, rel=0.01)
        with pytest.raises(ValueError):
            model.pipeline_throughput_mbps(128, 0)

    def test_invalid_clock(self):
        with pytest.raises(ValueError):
            LatencyModel(clock_hz=0)

    def test_paper_table2_constants(self):
        assert PAPER_TABLE2["SB (LF/LCF)"][0] == 12
        assert PAPER_TABLE2["CC"] == (11, 450.0)
        assert PAPER_TABLE2["IC"] == (20, 131.0)

    def test_generate_table2_from_live_platform(self, secured):
        system, security = secured
        cfg = system.config
        program = ProcessorProgram([
            MemoryOperation.write(cfg.ddr_base + 0x40, bytes(range(32))),
            MemoryOperation.read(cfg.ddr_base + 0x40, width=4, burst_length=8),
            MemoryOperation.read(cfg.bram_base, width=4),
        ])
        system.processors["cpu0"].load_program(program)
        system.processors["cpu0"].start()
        system.run()

        rows = generate_table2(
            [fw for fw in security.all_firewalls if fw is not security.ciphering_firewall],
            security.ciphering_firewall,
        )
        by_module = {row.module: row for row in rows}
        assert by_module["SB (LF/LCF)"].measured_cycles == SECURITY_BUILDER_CYCLES
        assert by_module["CC"].measured_cycles == CONFIDENTIALITY_CORE_CYCLES
        assert by_module["IC"].measured_cycles == INTEGRITY_CORE_CYCLES
        assert all(row.cycles_match_paper for row in rows)
        assert by_module["CC"].operations > 0
        assert by_module["IC"].operations > 0
        assert by_module["CC"].ideal_throughput_mbps > by_module["IC"].ideal_throughput_mbps
        assert by_module["CC"].paper_throughput_mbps > by_module["IC"].paper_throughput_mbps
        # A protected external read pays the Confidentiality Core, an
        # internal one only its Security Builders.
        reads = [t for t in system.processors["cpu0"].transactions if t.is_read]
        assert [t.address >= cfg.ddr_base for t in reads] == [True, False]
        assert ["confidentiality_core" in t.latency_breakdown for t in reads] == [True, False]


class TestExecutionOverhead:
    """Section V's execution-time overhead: the makespan of a protected
    ``Experiment`` over that of the unprotected run of the same spec."""

    @staticmethod
    def run_both(spec, **workload):
        """The unprotected and the protected run of ``spec`` under ``workload``."""
        spec = replace(spec, workload=WorkloadSpec(**workload))
        return [
            Experiment.from_spec(spec).no_attacks().protected(protected).run()
            for protected in (False, True)
        ]

    @classmethod
    def overhead_percent(cls, spec, **workload):
        baseline, protected = cls.run_both(spec, **workload)
        return (protected.workload["makespan"] / baseline.workload["makespan"] - 1.0) * 100.0

    def test_protection_adds_overhead(self):
        baseline, protected = self.run_both(
            figure1_spec(), n_operations=60, communication_ratio=0.6, external_share=0.3,
            internal_working_set=4096, external_working_set=1024, seed=3,
        )
        assert protected.workload["makespan"] > baseline.workload["makespan"] > 0
        assert baseline.security is None
        firewalls = protected.security["firewalls"].values()
        assert sum(fw["sb_cycles_charged"] for fw in firewalls) > 0

    # Section V: the overhead "depends on the percentage of computation time
    # versus communication time" and on "the percentage of internal
    # communication versus external communication".  Each case sweeps one
    # axis through (communication ratio, external share) points on cpu0-2.
    @pytest.mark.parametrize(
        "spec, points, internal_working_set, external_working_set, seed",
        [
            (figure1_spec(), ((0.6, 0.05), (0.6, 0.8)), 4096, 1024, 3),
            (get_scenario("paper_baseline"), ((0.2, 0.4), (0.5, 0.4), (0.8, 0.4)), 2048, 2048, 11),
            (get_scenario("paper_baseline"), ((0.6, 0.1), (0.6, 0.4), (0.6, 0.8)), 2048, 2048, 23),
        ],
        ids=["figure1", "communication_ratio", "external_share"],
    )
    def test_overhead_grows_with_external_share(
        self, spec, points, internal_working_set, external_working_set, seed
    ):
        overheads = [
            self.overhead_percent(
                spec,
                n_operations=60,
                communication_ratio=ratio,
                external_share=share,
                internal_working_set=internal_working_set,
                external_working_set=external_working_set,
                seed=seed,
            )
            for ratio, share in points
        ]
        assert all(value >= 0.0 for value in overheads)
        assert overheads == sorted(overheads)
        assert overheads[-1] > overheads[0]
