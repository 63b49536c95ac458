"""Tests for the synthetic workload generators."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.soc.processor import OperationKind
from repro.soc.system import SoCConfig
from repro.workloads.generators import (
    SyntheticWorkloadConfig,
    SyntheticWorkloadGenerator,
    make_uniform_programs,
)


def _memory_operations(program) -> int:
    return sum(1 for op in program.operations if op.is_memory_access)


class TestSyntheticGenerator:
    def test_determinism(self):
        generator = SyntheticWorkloadGenerator()
        cfg = SyntheticWorkloadConfig(seed=5, n_operations=100)
        a = generator.generate(cfg)
        b = generator.generate(cfg)
        assert [op.kind for op in a.operations] == [op.kind for op in b.operations]
        assert [op.address for op in a.operations] == [op.address for op in b.operations]

    def test_communication_ratio_respected(self):
        generator = SyntheticWorkloadGenerator()
        cfg = SyntheticWorkloadConfig(n_operations=2000, communication_ratio=0.3, seed=2)
        program = generator.generate(cfg)
        ratio = _memory_operations(program) / len(program)
        assert 0.25 < ratio < 0.35

    def test_extreme_ratios(self):
        generator = SyntheticWorkloadGenerator()
        all_compute = generator.generate(
            SyntheticWorkloadConfig(n_operations=50, communication_ratio=0.0)
        )
        assert _memory_operations(all_compute) == 0
        all_memory = generator.generate(
            SyntheticWorkloadConfig(n_operations=50, communication_ratio=1.0)
        )
        assert _memory_operations(all_memory) == 50

    def test_external_share_respected(self):
        soc = SoCConfig()
        generator = SyntheticWorkloadGenerator(soc)
        cfg = SyntheticWorkloadConfig(
            n_operations=2000, communication_ratio=1.0, external_share=0.7, seed=3
        )
        program = generator.generate(cfg)
        external = sum(
            1 for op in program.operations
            if op.is_memory_access and op.address >= soc.ddr_base
        )
        share = external / _memory_operations(program)
        assert 0.63 < share < 0.77

    def test_addresses_stay_inside_regions(self):
        soc = SoCConfig()
        generator = SyntheticWorkloadGenerator(soc)
        cfg = SyntheticWorkloadConfig(n_operations=500, communication_ratio=1.0,
                                      external_share=0.5, ip_share_of_internal=0.3, seed=9)
        program = generator.generate(cfg)
        for op in program.operations:
            if not op.is_memory_access:
                continue
            end = op.address + op.width * op.burst_length
            in_bram = soc.bram_base <= op.address and end <= soc.bram_base + soc.bram_size
            in_ip = soc.ip_regs_base <= op.address and end <= soc.ip_regs_base + 4 * soc.ip_n_registers
            in_ddr = soc.ddr_base <= op.address and end <= soc.ddr_base + soc.ddr_size
            assert in_bram or in_ip or in_ddr

    def test_validation(self):
        with pytest.raises(ValueError):
            SyntheticWorkloadConfig(n_operations=0).validate()
        with pytest.raises(ValueError):
            SyntheticWorkloadConfig(communication_ratio=1.5).validate()
        with pytest.raises(ValueError):
            SyntheticWorkloadConfig(width=3).validate()

    def test_per_cpu_programs_are_decorrelated(self):
        generator = SyntheticWorkloadGenerator()
        cfg = SyntheticWorkloadConfig(n_operations=100, communication_ratio=1.0, seed=1)
        programs = generator.generate_per_cpu(cfg, ["cpu0", "cpu1"])
        addresses_0 = [op.address for op in programs["cpu0"].operations]
        addresses_1 = [op.address for op in programs["cpu1"].operations]
        assert addresses_0 != addresses_1

    def test_make_uniform_programs(self):
        programs = make_uniform_programs(SoCConfig(), ["cpu0", "cpu1", "cpu2"], n_operations=20)
        assert set(programs) == {"cpu0", "cpu1", "cpu2"}
        assert all(len(p) == 20 for p in programs.values())

    @given(
        st.floats(min_value=0.0, max_value=1.0),
        st.floats(min_value=0.0, max_value=1.0),
        st.integers(min_value=1, max_value=200),
    )
    @settings(max_examples=20, deadline=None)
    def test_generator_never_produces_invalid_operations(self, comm, ext, n_ops):
        generator = SyntheticWorkloadGenerator()
        cfg = SyntheticWorkloadConfig(
            n_operations=n_ops, communication_ratio=comm, external_share=ext, seed=11
        )
        program = generator.generate(cfg)
        assert len(program) == n_ops
        for op in program.operations:
            if op.kind is OperationKind.WRITE:
                assert op.data is not None and len(op.data) == op.width * op.burst_length
