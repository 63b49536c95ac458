"""Shared fixtures for the test suite.

Most tests run on the paper's Figure-1 platform with the geometry of
:func:`figure1_spec`, built by the scenario builder like every other
platform.  Its protected DDR windows are deliberately small so the
pure-Python crypto stays fast; all behavioural properties are independent of
the window size.
"""

from __future__ import annotations

import pytest

from repro.crypto import modes
from repro.scenarios import (
    MasterSpec,
    ScenarioBuilder,
    ScenarioSpec,
    SlaveSpec,
    TopologySpec,
    WindowSpec,
)


SMALL_WINDOW = 1024


def figure1_spec(window: int = SMALL_WINDOW, **overrides) -> ScenarioSpec:
    """The Figure-1 platform most tests run on.

    Three CPUs and a DMA share one bus with a 128 KiB BRAM at 0x0, a
    64-register dedicated IP at 0x4000_0000 and a 16 MiB DDR at 0x9000_0000
    whose bottom holds a ``window``-byte ciphered+authenticated window and a
    ``window``-byte ciphered-only one.  cpu2 and the DMA get no rule for the
    IP's registers.  ``overrides`` replace :class:`ScenarioSpec` fields.
    """
    masters = (
        MasterSpec("cpu0", accessible=("bram", "ddr", "ip0")),
        MasterSpec("cpu1", accessible=("bram", "ddr", "ip0")),
        MasterSpec("cpu2", accessible=("bram", "ddr")),
        MasterSpec("dma", kind="dma", accessible=("bram", "ddr")),
    )
    slaves = (
        SlaveSpec("bram", "bram", base=0x0000_0000, size=128 * 1024),
        SlaveSpec(
            "ddr", "ddr", base=0x9000_0000, size=16 * 1024 * 1024,
            windows=(WindowSpec("secure", window), WindowSpec("cipher_only", window)),
        ),
        SlaveSpec("ip0", "ip", base=0x4000_0000, n_registers=64),
    )
    params = dict(
        name="figure1",
        description="3 CPUs + DMA, BRAM + dedicated IP + DDR (Figure 1)",
        topology=TopologySpec(masters=masters, slaves=slaves),
        key_seed=0x5EC0_0001,
        quarantine_after=3,
    )
    params.update(overrides)
    return ScenarioSpec(**params)


def build_figure1(protected: bool = True, **overrides):
    """``(system, security_or_None)`` for :func:`figure1_spec`."""
    built = ScenarioBuilder(figure1_spec(**overrides)).build(protected)
    return built.system, built.security


@pytest.fixture
def plain_platform():
    """An unprotected Figure-1 platform."""
    return build_figure1(protected=False)[0]


@pytest.fixture
def secured():
    """A protected Figure-1 platform: returns (system, security)."""
    return build_figure1()


@pytest.fixture
def platform_factory():
    """Factory building fresh (system, security-or-None) pairs per call."""
    return build_figure1


@pytest.fixture
def built_specs(monkeypatch):
    """The spec name of every :class:`ScenarioBuilder` constructed in the
    test, in order."""
    names = []
    init = ScenarioBuilder.__init__

    def counting_init(self, spec, **kwargs):
        names.append(spec.name)
        init(self, spec, **kwargs)

    monkeypatch.setattr(ScenarioBuilder, "__init__", counting_init)
    return names


@pytest.fixture
def cold_keystream_memo(monkeypatch):
    """An empty process-wide keystream memo for the test (restored after it),
    so every counter block the test enciphers reaches ``encrypt_block`` no
    matter what earlier tests warmed.  Returns the memo."""
    memo = {}
    monkeypatch.setattr(modes, "_KEYSTREAM_MEMO", memo)
    return memo
