"""Shared fixtures for the test suite.

The secured-platform fixtures use deliberately small protected windows so the
pure-Python crypto stays fast; all behavioural properties are independent of
the window size.
"""

from __future__ import annotations

import pytest

from repro.core.manager import ReactionPolicy
from repro.core.secure import SecurityConfiguration, secure_reference_platform
from repro.soc.system import SoCConfig, build_reference_platform


SMALL_SECURE_WINDOW = 1024
SMALL_CIPHER_ONLY_WINDOW = 1024


def make_soc_config(**overrides) -> SoCConfig:
    """A reference SoC configuration, optionally overridden per test."""
    return SoCConfig(**overrides)


def make_security_config(**overrides) -> SecurityConfiguration:
    """A small-window security configuration for fast tests."""
    params = dict(
        ddr_secure_size=SMALL_SECURE_WINDOW,
        ddr_cipher_only_size=SMALL_CIPHER_ONLY_WINDOW,
        reaction=ReactionPolicy(quarantine_after=3),
    )
    params.update(overrides)
    return SecurityConfiguration(**params)


@pytest.fixture
def soc_config() -> SoCConfig:
    return make_soc_config()


@pytest.fixture
def security_config() -> SecurityConfiguration:
    return make_security_config()


@pytest.fixture
def plain_platform(soc_config):
    """An unprotected reference platform."""
    return build_reference_platform(soc_config)


@pytest.fixture
def secured(soc_config, security_config):
    """A protected reference platform: returns (system, security)."""
    system = build_reference_platform(soc_config)
    security = secure_reference_platform(system, security_config)
    return system, security


@pytest.fixture
def platform_factory(soc_config, security_config):
    """Factory building fresh (system, security-or-None) pairs per call."""

    def factory(protected: bool = True):
        system = build_reference_platform(make_soc_config())
        if not protected:
            return system, None
        return system, secure_reference_platform(system, make_security_config())

    return factory
