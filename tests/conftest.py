"""Shared fixtures for the test suite.

The DAG generators and verification helpers live in the importable
:mod:`repro.testing` module (not here), so that benchmark scripts and
examples can use them too.
"""

from __future__ import annotations

import pytest

from repro.arch import ArchConfig
from repro.graphs import DAG
from repro.runner import cache as runner_cache
from repro.testing import make_chain_dag, make_random_dag, make_wide_dag


@pytest.fixture(autouse=True)
def _isolated_artifact_cache(tmp_path, monkeypatch):
    """Give every test a private artifact cache under its tmp dir.

    Keeps the suite dogfooding the content-addressed cache while
    guaranteeing no state leaks between tests (or into the user's
    ``~/.cache``).  Tests that need a specific cache call
    ``configure_cache`` themselves, which overrides this default.
    """
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "artifact-cache"))
    monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
    monkeypatch.setattr(runner_cache, "_default_cache", None)
    yield
    runner_cache._default_cache = None


@pytest.fixture
def tiny_config() -> ArchConfig:
    return ArchConfig(depth=2, banks=8, regs_per_bank=16)


@pytest.fixture
def small_config() -> ArchConfig:
    return ArchConfig(depth=3, banks=16, regs_per_bank=32)


@pytest.fixture
def spilly_config() -> ArchConfig:
    """Configuration small enough to force register spilling."""
    return ArchConfig(depth=2, banks=8, regs_per_bank=4)


@pytest.fixture
def random_dag() -> DAG:
    return make_random_dag(seed=11)


@pytest.fixture
def chain_dag() -> DAG:
    return make_chain_dag()


@pytest.fixture
def wide_dag() -> DAG:
    return make_wide_dag()
