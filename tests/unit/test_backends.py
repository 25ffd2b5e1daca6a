"""Unit tests for engine backend selection (the registry in repro.sim.backends).

These run on every host: the compiled backend's availability is either
read from the real extension or pinned with ``monkeypatch``.
"""

import pytest

from repro.config.system import SimConfig, SystemConfig
from repro.sim import backends
from repro.sim.backends import (
    BACKEND_ENV,
    ConfigError,
    build_engine,
    resolve_backend,
)
from repro.sim.compiled import CompiledEngine, is_available
from repro.sim.engine import Engine, SimulationError


def test_resolve_backend_env_override(monkeypatch):
    monkeypatch.delenv(BACKEND_ENV, raising=False)
    monkeypatch.setattr(backends, "compiled_available", lambda: True)
    assert resolve_backend("heap") == "heap"
    assert resolve_backend("compiled") == "compiled"
    monkeypatch.setenv(BACKEND_ENV, "compiled")
    assert resolve_backend("heap") == "compiled"
    monkeypatch.setenv(BACKEND_ENV, "heap")
    assert resolve_backend("compiled") == "heap"
    monkeypatch.setenv(BACKEND_ENV, "bogus")
    with pytest.raises(SimulationError):
        resolve_backend("heap")


def test_build_engine_types():
    assert type(build_engine("heap")) is Engine
    if is_available():
        assert type(build_engine("compiled")) is CompiledEngine


def test_sim_config_validates_backend():
    assert SimConfig().engine_backend == "heap"
    assert SimConfig(engine_backend="compiled").engine_backend == "compiled"
    with pytest.raises(ValueError):
        SimConfig(engine_backend="bogus")


def test_with_engine_backend_helper():
    config = SystemConfig(num_gpus=2)
    compiled = config.with_engine_backend("compiled")
    assert compiled.sim.engine_backend == "compiled"
    assert config.sim.engine_backend == "heap"
    assert compiled.num_gpus == 2


def test_ring_is_not_a_backend(monkeypatch):
    """The ring event core is gone: every selection route refuses it and
    names the two backends that remain."""
    monkeypatch.delenv(BACKEND_ENV, raising=False)
    with pytest.raises(ConfigError, match="heap, compiled"):
        SimConfig(engine_backend="ring")
    with pytest.raises(ConfigError, match="heap, compiled"):
        resolve_backend("ring")
    with pytest.raises(ConfigError, match="heap, compiled"):
        SystemConfig(num_gpus=2).with_engine_backend("ring")
    monkeypatch.setenv(BACKEND_ENV, "ring")
    with pytest.raises(ConfigError, match="heap, compiled"):
        resolve_backend("heap")
