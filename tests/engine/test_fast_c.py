"""The C kernel library: how it is built, cached, checked and loaded.

The kernels compile into a plain shared library in ``REPRO_FAST_CACHE``
with one compiler call and load through cffi's ABI mode.  These tests pin
the cache discipline (one library, no build directory left behind, no
second compile), the signature guard that ABI mode needs, and that a
build never pulls setuptools into the process.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.core.config import MclConfig
from repro.engine import fast_c
from repro.engine.batched import ParticleStack

pytestmark = pytest.mark.usefixtures("fast_backend")  # skips without cffi or cc


@pytest.fixture
def cache(tmp_path, monkeypatch):
    directory = tmp_path / "cache"
    monkeypatch.setenv("REPRO_FAST_CACHE", str(directory))
    return directory


def test_cold_build_leaves_one_library_and_no_build_directory(cache):
    provider = fast_c.CProvider()
    entries = sorted(cache.iterdir())
    assert len(entries) == 1, entries
    assert entries[0].suffix == ".so" and entries[0].is_file()
    # The loaded library computes: the ESS of a uniform row is exactly N
    # (N = 16, so every weight, square and sum is exact).
    stack = ParticleStack(MclConfig(particle_count=16), rows=3, provider=provider)
    stack.w64[:] = 1.0 / 16
    assert provider.bind(stack).ess(np.array([2, 0])).tolist() == [16.0, 16.0]


def test_second_provider_in_the_same_cache_spawns_no_compiler(cache, monkeypatch):
    fast_c.CProvider()

    def no_compiler(*args, **kwargs):
        raise AssertionError(f"compiler spawned: {args}")

    monkeypatch.setattr(fast_c.subprocess, "run", no_compiler)
    fast_c.CProvider()


def test_failed_compile_leaves_no_library_and_no_build_directory(cache, monkeypatch):
    monkeypatch.setenv("CC", "false")
    with pytest.raises(RuntimeError, match="exited 1"):
        fast_c.CProvider()
    assert list(cache.iterdir()) == []


def test_drifted_declaration_fails_the_build(cache, monkeypatch):
    """A declaration that no longer matches its definition must stop the
    build: ABI mode would otherwise pass wrong arguments silently."""
    drifted = fast_c.C_DECLARATIONS.replace(
        "void stage_ess(const double *, const int64_t *, int64_t,",
        "void stage_ess(const double *, const int64_t *, int32_t,",
    )
    assert drifted != fast_c.C_DECLARATIONS
    monkeypatch.setattr(fast_c, "C_DECLARATIONS", drifted)
    with pytest.raises(RuntimeError, match="conflicting types for .stage_ess"):
        fast_c.CProvider()
    assert list(cache.iterdir()) == []


def _python(code: str, **popen) -> subprocess.Popen:
    """A fresh interpreter running ``code`` against this checkout."""
    src = Path(fast_c.__file__).resolve().parents[2]
    env = dict(os.environ, PYTHONPATH=str(src))
    return subprocess.Popen([sys.executable, "-c", code], env=env, **popen)


def test_concurrent_cold_builds_publish_one_library(cache):
    """Processes racing to build into one cold cache all load the kernels
    and leave exactly one library behind."""
    build = "from repro.engine.fast_c import CProvider; CProvider()"
    racers = [_python(build) for _ in range(3)]
    assert [racer.wait(timeout=120) for racer in racers] == [0, 0, 0]
    entries = sorted(cache.iterdir())
    assert len(entries) == 1 and entries[0].suffix == ".so", entries


def test_cold_build_imports_no_setuptools(cache):
    """A fresh interpreter compiles and loads the library without
    setuptools or distutils (startup hooks such as ``_distutils_hack``
    are not those packages)."""
    probe = (
        "import sys\n"
        "from repro.engine.fast_c import CProvider\n"
        "CProvider()\n"
        "print(sorted(m for m in sys.modules"
        " if m.split('.')[0] in ('setuptools', 'distutils')))\n"
    )
    process = _python(probe, stdout=subprocess.PIPE, text=True)
    out, _ = process.communicate(timeout=120)
    assert process.returncode == 0
    assert out.strip() == "[]"
    assert len(list(cache.glob("*.so"))) == 1
