"""Shared fixtures of the benchmark harness.

Scale control
-------------
``REPRO_SCALE`` selects the evaluation protocol of the accuracy benches:

* ``smoke``  — 1 sequence x 1 seed, reduced particle grid (CI sanity),
* ``quick``  — 3 sequences x 2 seeds, full particle grid (default),
* ``paper``  — the full 6 sequences x 6 seeds protocol of the paper.

``REPRO_BACKEND`` selects the filter backend the sweeps execute through
(the library default, ``fast``, unless set; every backend produces
identical results, so the choice only moves wall-clock).

The expensive accuracy sweep is executed once per session (inside the
Fig. 6/7 bench) and shared with the Fig. 8 bench through the session
cache below.
"""

from __future__ import annotations

import os

import pytest

from repro.core.config import PAPER_PARTICLE_COUNTS
from repro.dataset.sequences import load_all_sequences
from repro.engine.backend import DEFAULT_BACKEND
from repro.eval.aggregate import SweepProtocol
from repro.maps.maze import build_drone_maze_world


def current_scale() -> str:
    return os.environ.get("REPRO_SCALE", "quick").lower()


def current_backend() -> str:
    return os.environ.get("REPRO_BACKEND", DEFAULT_BACKEND).lower()


def accuracy_protocol() -> SweepProtocol:
    scale = current_scale()
    if scale == "smoke":
        return SweepProtocol(sequence_count=1, seeds=(0,))
    if scale == "paper":
        return SweepProtocol(sequence_count=6, seeds=(0, 1, 2, 3, 4, 5))
    return SweepProtocol(sequence_count=3, seeds=(0, 1))


def particle_grid() -> list[int]:
    if current_scale() == "smoke":
        return [64, 1024, 4096]
    return list(PAPER_PARTICLE_COUNTS)


@pytest.fixture(scope="session")
def world():
    return build_drone_maze_world()


@pytest.fixture(scope="session")
def sequences(world):
    return load_all_sequences(world)


#: Session-wide cache: the Fig. 6/7 sweep result, reused by Fig. 8.
_SESSION_CACHE: dict = {}


@pytest.fixture(scope="session")
def sweep_cache():
    return _SESSION_CACHE
