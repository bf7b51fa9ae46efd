"""Fixtures for the store suites: legacy one-file-per-cell layouts.

Stores written before packed segments became the only write path keep
each cell as ``cells/<key>.json``.  Nothing under ``src/`` writes that
layout any more, and ``CampaignStore.recover`` folds it into segments,
so the suites read it from a committed store (``data/legacy_store``:
the four cells of the tiny two-world grid, written by the retired
file-per-cell writer) or lay it out with ``write_cell_files``.
"""

import shutil
from pathlib import Path

import pytest

from repro.eval.store import CampaignStore

LEGACY_STORE = Path(__file__).parent / "data" / "legacy_store"


def _write_cell_files(store: CampaignStore, cells: dict[str, bytes]) -> None:
    store.cells_dir.mkdir(parents=True, exist_ok=True)
    for key, data in cells.items():
        (store.cells_dir / f"{key}.json").write_bytes(data)


@pytest.fixture(scope="session")
def write_cell_files():
    """``write(store, {key: bytes})``: lay cells out as legacy cell files."""
    return _write_cell_files


@pytest.fixture(scope="session")
def legacy_cells() -> dict[str, bytes]:
    """The committed legacy store's cells, ``{key: bytes}``."""
    return {
        path.stem: path.read_bytes()
        for path in sorted((LEGACY_STORE / "cells").glob("*.json"))
    }


@pytest.fixture
def legacy_store(tmp_path) -> CampaignStore:
    """A writable copy of the committed legacy store (campaign ``legacy``)."""
    root = tmp_path / "legacy"
    shutil.copytree(LEGACY_STORE, root)
    return CampaignStore("legacy", root=root)
