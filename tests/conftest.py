"""Root test fixtures: isolate every session from the committed caches.

``REPRO_DATA_DIR`` is pointed at a per-session temporary directory so
tests can never mutate the committed ``data/sequences`` cache (or any
user-generated scenario cache).  The committed canonical sequences are
copied in read-only style — copied bytes, originals untouched — so tests
that replay them stay fast; everything else (scenario files, regenerated
sequences) lands in the tmpdir and vanishes with the session.
``REPRO_RESULTS_DIR`` is likewise redirected so tests never overwrite
committed benchmark reports under ``results/``.

The ``fast_backend`` fixture is the one place a test may skip for the
``fast`` backend: only when cffi, numpy's ``libnpyrandom.a`` (with its
``bitgen.h``) or a C compiler is missing, so that ``fast`` fell back to
the ``reference`` backend.
"""

from __future__ import annotations

import os
import shutil
from pathlib import Path

import pytest

_REPO_ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="session", autouse=True)
def _isolated_repro_dirs(tmp_path_factory):
    data_dir = tmp_path_factory.mktemp("repro-data")
    results_dir = tmp_path_factory.mktemp("repro-results")

    committed = _REPO_ROOT / "data" / "sequences"
    if committed.is_dir():
        target = data_dir / "sequences"
        target.mkdir(parents=True, exist_ok=True)
        for source in sorted(committed.glob("*.npz")):
            shutil.copy2(source, target / source.name)

    previous = {
        key: os.environ.get(key) for key in ("REPRO_DATA_DIR", "REPRO_RESULTS_DIR")
    }
    os.environ["REPRO_DATA_DIR"] = str(data_dir)
    os.environ["REPRO_RESULTS_DIR"] = str(results_dir)
    try:
        yield
    finally:
        for key, value in previous.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value


@pytest.fixture
def fast_backend():
    """The ``fast`` backend on its C kernels, skipping only when it fell
    back to ``reference`` because cffi, numpy's ``libnpyrandom.a`` or a
    C compiler is missing.

    With both present, a failed build raises ``ConfigurationError`` and
    fails the test: a broken C provider must never pass for an absent one.
    """
    from repro.engine import get_backend

    backend = get_backend("fast")
    if backend.name != "fast":
        pytest.skip(
            "the fast backend needs cffi, numpy's libnpyrandom.a and a C "
            "compiler; it fell back to reference"
        )
    return backend
