"""Atomic filesystem publication primitives (tmp + rename / link).

Every on-disk cache in this repository — campaign manifests and
segment indexes, the scenario ``.npz`` cache, serve-layer snapshots
written by callers — has the same durability need: a reader (or a
concurrently spawning worker) must observe either a *complete* file or
*no* file, never a torn one.
These helpers are the one implementation of that pattern:

* :func:`write_scratch` — write bytes to a unique ``*.tmp`` sibling
  (``mkstemp``-unique, fsynced, umask-respecting permissions);
* :func:`atomic_write` — scratch + ``os.replace``: last racing writer
  wins, which is harmless wherever equal keys imply equal bytes;
* :func:`atomic_create` — scratch + ``os.link``: create-if-absent that
  stays atomic even on shared network mounts;
* :func:`atomic_binary_writer` — a context manager handing out a scratch
  file handle, publishing on clean exit — for writers that stream
  (``np.savez_compressed``) instead of producing one ``bytes`` blob.

The ``*.tmp`` suffix is part of the contract: sweepers (e.g.
``CampaignStore.recover``) identify abandoned scratch files by it.
"""

from __future__ import annotations

import contextlib
import os
import tempfile
from pathlib import Path
from typing import IO, Iterator


def write_scratch(path: Path, data: bytes) -> str:
    """Write ``data`` to a unique tmp sibling of ``path``; return its name.

    The tmp name is unique per writer (``mkstemp``), so two processes
    racing to publish the same file never share a scratch file.  mkstemp
    creates 0600 scratch files; umask-derived permissions are restored so
    stores shared between users stay readable.
    """
    with _scratch_handle(path) as (handle, tmp_name):
        handle.write(data)
    return tmp_name


@contextlib.contextmanager
def _scratch_handle(path: Path) -> Iterator[tuple[IO[bytes], str]]:
    """Open a unique, umask-respecting ``*.tmp`` sibling for writing.

    Flushes and fsyncs on clean exit; the caller owns the scratch file
    afterwards (publish or unlink).
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(
        dir=path.parent, prefix=f"{path.name}.", suffix=".tmp"
    )
    umask = os.umask(0)
    os.umask(umask)
    os.fchmod(fd, 0o666 & ~umask)
    with os.fdopen(fd, "wb") as handle:
        yield handle, tmp_name
        handle.flush()
        os.fsync(handle.fileno())


def atomic_write(path: Path, data: bytes) -> None:
    """Write ``data`` to ``path`` atomically (unique tmp + rename).

    ``os.replace`` makes whichever racing writer lands last win —
    harmless wherever equal paths imply equal bytes (content-addressed
    caches and stores).
    """
    tmp_name = write_scratch(path, data)
    try:
        os.replace(tmp_name, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp_name)
        raise


def atomic_create(path: Path, data: bytes) -> bool:
    """Publish ``data`` at ``path`` only if nothing exists there yet.

    Uses ``os.link`` from a unique scratch file — an atomic
    create-if-absent even on shared network mounts — so two processes
    racing to create the same file cannot both succeed.  Returns True if
    this caller published, False if ``path`` already existed (complete:
    files published this way are never partial).
    """
    tmp_name = write_scratch(path, data)
    try:
        os.link(tmp_name, path)
        return True
    except FileExistsError:
        return False
    finally:
        with contextlib.suppress(OSError):
            os.unlink(tmp_name)


@contextlib.contextmanager
def atomic_binary_writer(path: str | Path) -> Iterator[IO[bytes]]:
    """Yield a scratch handle; publish it at ``path`` on clean exit.

    For streaming writers (``np.savez_compressed`` and friends) that
    want a file object rather than assembling one ``bytes`` payload.  On
    any exception the scratch file is removed and nothing is published,
    so readers can never observe a torn file.
    """
    path = Path(path)
    tmp_name: str | None = None
    try:
        with _scratch_handle(path) as (handle, tmp_name):
            yield handle
        os.replace(tmp_name, path)
        tmp_name = None
    finally:
        if tmp_name is not None:
            with contextlib.suppress(OSError):
                os.unlink(tmp_name)
