"""Append-only, atomic on-disk result store for sweep campaigns.

A campaign's results live under ``REPRO_RESULTS_DIR/campaigns/<name>/``:

* ``manifest.json`` — the declarative campaign spec, written once when
  the campaign starts; resumed runs must present an identical spec.
* ``segments/seg-NNNNNN.seg`` — append-only segment files of
  length-prefixed cell records, each with a write-once
  ``*.seg.idx.json`` sidecar mapping content keys to byte ranges.  A
  cell's key is its stable content key (scenario spec id, canonical
  config spec, particle count and protocol seeds; ablated configs
  additionally fold in their
  :meth:`~repro.core.config.MclConfig.fingerprint`, while pure paper
  variants at default parameters keep the legacy key so old stores stay
  resumable; never the backend or job count — those only pick an
  execution strategy).  ``put_cell`` is an append, ``completed_keys``
  reads one sidecar per segment instead of parsing every cell, and
  :meth:`CampaignStore.stream_cells` scans segments sequentially in
  memory bounded by one segment, not by the store.
* ``segments/writer.lock`` — the single-writer lock (see below).
* ``cells/<key>.json`` — **legacy cells**, one file per cell, as stores
  written before segments became the only write path hold them (only a
  stem shaped like a content key, ending ``-n<N>-<12 hex digits>``,
  names a cell; other files there are left alone).
  Nothing writes them and no read sees them:
  :meth:`CampaignStore.recover`, which ``campaign run``, ``merge`` and
  ``compact`` run first, folds them into segments byte-for-byte (a
  record's payload is exactly the file's bytes) and removes them, and a
  reader refuses a store that still holds them (see "One read rule").

**Invariants** (these are what make campaigns resumable and the store
byte-comparable):

* *Atomicity* — segments are appended as ``seg-NNNNNN.open`` and
  renamed to ``.seg`` once sealed; index sidecars are written to a
  ``*.tmp`` sibling and ``os.replace``-d into place.  A killed campaign
  leaves either a complete record or a torn tail that recovery
  truncates — completed cells are never lost, partial ones never count.
* *Determinism* — payloads are serialized as canonical JSON
  (:func:`canonical_json_bytes`: sorted ``str`` keys, two-space indent,
  NaN and ±inf as ``null``, one trailing newline — byte-equal to
  ``json.dumps(sort_keys=True, indent=2)``, but written by a one-pass
  encoder here because the stdlib's indent path is pure Python).
  Because the filter backends are bitwise
  equivalent and run order inside a cell is fixed, the bytes of every
  cell payload are a pure function of the cell key: ``jobs=1`` vs
  ``jobs=N``, fresh vs resumed, ``reference`` vs ``fast``, legacy
  cell vs packed record all hold **byte-identical** cells.
* *Append-only* — a completed cell is never rewritten; re-putting an
  existing key verifies the bytes instead (a mismatch means the
  equivalence contract was broken and raises).

**One writer per store, enforced.**  The segment writer takes a
non-blocking exclusive ``flock`` on ``segments/writer.lock`` before it
touches anything and holds it until :meth:`CampaignStore.close`.  A
second writer — another process, or another :class:`CampaignStore` on
the same root — gets :class:`EvaluationError`.  The kernel drops the
lock when its holder dies, so a crash never wedges the store, and every
``.open`` segment or ``*.tmp`` file found under the lock is a dead
writer's.  ``run_campaign`` funnels every ``put_cell`` through the
parent process even when cells execute on a pool, and shards write
separate stores that merge later.  Readers take no lock: sealed
segments and sidecars are immutable once published.

**One read rule.**  Every read lists the segments, and only the
segments.  A store that still holds legacy ``cells/*.json`` files is
refused with :class:`EvaluationError` naming ``repro campaign compact
<name>``, unless this :class:`CampaignStore` holds the writer lock:
then the files are :meth:`~CampaignStore.recover`'s to fold, and its
reads see the segments alone.  A sealed ``.seg`` whose sidecar records
the segment's current size and parses as key -> ``[offset, length]``
spans inside it is *trusted*: resume, the key index, streaming reads and
:meth:`CampaignStore.recover` all read it through the sidecar and never
re-parse its payloads (the writer fsynced and sealed it under the lock
before publishing the sidecar).  ``.open`` segments and sealed segments
without a trusted sidecar go through the one validating record scan,
which stops at the first torn or unparseable record; ``recover()``
truncates such a segment to that prefix and rewrites its sidecar.
Streaming reads yield a segment's records in storage order (sidecar
spans sorted by offset).  Reports decode only what they read: a cell's
identity is the key it is stored under (a stored payload is a pure
function of its key), so of each payload they decode only the leading
``aggregate`` member, found by the canonical layout
(:func:`leading_members`).  A payload not laid out that way is
malformed and skipped; the ``cell`` and ``runs`` members after it are
not validated, so damage inside them goes unseen.
"""

from __future__ import annotations

import fcntl
import json
import math
import os
import re
from pathlib import Path
from typing import IO, Any, Iterator, Sequence

from .. import obs
from ..common.atomics import atomic_create, atomic_write
from ..common.errors import ConfigurationError, EvaluationError
from ..viz.export import results_directory

#: Store format version, recorded in every manifest.
STORE_VERSION = 1

#: Seal thresholds for packed segments.  Small enough that a segment
#: scan stays cache-friendly and a torn tail forfeits little work,
#: large enough that a 10^6-cell store is ~10^3 segments, not 10^6
#: files.
SEGMENT_MAX_BYTES = 1 << 20
SEGMENT_MAX_RECORDS = 1024

_SEGMENT_NAME = re.compile(r"^seg-(\d{6})\.(seg|open)$")
_KEY_PATTERN = re.compile(r"^[A-Za-z0-9._=-]+$")
#: A campaign content key, ``<stem>-<label>-n<N>-<12 hex digits>``: the
#: only name a legacy cell file was ever written under.
_CELL_KEY_PATTERN = re.compile(r"^[A-Za-z0-9._=-]+-n[0-9]+-[0-9a-f]{12}$")


def campaigns_root() -> Path:
    """Directory holding all campaign stores (``REPRO_RESULTS_DIR``)."""
    return results_directory() / "campaigns"


#: ``json.dumps``'s own C string escaper under its default
#: ``ensure_ascii=True``: escapes, non-ASCII text and lone surrogates
#: come out as the stdlib writes them.
_escape = json.encoder.encode_basestring_ascii


def _encode(value: Any, indent: str, chunks: list[str]) -> None:
    """Append ``value``'s canonical JSON text to ``chunks``.

    ``indent`` is the newline and indentation that close ``value`` if it
    is a non-empty container; its items go one level (two spaces)
    deeper.  ``True``/``False``/``None`` are tested before ``int``, ints
    and finite floats are written by ``int.__repr__``/``float.__repr__``
    as ``json`` writes them (subclasses such as ``numpy.float64``
    included), and NaN and ±inf become ``null``.
    """
    if isinstance(value, str):
        chunks.append(_escape(value))
    elif value is None:
        chunks.append("null")
    elif value is True:
        chunks.append("true")
    elif value is False:
        chunks.append("false")
    elif isinstance(value, int):
        chunks.append(int.__repr__(value))
    elif isinstance(value, float):
        chunks.append(float.__repr__(value) if math.isfinite(value) else "null")
    elif isinstance(value, dict):
        if not value:
            chunks.append("{}")
            return
        inner = indent + "  "
        separator, comma = "{" + inner, "," + inner
        for key in sorted(value):
            if not isinstance(key, str):
                raise TypeError(
                    f"canonical JSON keys must be str, not {type(key).__name__}"
                )
            chunks.append(separator + _escape(key) + ": ")
            _encode(value[key], inner, chunks)
            separator = comma
        chunks.append(indent + "}")
    elif isinstance(value, (list, tuple)):
        if not value:
            chunks.append("[]")
            return
        inner = indent + "  "
        separator, comma = "[" + inner, "," + inner
        for item in value:
            chunks.append(separator)
            _encode(item, inner, chunks)
            separator = comma
        chunks.append(indent + "]")
    else:
        raise TypeError(
            f"Object of type {type(value).__name__} is not JSON serializable"
        )


def canonical_json_bytes(payload: dict) -> bytes:
    """Encode a payload as canonical (byte-stable) JSON.

    The contract: ``str`` keys in sorted order, two-space indentation,
    NaN and ±inf written as ``null``, one trailing newline — byte-equal
    to ``json.dumps(payload, sort_keys=True, indent=2)`` plus ``"\\n"``
    with non-finite floats first mapped to ``None``.  Every stored cell,
    key digest, sidecar and manifest is these bytes, so they must never
    move.  The encoder is written out here because ``json`` runs its C
    encoder only without ``indent``; with it, it takes a pure-Python
    generator path that was most of a campaign resume.  Raises
    ``TypeError`` for a value ``json`` cannot encode and for a key that
    is not a ``str``.
    """
    chunks: list[str] = []
    _encode(payload, "\n", chunks)
    chunks.append("\n")
    return "".join(chunks).encode("utf-8")


#: ``json.loads``'s own decoder: ``raw_decode`` runs the same C scanner.
_decoder = json.JSONDecoder()


def leading_members(data: bytes, names: Sequence[str]) -> tuple | None:
    """Decode the first top-level members of canonical JSON object bytes.

    ``names`` are the object's first members in sorted order.  Returns
    their values, each equal to what ``json.loads(data)`` holds under
    that name, or ``None`` unless ``data`` is UTF-8 laid out as
    :func:`canonical_json_bytes` writes an object that starts with those
    members and ends with ``"\\n}\\n"``.  The layout makes this safe: a
    JSON string cannot hold a raw newline, so a newline, two spaces and
    a quote can only open a top-level member.  The members after
    ``names`` are not decoded, so damage inside them goes unseen.
    """
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError:
        return None
    if not text.endswith("\n}\n"):
        return None
    values = []
    position, opener = 0, "{"
    for name in names:
        member = opener + "\n  " + _escape(name) + ": "
        if not text.startswith(member, position):
            return None
        try:
            value, position = _decoder.raw_decode(text, position + len(member))
        except json.JSONDecodeError:
            return None
        values.append(value)
        opener = ","
    # The object ends after the last named member, or a next one opens.
    if position != len(text) - 3 and not text.startswith(',\n  "', position):
        return None
    return tuple(values)


# ----------------------------------------------------------------------
# Packed-segment record format
# ----------------------------------------------------------------------
# One record per cell:  b"CELL <key> <payload_len>\n" + payload.  The
# payload is byte-identical to a legacy ``cells/<key>.json`` file for
# the same key, so slicing a record out of a segment *is* reading the
# cell file.  The header is self-delimiting ASCII: a sequential scan
# needs no index, and a torn tail (crash mid-append) is detected as the
# first record whose header is malformed or whose payload runs past
# end-of-file — everything before it is intact by append order.


def _encode_record(key: str, data: bytes) -> bytes:
    if not _KEY_PATTERN.match(key):
        raise ConfigurationError(
            f"cell key {key!r} is not a plain content key"
        )
    return b"CELL %s %d\n" % (key.encode("ascii"), len(data)) + data


def _scan_records(blob: bytes) -> tuple[list[tuple[str, int, int]], int]:
    """Parse and validate the intact record prefix of a segment blob.

    Returns ``([(key, payload_offset, payload_length), ...], valid_bytes)``
    — the scan stops at the first structural break (torn header, short
    payload, or a payload that is not JSON), so ``valid_bytes`` is the
    length recovery may truncate the segment to.  This is the one record
    scanner: ``.open`` segments and sealed segments without a trusted
    sidecar are read through it.
    """
    records: list[tuple[str, int, int]] = []
    pos = 0
    size = len(blob)
    while pos < size:
        newline = blob.find(b"\n", pos)
        if newline == -1:
            break
        header = blob[pos:newline].split(b" ")
        if len(header) != 3 or header[0] != b"CELL":
            break
        try:
            key = header[1].decode("ascii")
            length = int(header[2])
        except (UnicodeDecodeError, ValueError):
            break
        start = newline + 1
        end = start + length
        if length < 0 or end > size:
            break
        try:
            json.loads(blob[start:end])
        except (UnicodeDecodeError, json.JSONDecodeError):
            break
        records.append((key, start, length))
        pos = end
    return records, pos


def _sidecar_path(segment: Path) -> Path:
    return segment.with_name(segment.name + ".idx.json")


def _load_sidecar(segment: Path) -> dict[str, list[int]] | None:
    """A sealed segment's key -> ``[offset, length]`` spans, if trusted.

    Trusted means the sidecar records the segment's current size and
    every span lies inside the segment (the module's one read rule).  A
    missing or torn sidecar (a crash between seal and publish), a size
    mismatch (a tail appended after sealing) or a malformed span returns
    ``None``, and the caller rescans the segment.
    """
    try:
        payload = json.loads(_sidecar_path(segment).read_bytes())
        size = segment.stat().st_size
    except (OSError, ValueError):
        return None
    if not isinstance(payload, dict) or payload.get("bytes") != size:
        return None
    spans = payload.get("records")
    if not isinstance(spans, dict):
        return None
    try:
        for offset, length in spans.values():
            if not (
                type(offset) is int
                and type(length) is int
                and 0 <= offset <= offset + length <= size
            ):
                return None
    except (TypeError, ValueError):  # a span that is not a pair
        return None
    return spans


def _segment_spans(
    segment: Path,
) -> tuple[dict[str, Sequence[int]], bytes | None]:
    """A segment's key -> ``(offset, length)`` spans, by the trust rule.

    A sealed segment with a trusted sidecar is answered from the sidecar
    alone (``blob`` is ``None``: no byte of the segment was read); an
    ``.open`` or untrusted sealed segment is read and scanned with
    :func:`_scan_records`, and its ``blob`` is returned with the spans.
    """
    if segment.suffix == ".seg":
        spans = _load_sidecar(segment)
        if spans is not None:
            obs.counter("store.index_hits").inc()
            return spans, None
        obs.counter("store.index_rescans").inc()
    blob = segment.read_bytes()
    records, _ = _scan_records(blob)
    return {key: (offset, length) for key, offset, length in records}, blob


def _write_sidecar(
    segment: Path, records: list[tuple[str, int, int]], total_bytes: int
) -> None:
    sidecar = {
        "bytes": total_bytes,
        "records": {key: [offset, length] for key, offset, length in records},
    }
    atomic_write(_sidecar_path(segment), canonical_json_bytes(sidecar))


def _seal_segment(
    open_path: Path, records: list[tuple[str, int, int]], total_bytes: int
) -> Path:
    """Publish an ``.open`` segment: rename to ``.seg``, write its index."""
    final = open_path.with_suffix(".seg")
    os.replace(open_path, final)
    _write_sidecar(final, records, total_bytes)
    obs.counter("store.segments_sealed").inc()
    return final


def _truncate(path: Path, size: int) -> None:
    with open(path, "r+b") as handle:
        handle.truncate(size)
        os.fsync(handle.fileno())


def _lock_writer(segments_dir: Path, name: str) -> IO[bytes]:
    """Take a store's single-writer lock; returns the file holding it.

    A non-blocking exclusive ``flock`` conflicts with every other open
    of the lock file, in this process too.  The kernel drops it when the
    last descriptor sharing it closes: on ``close()``, or when the
    holder dies.
    """
    lock = open(segments_dir / "writer.lock", "ab")
    try:
        fcntl.flock(lock, fcntl.LOCK_EX | fcntl.LOCK_NB)
    except BlockingIOError:
        lock.close()
        raise EvaluationError(
            f"campaign store {name!r} already has a live writer — a store "
            "is single-writer; wait for that run to finish, or shard the "
            "campaign into separate stores and merge them"
        ) from None
    return lock


class _SegmentWriter:
    """A store's one appender; it holds the single-writer lock until closed.

    Opening takes the lock, then repairs what dead writers left: each
    abandoned ``.open`` segment's valid record prefix is sealed and its
    torn tail truncated away (one with no intact record is removed).
    Records go to a ``seg-NNNNNN.open`` file, flushed per append so a
    crash loses at most the torn tail of the last record; the segment is
    fsynced and renamed to ``.seg`` (then indexed) when it reaches the
    seal thresholds or the writer closes.
    """

    def __init__(self, store: "CampaignStore") -> None:
        self._store = store
        self._dir = store.segments_dir
        self._dir.mkdir(parents=True, exist_ok=True)
        self._lock = _lock_writer(self._dir, store.name)
        self._handle = None
        self._path: Path | None = None
        self._records: list[tuple[str, int, int]] = []
        self._bytes = 0
        #: Names of the dead writers' ``.open`` segments repaired on open.
        self.recovered = self._recover_open_segments()

    def _recover_open_segments(self) -> list[str]:
        recovered = []
        for path in sorted(self._dir.glob("seg-*.open")):
            blob = path.read_bytes()
            records, valid = _scan_records(blob)
            recovered.append(path.name)
            if not records:
                path.unlink()
                continue
            if valid != len(blob):
                _truncate(path, valid)
            _seal_segment(path, records, valid)
        return recovered

    def _next_sequence(self) -> int:
        highest = -1
        for path in self._dir.iterdir():
            match = _SEGMENT_NAME.match(path.name)
            if match:
                highest = max(highest, int(match.group(1)))
        return highest + 1

    def _open_segment(self) -> None:
        self._path = self._dir / f"seg-{self._next_sequence():06d}.open"
        self._handle = open(self._path, "xb")
        self._records = []
        self._bytes = 0

    def append(self, key: str, data: bytes) -> tuple[Path, int, int]:
        """Append one record; returns its ``(segment, offset, length)``."""
        if self._handle is None:
            self._open_segment()
        record = _encode_record(key, data)
        offset = self._bytes + (len(record) - len(data))
        self._handle.write(record)
        self._handle.flush()
        self._records.append((key, offset, len(data)))
        self._bytes = offset + len(data)
        obs.counter("store.segment_appends").inc()
        path = self._path
        if (
            self._bytes >= SEGMENT_MAX_BYTES
            or len(self._records) >= SEGMENT_MAX_RECORDS
        ):
            path = self.seal()
        return path, offset, len(data)

    def seal(self) -> Path:
        """Fsync, close and publish the active segment; returns its path."""
        assert self._handle is not None and self._path is not None
        self._handle.flush()
        os.fsync(self._handle.fileno())
        self._handle.close()
        final = _seal_segment(self._path, self._records, self._bytes)
        self._store._relocate_index(self._records, final)
        self._handle = None
        self._path = None
        self._records = []
        self._bytes = 0
        return final

    def seal_active(self) -> None:
        """Publish the active segment, or drop it if it holds no record."""
        if self._records:
            self.seal()
        elif self._handle is not None:
            self._handle.close()
            self._path.unlink(missing_ok=True)
            self._handle = self._path = None

    def close(self) -> None:
        """Seal the active segment, then release the lock."""
        try:
            self.seal_active()
        finally:
            self._lock.close()


class CampaignStore:
    """One campaign's on-disk results: a manifest plus keyed cells.

    Cells are appended to packed segments, and every read sees the
    segments alone; :meth:`recover` folds an older store's legacy
    ``cells/`` files into them (see the module docstring).  ``tier``
    remains for callers that name the write path: ``"packed"`` is its
    only legal value.
    """

    def __init__(
        self,
        name: str,
        root: str | Path | None = None,
        tier: str = "packed",
    ) -> None:
        if not name or "/" in name or name.startswith("."):
            raise ConfigurationError(
                f"campaign name must be a plain directory name, got {name!r}"
            )
        if tier != "packed":
            raise ConfigurationError(
                f"store tier must be 'packed' (the only write path), "
                f"got {tier!r}"
            )
        self.name = name
        self.root = Path(root) if root is not None else campaigns_root() / name
        self._index_cache: dict[str, tuple[Path, int, int]] | None = None
        self._writer: _SegmentWriter | None = None

    # ------------------------------------------------------------------
    # Layout
    # ------------------------------------------------------------------
    @property
    def manifest_path(self) -> Path:
        return self.root / "manifest.json"

    @property
    def cells_dir(self) -> Path:
        return self.root / "cells"

    @property
    def segments_dir(self) -> Path:
        return self.root / "segments"

    def exists(self) -> bool:
        return self.manifest_path.exists()

    # ------------------------------------------------------------------
    # Writer lifecycle
    # ------------------------------------------------------------------
    def _segment_writer(self) -> _SegmentWriter:
        if self._writer is None:
            self._writer = _SegmentWriter(self)
            self._index_cache = None  # recovery may have sealed segments
        return self._writer

    def close(self) -> None:
        """Seal any active segment and release the writer lock.

        Also drops the key index, so a closed store holds nothing per
        cell; a later read rebuilds it from the sidecars.  Idempotent;
        reads need no close.
        """
        writer, self._writer = self._writer, None
        if writer is not None:
            writer.close()
        self._index_cache = None

    def __enter__(self) -> "CampaignStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Segment index
    # ------------------------------------------------------------------
    def _packed_index(self) -> dict[str, tuple[Path, int, int]]:
        if self._index_cache is None:
            self._index_cache = self._build_packed_index()
        return self._index_cache

    def _build_packed_index(self) -> dict[str, tuple[Path, int, int]]:
        index: dict[str, tuple[Path, int, int]] = {}
        for segment in self._segment_paths():
            spans, _ = _segment_spans(segment)
            for key, (offset, length) in spans.items():
                index[key] = (segment, offset, length)
        return index

    def _relocate_index(
        self, records: list[tuple[str, int, int]], segment: Path
    ) -> None:
        """Repoint just-sealed records from the ``.open`` path to ``.seg``."""
        if self._index_cache is None:
            return
        for key, offset, length in records:
            self._index_cache[key] = (segment, offset, length)

    def _read_packed(self, location: tuple[Path, int, int]) -> bytes | None:
        path, offset, length = location
        try:
            with open(path, "rb") as handle:
                handle.seek(offset)
                data = handle.read(length)
        except OSError:
            return None
        return data if len(data) == length else None

    def _legacy_cell_files(self) -> Iterator[Path]:
        """The legacy cell files: ``cells/*.json`` named by a content key.

        Any other file under ``cells/`` (``notes.json``, say) is no cell:
        it is neither folded nor removed, and refuses no read.
        """
        return (
            path
            for path in self.cells_dir.glob("*.json")
            if _CELL_KEY_PATTERN.match(path.stem)
        )

    def _segment_paths(self) -> list[Path]:
        """The segments every read goes through, sealed then open.

        The one read guard: legacy cell files refuse the read unless
        this store holds the writer lock, under which :meth:`recover`
        folds them.
        """
        if self._writer is None and any(self._legacy_cell_files()):
            raise EvaluationError(
                f"campaign store {self.name!r} still holds legacy cells/ "
                "files; fold them into segments with: repro campaign "
                f"compact {self.name}"
            )
        if not self.segments_dir.is_dir():
            return []
        return sorted(self.segments_dir.glob("seg-*.seg")) + sorted(
            self.segments_dir.glob("seg-*.open")
        )

    # ------------------------------------------------------------------
    # Manifest
    # ------------------------------------------------------------------
    def write_manifest(self, manifest: dict) -> None:
        """Record the campaign spec (first run) or verify it (resume).

        The manifest pins what the cell keys were derived from; letting
        a resumed run proceed under a different spec would silently mix
        incompatible cells in one store.
        """
        manifest = dict(manifest, store_version=STORE_VERSION)
        data = canonical_json_bytes(manifest)
        if atomic_create(self.manifest_path, data):
            return
        # Exactly one racing creator wins; everyone else (including this
        # late re-check) must match the published spec byte for byte.
        if self.manifest_path.read_bytes() != data:
            raise EvaluationError(
                f"campaign {self.name!r} already exists with a different "
                f"spec; choose a new name or delete {self.root}"
            )

    def read_manifest(self) -> dict:
        if not self.manifest_path.exists():
            raise EvaluationError(
                f"campaign {self.name!r} not found under {self.root.parent}"
            )
        return json.loads(self.manifest_path.read_text())

    # ------------------------------------------------------------------
    # Cells
    # ------------------------------------------------------------------
    def put_cell(self, key: str, payload: dict) -> Path:
        """Stream one finished cell into the store (atomic, append-only).

        Re-putting an existing key is a no-op when the bytes match and an
        error when they do not — a byte mismatch for the same content key
        means determinism was lost somewhere below the store.
        """
        return self._put_bytes(
            key,
            canonical_json_bytes(payload),
            "determinism violation (backend or protocol drift?)",
        )

    def put_cell_bytes(self, key: str, data: bytes) -> Path:
        """Append one cell's *already-canonical* bytes (merge/copy path).

        Same append-only semantics as :meth:`put_cell`, but trusts the
        caller to supply canonical JSON produced by another store —
        verifying it parses — instead of re-encoding a payload.  This is
        what lets ``campaign merge`` union stores byte-for-byte.  Bytes
        that parse but are not canonical are stored (and count as done
        on resume) but not reported: reports read payloads by the
        canonical layout (:func:`leading_members`).
        """
        try:
            json.loads(data.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise EvaluationError(
                f"cell {key} bytes are not valid JSON — refusing to merge "
                f"a torn source file: {exc}"
            ) from exc
        return self._put_bytes(
            key,
            data,
            "the two stores disagree (determinism violation or "
            "mismatched campaign specs)",
        )

    def _put_bytes(self, key: str, data: bytes, mismatch: str) -> Path:
        writer = self._segment_writer()
        index = self._packed_index()
        location = index.get(key)
        if location is None:
            index[key] = writer.append(key, data)
            return index[key][0]
        if self._read_packed(location) != data:
            raise EvaluationError(
                f"cell {key} already stored with different bytes — {mismatch}"
            )
        return location[0]

    def get_cell_bytes(self, key: str) -> bytes | None:
        """One cell's raw payload bytes, or ``None``.

        The bytes are returned as stored, unvalidated — callers that
        need a parse use :meth:`get_cell`.
        """
        location = self._packed_index().get(key)
        return None if location is None else self._read_packed(location)

    def get_cell(self, key: str) -> dict | None:
        """Load one cell, or ``None`` if absent or unreadable (partial)."""
        data = self.get_cell_bytes(key)
        if data is None:
            return None
        try:
            return json.loads(data)
        except (UnicodeDecodeError, json.JSONDecodeError):
            return None

    def completed_keys(self) -> set[str]:
        """Keys of every completed cell.

        For sealed segments this is one sidecar read each — O(segments),
        not O(cells) — which is what keeps ``--resume`` on a 10^5-cell
        store at milliseconds instead of a directory scan.  A record
        torn by a crash never counts, so a resumed campaign re-executes
        its cell.
        """
        if self._index_cache is not None:
            return set(self._index_cache)
        keys: set[str] = set()
        for segment in self._segment_paths():
            keys.update(_segment_spans(segment)[0])
        return keys

    def iter_cell_bytes(self) -> Iterator[tuple[str, bytes]]:
        """Stream ``(key, raw payload bytes)`` for every stored cell.

        Segment by segment in storage order (memory bounded by one
        segment); a trusted segment's payloads are sliced out by its
        sidecar spans, unparsed.  Torn segment tails never yield — a
        record either scans whole or does not exist yet.  The segments
        are listed when this is called, so a store the read guard
        refuses raises here, not at the first ``next()``.
        """
        return self._segment_cells(self._segment_paths())

    @staticmethod
    def _segment_cells(segments: list[Path]) -> Iterator[tuple[str, bytes]]:
        for segment in segments:
            spans, blob = _segment_spans(segment)
            if blob is None:
                blob = segment.read_bytes()
            for key, (offset, length) in sorted(
                spans.items(), key=lambda item: item[1][0]
            ):
                yield key, blob[offset : offset + length]

    def stream_cells(self) -> Iterator[tuple[str, dict]]:
        """Yield ``(key, payload)`` in storage order, streaming.

        Each payload is parsed in full: sequential segment scans, peak
        memory bounded by one segment.  Unparseable cells (a sealed
        record damaged in place) are skipped.
        Reports do not come through here: they decode only each
        payload's ``aggregate`` member from :meth:`iter_cell_bytes`
        (:func:`leading_members`).
        """
        for key, data in self.iter_cell_bytes():
            payload = self._parse(data)
            if payload is not None:
                yield key, payload

    # ------------------------------------------------------------------
    # Maintenance: recovery and the legacy-cell fold
    # ------------------------------------------------------------------
    def recover(self) -> list[str]:
        """Repair what dead writers left and fold legacy cell files into
        segments; returns the names of the files repaired, removed or
        folded.

        Takes the writer lock (raising :class:`EvaluationError` while
        another writer is live) and holds it until :meth:`close`, so
        every leftover is a dead writer's.  Taking the lock seals each
        abandoned ``.open`` segment's valid record prefix; this then
        removes ``*.tmp`` scratch files, rescans every sealed segment
        without a trusted sidecar — truncating a torn tail (removing a
        segment with no intact record) and rewriting the sidecar — and
        folds the legacy ``cells/*.json`` files in (:meth:`_fold_cells`).
        A sealed segment whose sidecar is trusted is not read at all, and
        each sidecar is loaded once: the key index is left built from the
        spans read here, so ``completed_keys`` and ``put_cell`` reuse it.
        ``run_campaign``, ``merge_campaign_stores`` (on its destination)
        and ``campaign compact`` call this first; a healthy store loses
        nothing.
        """
        writer = self._segment_writer()
        removed, writer.recovered = writer.recovered, []
        tmp_dirs = [
            d
            for d in (self.root, self.cells_dir, self.segments_dir)
            if d.is_dir()
        ]
        for path in sorted(p for d in tmp_dirs for p in d.glob("*.tmp")):
            path.unlink(missing_ok=True)
            removed.append(path.name)
        removed.extend(self._recover_segments())
        removed.extend(self._fold_cells())
        return removed

    def _recover_segments(self) -> list[str]:
        """Repair sealed segments without a trusted sidecar; returns the
        repaired files' names.

        Leaves the key index built from the spans this pass loaded or
        rescanned, so the resume that follows reads no sidecar again.
        Under the lock the only ``.open`` segment is this writer's own
        active one; it is scanned, as every reader scans one.
        """
        repaired = []
        index: dict[str, tuple[Path, int, int]] = {}
        for segment in self._segment_paths():
            if segment.suffix == ".open":
                spans, _ = _segment_spans(segment)
            elif (spans := _load_sidecar(segment)) is not None:
                obs.counter("store.index_hits").inc()
            else:
                obs.counter("store.index_rescans").inc()
                blob = segment.read_bytes()
                records, valid = _scan_records(blob)
                if valid == len(blob):
                    repaired.append(_sidecar_path(segment).name)
                else:
                    repaired.append(segment.name)
                    if not records:
                        segment.unlink()
                        _sidecar_path(segment).unlink(missing_ok=True)
                        continue
                    _truncate(segment, valid)
                _write_sidecar(segment, records, valid)
                spans = {key: (offset, length) for key, offset, length in records}
            for key, (offset, length) in spans.items():
                index[key] = (segment, offset, length)
        self._index_cache = index
        return repaired

    def _fold_cells(self) -> list[str]:
        """Fold legacy cell files into segments; returns their names.

        Walks :meth:`_legacy_cell_files` in sorted order: a file that
        does not parse (a torn write) is removed, a key already packed
        is byte-verified against its record (a mismatch raises), and any
        other file is appended.  Only once the segments are sealed and
        fsynced and every folded key read back out of them equals its
        file is a folded file removed, so a crash at any point leaves
        the files authoritative and the next :meth:`recover` finishes
        the fold byte-identically.  Runs under the writer lock, on the
        key index :meth:`_recover_segments` built.
        """
        files = sorted(self._legacy_cell_files())
        if not files:
            return []
        with obs.span("store.fold"):
            index = self._packed_index()
            folded = []
            for path in files:
                key, data = path.stem, path.read_bytes()
                if self._parse(data) is None:
                    path.unlink()
                    continue
                location = index.get(key)
                if location is None:
                    index[key] = self._writer.append(key, data)
                elif self._read_packed(location) != data:
                    raise EvaluationError(
                        f"cell {key} already packed with different bytes — "
                        "determinism violation; legacy cell files left "
                        "authoritative"
                    )
                folded.append(path)
            self._writer.seal_active()  # durable before removing any file
            for path in folded:
                if self._read_packed(index[path.stem]) != path.read_bytes():
                    raise EvaluationError(
                        f"fold verify failed for cell {path.stem} — legacy "
                        "cell files left authoritative"
                    )
            for path in folded:
                path.unlink()
            obs.event(
                "store.fold",
                campaign=self.name,
                folded=len(folded),
                torn=len(files) - len(folded),
            )
        try:
            self.cells_dir.rmdir()  # a folded store looks like a packed one
        except OSError:  # something other than cell files lives there
            pass
        return [path.name for path in files]

    @staticmethod
    def _parse(data: bytes) -> dict | None:
        try:
            return json.loads(data)
        except (UnicodeDecodeError, json.JSONDecodeError):
            return None


def list_campaigns(root: str | Path | None = None) -> list[str]:
    """Names of every campaign with a manifest under the results root."""
    base = Path(root) if root is not None else campaigns_root()
    if not base.is_dir():
        return []
    return sorted(
        entry.name
        for entry in base.iterdir()
        if (entry / "manifest.json").exists()
    )
