"""Packed segments: the one layout, its lock, crash-safety, the legacy fold.

The contract under test: cell payload bytes are a pure function of the
cell key, and a legacy ``cells/`` file folds into a segment record of
exactly its bytes; no read merges the two layouts (a store that still
holds cell files is refused until ``recover()`` folds them); resume is
exact (zero recomputation for intact cells, re-execution only of lost
ones); one writer at a time holds a store; and every crash mode —
killed writer, torn segment tail, lost sidecar, interrupted fold —
degrades to a recoverable state where the surviving copy is
authoritative.
"""

import json
import os
import shutil
import signal
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import repro
from repro.common.errors import ConfigurationError, EvaluationError
from repro.core.config import MclConfig, format_override_value
from repro.eval.campaign import (
    CampaignSpec,
    aggregate_report,
    campaign_status,
    merge_campaign_stores,
    pivot_report,
    run_campaign,
    shard_cells,
)
from repro.eval import store as store_module
from repro.eval.store import CampaignStore, canonical_json_bytes

#: Same tiny worlds as test_campaign.py, so the session-cached .npz
#: scenarios are shared and only the first touch simulates flights.
SCENARIOS = ("corridor:2:flight_s=6.0", "office:1:flight_s=6.0")


def tiny_spec(name: str, scenarios=SCENARIOS) -> CampaignSpec:
    return CampaignSpec(
        name=name,
        scenarios=scenarios,
        variants=("fp32",),
        particle_counts=(16, 32),
        seeds=(0, 1),
    )


#: The grid of the committed legacy store (see conftest.py).
LEGACY_SPEC = tiny_spec("legacy")


def cell_bytes(store: CampaignStore) -> dict[str, bytes]:
    return dict(store.iter_cell_bytes())


def legacy_key(index: int) -> str:
    """A synthetic key shaped like a content key, as legacy files are named."""
    return f"maze-s1-fp32-n16-{index:012x}"


@pytest.fixture(scope="module")
def packed_store(tmp_path_factory):
    """The legacy store's grid, executed afresh into segments."""
    root = tmp_path_factory.mktemp("packed-ref")
    store = CampaignStore(LEGACY_SPEC.name, root=root / "packed")
    run_campaign(LEGACY_SPEC, store=store)
    return store


class TestPackedTier:
    def test_cell_bytes_identical_across_tiers(self, packed_store, legacy_cells):
        assert cell_bytes(packed_store) == legacy_cells
        assert set(legacy_cells) == {cell.key for cell in LEGACY_SPEC.cells()}
        # The run wrote segments, not cell files.
        assert list(packed_store.segments_dir.glob("seg-*.seg"))
        assert not packed_store.cells_dir.exists()

    def test_completed_keys_and_gets_match(self, packed_store, legacy_store):
        expected = {cell.key for cell in LEGACY_SPEC.cells()}
        with legacy_store:
            legacy_store.recover()  # folds the cell files into segments
        assert packed_store.completed_keys() == expected
        assert legacy_store.completed_keys() == expected
        for cell in LEGACY_SPEC.cells():
            assert packed_store.get_cell(cell.key) == legacy_store.get_cell(
                cell.key
            )

    def test_new_cells_append_packed_on_legacy_stores(
        self, legacy_store, legacy_cells
    ):
        files = sorted(legacy_store.cells_dir.glob("*.json"))
        with legacy_store:
            path = legacy_store.put_cell("k-new", {"v": 1})
        assert path.parent == legacy_store.segments_dir
        assert sorted(legacy_store.cells_dir.glob("*.json")) == files
        # A put does not fold: readers refuse the store until recover().
        reread = CampaignStore("legacy", root=legacy_store.root)
        with pytest.raises(EvaluationError, match="repro campaign compact legacy"):
            reread.get_cell("k-new")
        with reread:
            reread.recover()
        assert reread.get_cell("k-new") == {"v": 1}
        assert cell_bytes(reread) == {
            **legacy_cells,
            "k-new": canonical_json_bytes({"v": 1}),
        }

    def test_invalid_tier_rejected(self, tmp_path):
        for tier in ("auto", "file", "zip"):
            with pytest.raises(ConfigurationError, match="store tier"):
                CampaignStore("c", root=tmp_path, tier=tier)
        CampaignStore("c", root=tmp_path, tier="packed")

    def test_resume_is_exact_zero_recomputation(self, packed_store):
        summary = run_campaign(LEGACY_SPEC, store=packed_store, resume=True)
        assert summary.executed == 0
        assert summary.skipped == summary.total_cells == len(LEGACY_SPEC.cells())

    def test_put_mismatch_raises_in_packed_tier(self, tmp_path):
        store = CampaignStore("c", root=tmp_path / "c")
        store.put_cell("k-1", {"v": 1})
        store.put_cell("k-1", {"v": 1})  # byte-equal re-put is a no-op
        with pytest.raises(EvaluationError, match="different bytes"):
            store.put_cell("k-1", {"v": 2})

    def test_single_writer_conflict_detected(self, tmp_path):
        root = tmp_path / "c"
        first = CampaignStore("c", root=root)
        first.put_cell("k-1", {"v": 1})
        second = CampaignStore("c", root=root)
        with pytest.raises(EvaluationError, match="single-writer"):
            second.put_cell("k-2", {"v": 2})
        with pytest.raises(EvaluationError, match="single-writer"):
            second.recover()
        # The refused writer touched nothing: the first keeps appending
        # and closes cleanly.
        first.put_cell("k-3", {"v": 3})
        first.close()
        reread = CampaignStore("c", root=root)
        assert reread.get_cell("k-1") == {"v": 1}
        assert reread.get_cell("k-3") == {"v": 3}
        assert reread.completed_keys() == {"k-1", "k-3"}
        assert not list(reread.segments_dir.glob("seg-*.open"))

    def test_killed_writer_segment_sealed_without_waiting(self, tmp_path):
        root = tmp_path / "c"
        writer = (
            "import time\n"
            "from repro.eval.store import CampaignStore\n"
            f"store = CampaignStore('c', root={str(root)!r})\n"
            "store.put_cell('k-1', {'v': 1})\n"
            "store.put_cell('k-2', {'v': 2})\n"
            "print('appended', flush=True)\n"
            "time.sleep(120)\n"
        )
        src = Path(repro.__file__).resolve().parents[1]
        child = subprocess.Popen(
            [sys.executable, "-c", writer],
            env=dict(os.environ, PYTHONPATH=str(src)),
            stdout=subprocess.PIPE,
            text=True,
        )
        try:
            assert child.stdout.readline().strip() == "appended"
            with pytest.raises(EvaluationError, match="single-writer"):
                CampaignStore("c", root=root).recover()
        finally:
            os.kill(child.pid, signal.SIGKILL)
            child.wait(timeout=30)
            child.stdout.close()
        (active,) = root.joinpath("segments").glob("seg-*.open")
        store = CampaignStore("c", root=root)
        with store:
            assert store.recover() == [active.name]
        assert not active.exists()
        assert active.with_suffix(".seg").exists()
        assert CampaignStore("c", root=root).completed_keys() == {"k-1", "k-2"}

    def test_lock_released_after_parallel_run(self, tmp_path):
        spec = tiny_spec("fanned", scenarios=SCENARIOS[:1])
        store = CampaignStore(spec.name, root=tmp_path / "s")
        run_campaign(spec, store=store, jobs=2)
        with CampaignStore(spec.name, root=store.root) as after:
            assert after.recover() == []
            after.put_cell("k-after", {"v": 1})
        assert len(CampaignStore(spec.name, root=store.root).completed_keys()) == 3


class TestCrashSafety:
    def build(self, root: Path, cells: int = 40) -> CampaignStore:
        store = CampaignStore("crash", root=root)
        with store:
            for index in range(cells):
                store.put_cell(f"cell-{index:04d}", {"index": index})
        return CampaignStore("crash", root=root)

    def test_torn_sealed_tail_truncated_and_reindexed(self, tmp_path):
        store = self.build(tmp_path / "s")
        segment = sorted(store.segments_dir.glob("seg-*.seg"))[-1]
        intact = segment.read_bytes()
        segment.write_bytes(intact + b"CELL cell-9999 64\n{torn")
        # The stale sidecar (size mismatch) downgrades to a rescan that
        # stops at the tear: the half-written cell never counts.
        fresh = CampaignStore("crash", root=store.root)
        assert "cell-9999" not in fresh.completed_keys()
        assert len(fresh.completed_keys()) == 40
        with fresh:
            repaired = fresh.recover()
        assert segment.name in repaired
        assert segment.read_bytes() == intact
        assert len(CampaignStore("crash", root=store.root).completed_keys()) == 40

    def test_torn_open_segment_sealed_by_next_writer(self, tmp_path):
        root = tmp_path / "s"
        store = CampaignStore("crash", root=root)
        for index in range(5):
            store.put_cell(f"cell-{index:04d}", {"index": index})
        # Crash: the writer dies without closing (the kernel drops its
        # lock), leaving its .open segment with a torn tail.
        active = next(store.segments_dir.glob("seg-*.open"))
        store._writer._handle.close()
        store._writer._lock.close()
        store._writer = None
        active.write_bytes(active.read_bytes() + b"CELL half 999\n{")
        resumed = CampaignStore("crash", root=root)
        resumed.put_cell("cell-new", {"index": 99})
        resumed.close()
        assert not list(resumed.segments_dir.glob("seg-*.open"))
        final = CampaignStore("crash", root=root)
        assert final.completed_keys() == {
            f"cell-{index:04d}" for index in range(5)
        } | {"cell-new"}
        assert "half" not in final.completed_keys()

    def test_missing_sidecar_self_heals(self, tmp_path):
        store = self.build(tmp_path / "s")
        segment = sorted(store.segments_dir.glob("seg-*.seg"))[0]
        sidecar = segment.with_name(segment.name + ".idx.json")
        sidecar.unlink()
        fresh = CampaignStore("crash", root=store.root)
        assert len(fresh.completed_keys()) == 40  # rescan fallback
        with fresh:
            fresh.recover()
        payload = json.loads(sidecar.read_text())
        assert payload["bytes"] == segment.stat().st_size
        assert len(payload["records"]) > 0

    def test_interrupted_compaction_leaves_source_authoritative(
        self, tmp_path, monkeypatch, write_cell_files
    ):
        root = tmp_path / "s"
        cells = {
            legacy_key(index): canonical_json_bytes({"index": index})
            for index in range(12)
        }
        write_cell_files(CampaignStore("crash", root=root), cells)

        # Crash mid-deletion: the fold has sealed and byte-verified every
        # packed copy, and some (but not all) cell files are gone.
        real_unlink = Path.unlink
        state = {"deletes": 0}

        def crashy_unlink(self, *args, **kwargs):
            if self.suffix == ".json" and self.parent.name == "cells":
                state["deletes"] += 1
                if state["deletes"] > 3:
                    raise OSError("simulated crash mid-fold")
            return real_unlink(self, *args, **kwargs)

        monkeypatch.setattr(Path, "unlink", crashy_unlink)
        with CampaignStore("crash", root=root) as victim:
            with pytest.raises(OSError, match="simulated crash"):
                victim.recover()
        monkeypatch.setattr(Path, "unlink", real_unlink)

        # The surviving files stay authoritative: a reader refuses the
        # store instead of merging two layouts.
        survivor = CampaignStore("crash", root=root)
        remaining = sorted(path.name for path in survivor.cells_dir.glob("*.json"))
        assert len(remaining) == len(cells) - 3
        with pytest.raises(EvaluationError, match="repro campaign compact crash"):
            survivor.completed_keys()
        # A second recover() finishes the fold byte-identically: every
        # surviving file is already packed (verified before the first
        # delete), so none is appended twice.
        with survivor:
            assert survivor.recover() == remaining
        folded = CampaignStore("crash", root=root)
        assert list(folded.iter_cell_bytes()) == sorted(cells.items())
        assert not folded.cells_dir.exists()

    def test_partially_packed_store_reads_consistently(
        self, tmp_path, write_cell_files
    ):
        # The moment before a fold deletes anything: every cell a legacy
        # file, half also packed.  Readers refuse the mix; recover()
        # appends only the other half, and every key reads once.
        root = tmp_path / "s"
        cells = {
            legacy_key(index): canonical_json_bytes({"index": index})
            for index in range(10)
        }
        with CampaignStore("crash", root=root) as half:
            for key in sorted(cells)[:5]:
                half.put_cell_bytes(key, cells[key])
        mixed = CampaignStore("crash", root=root)
        write_cell_files(mixed, cells)
        with pytest.raises(EvaluationError, match="repro campaign compact crash"):
            mixed.iter_cell_bytes()
        with mixed:
            assert len(mixed.recover()) == 10
        folded = CampaignStore("crash", root=root)
        assert list(folded.iter_cell_bytes()) == sorted(cells.items())
        assert folded.completed_keys() == set(cells)

    def test_fold_interrupted_before_sealing_finishes_on_the_next_recover(
        self, tmp_path, monkeypatch, write_cell_files
    ):
        root = tmp_path / "s"
        cells = {
            legacy_key(index): canonical_json_bytes({"index": index})
            for index in range(12)
        }
        write_cell_files(CampaignStore("crash", root=root), cells)
        encode = store_module._encode_record

        def crashy_encode(key, data):
            if key == legacy_key(5):
                raise OSError("simulated crash mid-append")
            return encode(key, data)

        monkeypatch.setattr(store_module, "_encode_record", crashy_encode)
        with CampaignStore("crash", root=root) as victim:
            with pytest.raises(OSError, match="simulated crash"):
                victim.recover()
        monkeypatch.setattr(store_module, "_encode_record", encode)
        assert len(list(victim.cells_dir.glob("*.json"))) == len(cells)
        with CampaignStore("crash", root=root) as survivor:
            survivor.recover()
        folded = CampaignStore("crash", root=root)
        assert list(folded.iter_cell_bytes()) == sorted(cells.items())

    def test_fold_removes_no_file_until_every_record_reads_back(
        self, tmp_path, monkeypatch, write_cell_files
    ):
        root = tmp_path / "s"
        cells = {
            legacy_key(index): canonical_json_bytes({"index": index})
            for index in range(6)
        }
        write_cell_files(CampaignStore("crash", root=root), cells)
        encode = store_module._encode_record

        def flipping_encode(key, data):  # one record lands with a changed byte
            if key == legacy_key(4):
                data = data.replace(b"4", b"5")
            return encode(key, data)

        monkeypatch.setattr(store_module, "_encode_record", flipping_encode)
        with CampaignStore("crash", root=root) as victim:
            with pytest.raises(EvaluationError, match=f"verify failed .* {legacy_key(4)}"):
                victim.recover()
        left = sorted(path.stem for path in victim.cells_dir.glob("*.json"))
        assert left == sorted(cells)

    def test_fold_refuses_a_file_that_disagrees_with_its_record(
        self, tmp_path, write_cell_files
    ):
        root = tmp_path / "s"
        with CampaignStore("crash", root=root) as store:
            store.put_cell(legacy_key(0), {"index": 0})
        write_cell_files(
            store,
            {
                legacy_key(0): canonical_json_bytes({"index": 1}),
                legacy_key(1): canonical_json_bytes({"index": 1}),
            },
        )
        with CampaignStore("crash", root=root) as folding:
            with pytest.raises(EvaluationError, match="different bytes"):
                folding.recover()
        # Nothing was removed: the files wait for an operator.
        assert len(list(store.cells_dir.glob("*.json"))) == 2


class TestOneReadRule:
    """A sealed segment whose sidecar is trusted is read through it alone."""

    KEYS = [f"cell-{index:04d}" for index in range(40)]

    def build(self, root: Path, monkeypatch) -> CampaignStore:
        monkeypatch.setattr(store_module, "SEGMENT_MAX_RECORDS", 16)
        with CampaignStore("rule", root=root) as store:
            for index, key in enumerate(self.KEYS):
                store.put_cell(key, {"index": index})
        fresh = CampaignStore("rule", root=root)
        assert len(list(fresh.segments_dir.glob("seg-*.seg"))) == 3
        return fresh

    def test_recover_reads_no_payload_of_a_healthy_store(
        self, tmp_path, monkeypatch
    ):
        store = self.build(tmp_path / "s", monkeypatch)
        scans = []
        scan = store_module._scan_records

        def counting_scan(blob):
            scans.append(len(blob))
            return scan(blob)

        monkeypatch.setattr(store_module, "_scan_records", counting_scan)
        with store:
            assert store.recover() == []
        assert store.completed_keys() == set(self.KEYS)
        assert scans == []

    @pytest.mark.parametrize("missing", [0, 1], ids=["finished", "one-missing"])
    def test_resume_loads_each_sidecar_once(self, tmp_path, monkeypatch, missing):
        monkeypatch.setattr(store_module, "SEGMENT_MAX_RECORDS", 1)
        spec = tiny_spec("once")
        cells = spec.cells()
        root = tmp_path / "s"
        with CampaignStore(spec.name, root=root) as store:
            for index, cell in enumerate(cells[missing:]):
                store.put_cell(cell.key, {"index": index})
        sealed = sorted(path.name for path in store.segments_dir.glob("seg-*.seg"))
        assert len(sealed) == len(cells) - missing
        loaded = []
        load = store_module._load_sidecar

        def counting_load(segment):
            loaded.append(segment.name)
            return load(segment)

        monkeypatch.setattr(store_module, "_load_sidecar", counting_load)
        resumed = CampaignStore(spec.name, root=root)
        summary = run_campaign(spec, store=resumed, resume=True)
        assert (summary.executed, summary.skipped) == (missing, len(sealed))
        assert sorted(loaded) == sealed
        assert resumed._index_cache is None  # closed: nothing held per cell

    def test_stream_cells_parses_each_payload_once(self, tmp_path, monkeypatch):
        store = self.build(tmp_path / "s", monkeypatch)
        payloads = dict(store.iter_cell_bytes())
        expected = {key: json.loads(data) for key, data in payloads.items()}
        parsed: Counter = Counter()
        loads = json.loads

        def counting_loads(data, *args, **kwargs):
            parsed[data] += 1
            return loads(data, *args, **kwargs)

        monkeypatch.setattr(json, "loads", counting_loads)
        assert dict(store.stream_cells()) == expected
        assert [parsed[data] for data in payloads.values()] == [1] * 40

    def test_storage_order_survives_sealing(self, tmp_path):
        with CampaignStore("rule", root=tmp_path / "s") as store:
            for key in ("c", "a", "b"):
                store.put_cell(key, {"key": key})
        sealed = CampaignStore("rule", root=store.root)
        assert list(sealed.segments_dir.glob("seg-*.seg.idx.json"))
        assert [key for key, __ in sealed.iter_cell_bytes()] == ["c", "a", "b"]
        assert [key for key, __ in sealed.stream_cells()] == ["c", "a", "b"]

    @pytest.mark.parametrize(
        "malformed",
        [
            {"bogus": [0]},
            {"bogus": ["0", 5]},
            {"bogus": [-1, 5]},
            {"bogus": [0, 10**9]},
            {"bogus": 7},
            [[0, 5]],
            "array",
        ],
        ids=["short", "string", "negative", "past-end", "scalar", "list", "array"],
    )
    def test_malformed_sidecar_is_rescanned_and_rewritten(
        self, tmp_path, monkeypatch, malformed
    ):
        store = self.build(tmp_path / "s", monkeypatch)
        before = dict(store.iter_cell_bytes())
        segment = sorted(store.segments_dir.glob("seg-*.seg"))[0]
        sidecar = segment.with_name(segment.name + ".idx.json")
        intact = sidecar.read_bytes()
        # The sidecar still records the segment's size, but its spans are
        # malformed ("array": the whole sidecar is a JSON array).
        size = segment.stat().st_size
        sidecar.write_bytes(
            canonical_json_bytes(
                [size]
                if malformed == "array"
                else {"bytes": size, "records": malformed}
            )
        )
        fresh = CampaignStore("rule", root=store.root)
        assert fresh.completed_keys() == set(self.KEYS)
        assert dict(fresh.iter_cell_bytes()) == before
        assert fresh.get_cell(self.KEYS[0]) == {"index": 0}
        with fresh:
            assert fresh.recover() == [sidecar.name]
        assert sidecar.read_bytes() == intact


class TestLegacyStore:
    """A store written by the retired file-per-cell writer folds in once."""

    def test_resume_executes_nothing(self, legacy_store, legacy_cells):
        summary = run_campaign(LEGACY_SPEC, store=legacy_store, resume=True)
        assert summary.executed == 0
        assert summary.skipped == summary.total_cells == 4
        assert summary.recovered_files == [
            f"{key}.json" for key in sorted(legacy_cells)
        ]
        assert not legacy_store.cells_dir.exists()
        assert list(legacy_store.iter_cell_bytes()) == sorted(legacy_cells.items())

    def test_status_and_report_match_a_packed_copy(
        self, legacy_store, packed_store
    ):
        run_campaign(LEGACY_SPEC, store=legacy_store, resume=True)  # folds
        status = campaign_status("legacy", store=legacy_store)
        packed_status = campaign_status("legacy", store=packed_store)
        assert status.pop("store_root") != packed_status.pop("store_root")
        assert status == packed_status
        assert status["completed"] == status["total"] == 4
        assert aggregate_report("legacy", store=legacy_store) == aggregate_report(
            "legacy", store=packed_store
        )

    def test_compact_packs_verifies_and_retires_every_file(
        self, legacy_store, legacy_cells
    ):
        with legacy_store:  # what ``repro campaign compact`` runs
            assert legacy_store.recover() == [
                f"{key}.json" for key in sorted(legacy_cells)
            ]
        assert not legacy_store.cells_dir.exists()
        assert list(legacy_store.iter_cell_bytes()) == sorted(legacy_cells.items())
        with legacy_store:
            assert legacy_store.recover() == []  # a folded store is healthy

    def test_a_file_that_names_no_key_is_left_in_place(
        self, legacy_store, legacy_cells
    ):
        # Only a plain content key names a cell: any other file under
        # cells/ is not folded, not removed and refuses no read.
        note = legacy_store.cells_dir / "my notes.json"
        note.write_bytes(b'{"note": "not a cell"}\n')
        with legacy_store:
            assert legacy_store.recover() == [
                f"{key}.json" for key in sorted(legacy_cells)
            ]
        assert list(legacy_store.cells_dir.iterdir()) == [note]
        assert list(legacy_store.iter_cell_bytes()) == sorted(legacy_cells.items())
        assert legacy_store.completed_keys() == set(legacy_cells)
        assert campaign_status("legacy", store=legacy_store)["completed"] == 4

    @pytest.mark.parametrize(
        "stem", ["notes", "office-s1-aba13aae01-fp32-n16"], ids=["word", "cut-key"]
    )
    def test_a_file_not_shaped_like_a_content_key_is_left_in_place(
        self, legacy_store, legacy_cells, stem
    ):
        # A plain key names no cell unless it ends -n<N>-<12 hex digits>
        # as every content key does, even when the file parses as JSON.
        note = legacy_store.cells_dir / f"{stem}.json"
        note.write_bytes(b'{"todo": "rerun office"}\n')
        with legacy_store:
            assert legacy_store.recover() == [
                f"{key}.json" for key in sorted(legacy_cells)
            ]
        assert list(legacy_store.cells_dir.iterdir()) == [note]
        assert legacy_store.completed_keys() == set(legacy_cells)
        assert list(legacy_store.iter_cell_bytes()) == sorted(legacy_cells.items())

    def test_lost_cell_file_re_executes_into_a_segment(
        self, legacy_store, legacy_cells
    ):
        lost = sorted(legacy_cells)[1]
        (legacy_store.cells_dir / f"{lost}.json").unlink()
        summary = run_campaign(LEGACY_SPEC, store=legacy_store, resume=True)
        assert summary.executed == 1 and summary.skipped == 3
        # The three files were folded first; the lost cell came after.
        assert [key for key, __ in legacy_store.iter_cell_bytes()][-1] == lost
        assert cell_bytes(legacy_store) == legacy_cells

    def test_reads_of_an_unfolded_store_name_compact(self, legacy_store, tmp_path):
        hint = "repro campaign compact legacy"
        with pytest.raises(EvaluationError, match=hint):
            legacy_store.completed_keys()
        with pytest.raises(EvaluationError, match=hint):
            legacy_store.iter_cell_bytes()
        with pytest.raises(EvaluationError, match=hint):
            campaign_status("legacy", store=legacy_store)
        with pytest.raises(EvaluationError, match=hint):
            aggregate_report("legacy", store=legacy_store)
        dest = CampaignStore("legacy", root=tmp_path / "dest")
        with pytest.raises(EvaluationError, match=hint):
            merge_campaign_stores(dest, legacy_store)
        assert not dest.root.exists()  # refused before anything was written
        # A refused read folds nothing and removes nothing.
        assert len(list(legacy_store.cells_dir.glob("*.json"))) == 4
        assert not legacy_store.segments_dir.exists()


class TestTierMixes:
    def test_shard_merge_round_trip_across_tiers(
        self, legacy_cells, tmp_path, write_cell_files
    ):
        spec = LEGACY_SPEC
        shards = shard_cells(spec, 2)
        # Shard 0 is a legacy store, shard 1 a fresh packed run.
        legacy_shard = CampaignStore(spec.name, root=tmp_path / "shard0")
        legacy_shard.write_manifest(spec.to_manifest())
        write_cell_files(
            legacy_shard, {cell.key: legacy_cells[cell.key] for cell in shards[0]}
        )
        packed_shard = CampaignStore(spec.name, root=tmp_path / "shard1")
        run_campaign(spec, store=packed_shard, shard=(1, 2))
        assert len(cell_bytes(packed_shard)) == len(shards[1])
        # A legacy source is refused until it is folded ...
        dest = CampaignStore(spec.name, root=tmp_path / "dest")
        with pytest.raises(EvaluationError, match="repro campaign compact"):
            merge_campaign_stores(dest, legacy_shard)
        # ... and a legacy destination folds itself, then copies.
        into_legacy = merge_campaign_stores(legacy_shard, packed_shard)
        assert into_legacy.copied == len(shards[1])
        assert not legacy_shard.cells_dir.exists()
        assert cell_bytes(legacy_shard) == legacy_cells
        # Folded, it is an ordinary source.
        merged = merge_campaign_stores(dest, legacy_shard)
        assert merged.copied == len(legacy_cells)
        assert cell_bytes(dest) == legacy_cells

    def test_resume_after_partial_segment_loss(
        self, packed_store, legacy_cells, tmp_path
    ):
        root = tmp_path / "lossy"
        shutil.copytree(packed_store.root, root)
        store = CampaignStore(LEGACY_SPEC.name, root=root)
        segment = sorted(store.segments_dir.glob("seg-*.seg"))[-1]
        blob = segment.read_bytes()
        segment.write_bytes(blob[: len(blob) - 10])  # tear the last record
        segment.with_name(segment.name + ".idx.json").unlink()
        lost = len(legacy_cells) - len(store.completed_keys())
        assert lost >= 1
        summary = run_campaign(LEGACY_SPEC, store=store, resume=True)
        assert summary.executed == lost
        assert summary.skipped == len(legacy_cells) - lost
        assert cell_bytes(CampaignStore(LEGACY_SPEC.name, root=root)) == legacy_cells


class TestPivotReport:
    @pytest.fixture(scope="class")
    def ablation_store(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("pivot")
        spec = CampaignSpec(
            name="pivot-tiny",
            scenarios=(SCENARIOS[1],),
            variants=("fp32", "fp32+sigma=1.0", "fp32+beam_rows=2/3"),
            particle_counts=(16,),
            seeds=(0,),
        )
        store = CampaignStore(spec.name, root=root / "s")
        run_campaign(spec, store=store)
        return spec, store

    def test_pivot_by_sigma(self, ablation_store):
        spec, store = ablation_store
        report = pivot_report(spec.name, "sigma", store=store)
        rows = report[spec.scenarios[0]]
        default = format_override_value(MclConfig().sigma_obs)
        # fp32 and its sigma ablation share one base row; the beam_rows
        # variant keeps its override and forms its own row at the
        # default sigma column.
        assert set(rows[("fp32", 16)]) == {default, "1.0"}
        assert set(rows[("fp32+beam_rows=2/3", 16)]) == {default}
        for cells in rows.values():
            for aggregate in cells.values():
                assert aggregate["runs"] == 1

    def test_pivot_by_beam_rows(self, ablation_store):
        spec, store = ablation_store
        report = pivot_report(spec.name, "beam_rows", store=store)
        rows = report[spec.scenarios[0]]
        default = format_override_value(MclConfig().beam_rows)
        assert set(rows[("fp32", 16)]) == {default, "2/3"}
        assert set(rows[("fp32+sigma_obs=1.0", 16)]) == {default}

    def test_unknown_pivot_key_rejected(self, ablation_store):
        spec, store = ablation_store
        with pytest.raises(ConfigurationError, match="unknown pivot key"):
            pivot_report(spec.name, "warp", store=store)
