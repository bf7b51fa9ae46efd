"""``campaign merge``: store union with byte-verified collisions."""

import json

import pytest

from repro.common.errors import EvaluationError
from repro.eval.campaign import (
    CampaignSpec,
    merge_campaign_stores,
    run_campaign,
)
from repro.eval.store import CampaignStore


def spec(scenarios) -> CampaignSpec:
    return CampaignSpec(
        name="merge-test",
        scenarios=tuple(scenarios),
        variants=("fp32",),
        particle_counts=(32,),
        seeds=(0,),
    )


SCENARIO_A = "office:1:flight_s=8"
SCENARIO_B = "corridor:1:flight_s=8"


@pytest.fixture(scope="module")
def sharded_stores(tmp_path_factory):
    """One campaign spec executed as two single-scenario shards plus the
    full reference store (what a single host would have produced)."""
    root = tmp_path_factory.mktemp("merge")
    full_spec = spec([SCENARIO_A, SCENARIO_B])
    shard_a = CampaignStore("merge-test", root=root / "a")
    shard_b = CampaignStore("merge-test", root=root / "b")
    reference = CampaignStore("merge-test", root=root / "ref")
    # Shards share the *full* manifest (one campaign, split cell lists):
    # execute only each shard's scenario by pre-marking the other's cells.
    run_campaign(full_spec, store=reference)
    for shard, own in ((shard_a, SCENARIO_A), (shard_b, SCENARIO_B)):
        shard.write_manifest(full_spec.to_manifest())
        with shard:
            for cell in full_spec.cells():
                if cell.scenario == own:
                    shard.put_cell_bytes(
                        cell.key, reference.get_cell_bytes(cell.key)
                    )
    return root, full_spec, shard_a, shard_b, reference


class TestMerge:
    def test_union_of_shards_equals_single_host_store(self, sharded_stores, tmp_path):
        root, full_spec, shard_a, shard_b, reference = sharded_stores
        dest = CampaignStore("merge-test", root=tmp_path / "dest")
        first = merge_campaign_stores(dest, shard_a)
        second = merge_campaign_stores(dest, shard_b)
        assert first.copied == 1 and second.copied == 1
        assert dest.manifest_path.read_bytes() == reference.manifest_path.read_bytes()
        assert dict(dest.iter_cell_bytes()) == dict(reference.iter_cell_bytes())
        for cell in full_spec.cells():
            assert dest.get_cell_bytes(cell.key) == reference.get_cell_bytes(
                cell.key
            )

    def test_byte_equal_collisions_are_verified(self, sharded_stores, tmp_path):
        __, __, shard_a, __, __ = sharded_stores
        dest = CampaignStore("merge-test", root=tmp_path / "dest")
        merge_campaign_stores(dest, shard_a)
        again = merge_campaign_stores(dest, shard_a)
        assert again.copied == 0
        assert again.verified == 1

    def test_byte_mismatch_raises(self, sharded_stores, tmp_path):
        __, full_spec, shard_a, __, __ = sharded_stores
        dest = CampaignStore("merge-test", root=tmp_path / "dest")
        merge_campaign_stores(dest, shard_a)
        key = next(
            cell.key for cell in full_spec.cells() if cell.scenario == SCENARIO_A
        )
        # Tamper with the packed record itself (still valid JSON, same
        # length): a key in a segment is never read from a cells/ file.
        segment, offset, length = dest._packed_index()[key]
        blob = bytearray(segment.read_bytes())
        record = bytes(blob[offset : offset + length])
        blob[offset : offset + length] = record.replace(b'"runs"', b'"rune"')
        segment.write_bytes(bytes(blob))
        tampered = CampaignStore("merge-test", root=dest.root)
        assert tampered.get_cell_bytes(key) != record
        with pytest.raises(EvaluationError, match="different bytes"):
            merge_campaign_stores(tampered, shard_a)

    def test_mismatched_manifests_rejected(self, sharded_stores, tmp_path):
        __, __, shard_a, __, __ = sharded_stores
        dest = CampaignStore("other", root=tmp_path / "other")
        dest.write_manifest(spec([SCENARIO_B]).to_manifest())
        with pytest.raises(EvaluationError, match="manifests differ"):
            merge_campaign_stores(dest, shard_a)

    def test_missing_source_manifest_rejected(self, tmp_path):
        dest = CampaignStore("d", root=tmp_path / "d")
        source = CampaignStore("s", root=tmp_path / "s")
        with pytest.raises(EvaluationError, match="no manifest"):
            merge_campaign_stores(dest, source)

    def test_torn_source_cells_are_skipped(self, sharded_stores, tmp_path):
        __, __, shard_a, __, __ = sharded_stores
        source = CampaignStore("merge-test", root=tmp_path / "torn")
        # Identical manifest bytes: reuse the shard's.
        source.write_manifest(json.loads(shard_a.manifest_path.read_text()))
        with source:
            source.put_cell("torn", {"v": 1})
            source.put_cell("whole", {"v": 2})
        # Damage the first sealed record in place, behind its trusted
        # sidecar: the record is sliced out as-is and no longer parses.
        segment, offset, length = source._packed_index()["torn"]
        blob = bytearray(segment.read_bytes())
        blob[offset + length - 3 : offset + length] = b"   "  # its closing brace
        segment.write_bytes(bytes(blob))
        assert CampaignStore("merge-test", root=source.root).get_cell("torn") is None
        dest = CampaignStore("merge-test", root=tmp_path / "dest")
        summary = merge_campaign_stores(dest, source)
        assert summary.skipped_invalid == 1
        assert summary.copied == 1
        assert dest.completed_keys() == {"whole"}
