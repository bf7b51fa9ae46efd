"""Tests for the six canonical evaluation sequences."""

import numpy as np
import pytest

from repro.common.errors import DatasetError
from repro.dataset.sequences import (
    SEQUENCE_SCRIPTS,
    data_directory,
    generate_sequence,
    load_sequence,
)
from repro.maps.maze import build_drone_maze_world


class TestScripts:
    def test_six_sequences_like_the_paper(self):
        assert len(SEQUENCE_SCRIPTS) == 6

    def test_unique_names_and_seeds(self):
        names = {s.name for s in SEQUENCE_SCRIPTS}
        seeds = {s.sim_seed for s in SEQUENCE_SCRIPTS}
        assert len(names) == 6
        assert len(seeds) == 6

    def test_stops_inside_main_maze(self):
        for script in SEQUENCE_SCRIPTS:
            for x, y in script.stops:
                assert 0.0 < x < 4.0
                assert 0.0 < y < 4.0


class TestLoadSequence:
    def test_rejects_bad_index(self):
        with pytest.raises(DatasetError):
            load_sequence(6)
        with pytest.raises(DatasetError):
            load_sequence(-1)

    def test_cached_load_roundtrip(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_DATA_DIR", str(tmp_path))
        assert str(data_directory()).startswith(str(tmp_path))

    def test_load_uses_cache(self):
        # The repository cache was produced by generate-data; loading must
        # be fast and consistent.
        world = build_drone_maze_world()
        seq = load_sequence(0, world)
        assert seq.name == SEQUENCE_SCRIPTS[0].name
        assert seq.duration_s > 30.0
        assert len(seq.tracks) == 2


class TestGenerateSequence:
    @pytest.fixture(scope="class")
    def world(self):
        return build_drone_maze_world()

    def test_flight_stays_in_main_maze(self, world):
        seq = load_sequence(0, world)
        main = world.main
        for i in range(0, len(seq), 50):
            pose = seq.ground_truth_pose(i)
            assert main.contains(pose.x, pose.y)

    def test_ground_truth_in_free_space(self, world):
        seq = load_sequence(1, world)
        for i in range(0, len(seq), 50):
            pose = seq.ground_truth_pose(i)
            assert world.grid.is_free(pose.x, pose.y)

    def test_odometry_drifts_from_truth(self, world):
        seq = load_sequence(2, world)
        start = seq.ground_truth_pose(0)
        final_rel = start.between(seq.ground_truth_pose(len(seq) - 1))
        final_odo = seq.odometry_pose(len(seq) - 1)
        drift = ((final_rel.x - final_odo.x) ** 2 + (final_rel.y - final_odo.y) ** 2) ** 0.5
        assert drift > 0.01

    def test_sequences_differ(self, world):
        a = load_sequence(0, world)
        b = load_sequence(1, world)
        assert a.ground_truth[0].tolist() != b.ground_truth[0].tolist() or len(a) != len(b)

    @pytest.mark.parametrize("script", SEQUENCE_SCRIPTS, ids=lambda s: s.name)
    def test_committed_sequence_regenerates_bit_for_bit(self, world, script):
        # Each committed flight (760-1 050 frames) is regenerated and must
        # equal the file's every array: dtype, shape and bytes.  A change to
        # the planner, the simulator or the sensor model that moves one
        # byte of a long flight fails here (the 8 s digests are pinned in
        # tests/golden/test_pinned_worlds.py).
        payload = generate_sequence(script, world).to_npz_payload()
        with np.load(data_directory() / f"{script.name}.npz") as committed:
            assert sorted(committed.files) == sorted(payload)
            for key, array in payload.items():
                stored = committed[key]
                assert (stored.dtype, stored.shape) == (array.dtype, array.shape), key
                assert stored.tobytes() == np.ascontiguousarray(array).tobytes(), key
