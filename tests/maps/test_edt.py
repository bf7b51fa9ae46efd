"""Tests for the exact Euclidean distance transform.

Squared cell distances are integers, so ``squared_edt`` is compared
exactly (``array_equal``) with a brute-force minimum over every obstacle.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.common.errors import MapError
from repro.maps.edt import brute_force_edt, euclidean_distance_field, squared_edt
from repro.maps.occupancy import CellState, OccupancyGrid

#: Shapes that exercise both passes' edges: single cells, single rows and
#: columns, and non-square grids either way round.
SHAPES = [(1, 1), (1, 9), (9, 1), (1, 40), (40, 1), (3, 17), (17, 3), (12, 25)]
CORNERS = [(0, 0), (0, -1), (-1, 0), (-1, -1)]


def _brute_force_squared(mask: np.ndarray) -> np.ndarray:
    """Integer squared distance from every cell to its nearest obstacle."""
    obs_r, obs_c = np.nonzero(mask)
    grid_r, grid_c = np.indices(mask.shape)
    dr = grid_r[:, :, None] - obs_r
    dc = grid_c[:, :, None] - obs_c
    return np.min(dr * dr + dc * dc, axis=2)


def _assert_exact(mask: np.ndarray) -> None:
    ours = squared_edt(mask)
    assert ours.dtype == np.float64
    np.testing.assert_array_equal(ours, _brute_force_squared(mask))


class TestSquaredEdt:
    def test_single_obstacle(self):
        mask = np.zeros((5, 5), dtype=bool)
        mask[2, 2] = True
        dist_sq = squared_edt(mask)
        assert dist_sq[2, 2] == 0.0
        assert dist_sq[2, 3] == 1.0
        assert dist_sq[0, 0] == 8.0
        # One obstacle in a corner: the farthest cell is the opposite
        # corner, so pass 2 runs to the full diagonal.
        for shape in SHAPES + [(31, 47), (47, 31)]:
            for corner in CORNERS:
                mask = np.zeros(shape, dtype=bool)
                mask[corner] = True
                _assert_exact(mask)

    def test_matches_brute_force_on_random_masks(self):
        rng = np.random.default_rng(0)
        for shape in [(20, 30)] * 10 + SHAPES * 2:
            mask = rng.random(shape) < 0.1
            mask[rng.integers(shape[0]), rng.integers(shape[1])] = True
            _assert_exact(mask)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(1)
        mask = rng.random((12, 9)) < 0.15
        mask[3, 3] = True
        np.testing.assert_array_equal(np.sqrt(squared_edt(mask)), brute_force_edt(mask))

    def test_rejects_non_2d(self):
        with pytest.raises(MapError):
            squared_edt(np.zeros(5, dtype=bool))

    def test_all_obstacles_zero_everywhere(self):
        for shape in SHAPES + [(4, 4)]:
            np.testing.assert_array_equal(
                squared_edt(np.ones(shape, dtype=bool)), np.zeros(shape)
            )

    def test_no_obstacles_is_effectively_infinite(self):
        for shape in SHAPES + [(3, 3)]:
            dist_sq = squared_edt(np.zeros(shape, dtype=bool))
            assert dist_sq.shape == shape
            assert np.all(dist_sq >= 1e20)

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.integers(1, 16),
        st.integers(1, 16),
        st.sampled_from([0.0, 0.02, 0.25, 0.7, 1.0]),
    )
    def test_property_matches_brute_force(self, seed, rows, cols, density):
        rng = np.random.default_rng(seed)
        mask = rng.random((rows, cols)) < density
        if mask.any():
            _assert_exact(mask)
        else:
            assert np.all(squared_edt(mask) >= 1e20)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_property_triangle_inequality_on_neighbours(self, seed):
        # EDT values of 4-adjacent cells can differ by at most 1 cell.
        rng = np.random.default_rng(seed)
        mask = rng.random((15, 15)) < 0.2
        if not mask.any():
            mask[7, 7] = True
        dist = np.sqrt(squared_edt(mask))
        assert np.all(np.abs(np.diff(dist, axis=0)) <= 1.0 + 1e-9)
        assert np.all(np.abs(np.diff(dist, axis=1)) <= 1.0 + 1e-9)


def _bounded_cases():
    """(mask, limit) pairs: random densities, empty and all-occupied masks."""
    return st.tuples(
        st.integers(0, 2**32 - 1),
        st.integers(1, 24),
        st.integers(1, 24),
        st.sampled_from([0.0, 0.01, 0.05, 0.2, 1.0]),
        st.integers(0, 30),
    )


class TestBoundedSquaredEdt:
    @settings(max_examples=60, deadline=None)
    @given(_bounded_cases())
    def test_exact_within_the_limit_and_above_it_elsewhere(self, case):
        seed, rows, cols, density, limit = case
        mask = np.random.default_rng(seed).random((rows, cols)) < density
        full = squared_edt(mask)
        bounded = squared_edt(mask, limit)
        near = full <= limit * limit
        np.testing.assert_array_equal(bounded[near], full[near])
        assert np.all(bounded[~near] > limit * limit)

    def test_all_occupied_and_empty_masks(self):
        for limit in (0, 1, 5):
            np.testing.assert_array_equal(
                squared_edt(np.ones((6, 9), dtype=bool), limit), np.zeros((6, 9))
            )
            assert np.all(squared_edt(np.zeros((6, 9), dtype=bool), limit) >= 1e20)


def _unbounded_field(grid: OccupancyGrid, r_max: float) -> np.ndarray:
    """The metric field as it was before pass 2 stopped at ``r_max``."""
    dist = np.sqrt(squared_edt(grid.occupied_mask())) * grid.resolution
    return np.clip(dist, 0.0, r_max)


class TestTruncatedFieldBytes:
    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.sampled_from([0.0, 0.02, 0.1, 0.3, 1.0]),
        st.sampled_from([0.05, 0.1, 0.25]),
        # Below one cell, exact multiples of the resolution, and between.
        st.sampled_from([0.01, 0.05, 0.1, 0.3, 0.5, 0.77, 1.0, 1.5, 2.5]),
    )
    def test_byte_equal_to_the_unbounded_transform(self, seed, density, resolution, r_max):
        rng = np.random.default_rng(seed)
        mask = rng.random((40, 33)) < density
        cells = np.where(mask, CellState.OCCUPIED, CellState.FREE).astype(np.uint8)
        grid = OccupancyGrid(cells, resolution=resolution)
        field = euclidean_distance_field(grid, r_max)
        if mask.any():
            assert field.tobytes() == _unbounded_field(grid, r_max).tobytes()
        else:
            assert np.all(field == r_max)

    def test_paper_world_is_byte_equal(self):
        from repro.maps.maze import build_drone_maze_world

        grid = build_drone_maze_world().grid
        for r_max in (0.3, 1.0, 1.5, 2.0):
            field = euclidean_distance_field(grid, r_max)
            assert field.tobytes() == _unbounded_field(grid, r_max).tobytes()


class TestEuclideanDistanceField:
    def _grid_with_center_wall(self) -> OccupancyGrid:
        cells = np.zeros((21, 21), dtype=np.uint8)
        cells[:, 10] = CellState.OCCUPIED
        return OccupancyGrid(cells, resolution=0.1)

    def test_metric_scaling(self):
        grid = self._grid_with_center_wall()
        dist = euclidean_distance_field(grid)
        # 5 cells from the wall at 0.1 m resolution.
        assert dist[0, 5] == pytest.approx(0.5)

    def test_truncation(self):
        grid = self._grid_with_center_wall()
        dist = euclidean_distance_field(grid, r_max=0.3)
        assert dist.max() == pytest.approx(0.3)
        assert dist[0, 5] == pytest.approx(0.3)  # 0.5 clipped
        assert dist[0, 8] == pytest.approx(0.2)  # below truncation untouched

    def test_zero_on_occupied_cells(self):
        grid = self._grid_with_center_wall()
        dist = euclidean_distance_field(grid, r_max=1.0)
        assert np.all(dist[grid.occupied_mask()] == 0.0)

    def test_unknown_cells_still_get_distances(self):
        cells = np.full((5, 5), int(CellState.UNKNOWN), dtype=np.uint8)
        cells[2, 2] = CellState.OCCUPIED
        grid = OccupancyGrid(cells, resolution=1.0)
        dist = euclidean_distance_field(grid, r_max=10.0)
        assert dist[2, 3] == pytest.approx(1.0)

    def test_no_obstacles_requires_rmax(self):
        grid = OccupancyGrid(np.zeros((4, 4), dtype=np.uint8))
        with pytest.raises(MapError):
            euclidean_distance_field(grid)
        dist = euclidean_distance_field(grid, r_max=1.5)
        assert np.all(dist == 1.5)

    def test_invalid_rmax(self):
        grid = self._grid_with_center_wall()
        with pytest.raises(MapError):
            euclidean_distance_field(grid, r_max=-0.1)

    @pytest.mark.parametrize("r_max", [0.0, -1.0])
    def test_invalid_rmax_is_refused_before_any_work(self, r_max, monkeypatch):
        # The transform's bound derives from r_max, so a bad one must
        # stop the call before the mask or the transform is computed.
        import repro.maps.edt as edt

        def no_transform(*args, **kwargs):
            raise AssertionError("the transform ran for a bad r_max")

        monkeypatch.setattr(edt, "squared_edt", no_transform)
        grid = self._grid_with_center_wall()
        monkeypatch.setattr(grid, "occupied_mask", no_transform)
        with pytest.raises(MapError, match="r_max must be positive"):
            euclidean_distance_field(grid, r_max=r_max)
