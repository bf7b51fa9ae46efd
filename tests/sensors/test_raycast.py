"""Tests for the lockstep DDA grid raycaster and the incidence estimate."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.common.errors import MapError
from repro.maps.builder import MapBuilder
from repro.maps.maze import build_drone_maze_world
from repro.maps.occupancy import CellState, OccupancyGrid
from repro.sensors.raycast import cast_rays, incidence_angles, ray_directions


def box_room(size: float = 2.0, res: float = 0.05) -> OccupancyGrid:
    return (
        MapBuilder(size, size, res)
        .fill_rect(0, 0, size, size, CellState.FREE)
        .add_border()
        .build()
    )


def cast(grid, x, y, angle, max_range) -> float:
    """One ray through the array function."""
    dir_x, dir_y = ray_directions([angle])
    return float(cast_rays(grid, x, y, dir_x, dir_y, max_range)[0])


def incidence(grid, x, y, angle, hit_range) -> float:
    dir_x, dir_y = ray_directions([angle])
    return float(incidence_angles(grid, x, y, dir_x, dir_y, hit_range)[0])


def walk_ray(grid, start_x, start_y, angle, max_range) -> float:
    """The scalar Amanatides–Woo walk the array pass must reproduce."""
    row, col = (int(v) for v in grid.world_to_grid(start_x, start_y))
    cells = grid.cells
    rows, cols = cells.shape
    occupied = int(CellState.OCCUPIED)
    if 0 <= row < rows and 0 <= col < cols and cells[row, col] == occupied:
        return 0.0
    dir_x, dir_y = math.cos(angle), math.sin(angle)
    res = grid.resolution
    if dir_x > 0:
        step_col = 1
        t_max_x = ((grid.origin_x + (col + 1) * res) - start_x) / dir_x
        t_delta_x = res / dir_x
    elif dir_x < 0:
        step_col = -1
        t_max_x = ((grid.origin_x + col * res) - start_x) / dir_x
        t_delta_x = -res / dir_x
    else:
        step_col, t_max_x, t_delta_x = 0, math.inf, math.inf
    if dir_y > 0:
        step_row = 1
        t_max_y = ((grid.origin_y + (row + 1) * res) - start_y) / dir_y
        t_delta_y = res / dir_y
    elif dir_y < 0:
        step_row = -1
        t_max_y = ((grid.origin_y + row * res) - start_y) / dir_y
        t_delta_y = -res / dir_y
    else:
        step_row, t_max_y, t_delta_y = 0, math.inf, math.inf
    while True:
        if t_max_x < t_max_y:
            travelled, t_max_x, col = t_max_x, t_max_x + t_delta_x, col + step_col
        else:
            travelled, t_max_y, row = t_max_y, t_max_y + t_delta_y, row + step_row
        if travelled > max_range or not (0 <= row < rows and 0 <= col < cols):
            return float(max_range)
        if cells[row, col] == occupied:
            return float(travelled)


def window_incidence(grid, start_x, start_y, angle, hit_range) -> float:
    """The scalar 3x3-window incidence the array pass must reproduce."""
    hit_x = start_x + math.cos(angle) * hit_range
    hit_y = start_y + math.sin(angle) * hit_range
    row, col = (int(v) for v in grid.world_to_grid(hit_x, hit_y))
    occupied = grid.occupied_mask()
    grad_col = grad_row = 0.0
    for d_row in (-1, 0, 1):
        for d_col in (-1, 0, 1):
            r = min(max(row + d_row, 0), grid.rows - 1)
            c = min(max(col + d_col, 0), grid.cols - 1)
            if occupied[r, c]:
                grad_row += d_row
                grad_col += d_col
    norm = math.hypot(grad_col, grad_row)
    if norm < 1e-9:
        return 0.0
    cosine = (-grad_col / norm) * -math.cos(angle) + (-grad_row / norm) * -math.sin(angle)
    return math.acos(abs(max(-1.0, min(1.0, cosine))))


class TestCastRay:
    """One ray at a time through the array function."""

    def test_hit_right_wall(self):
        grid = box_room()
        # From the center, facing +x: wall cells start at x = 1.95.
        assert cast(grid, 1.0, 1.0, 0.0, 5.0) == pytest.approx(0.95, abs=grid.resolution)

    def test_hit_left_wall(self):
        grid = box_room()
        assert cast(grid, 1.0, 1.0, math.pi, 5.0) == pytest.approx(0.95, abs=grid.resolution)

    def test_hit_top_wall(self):
        grid = box_room()
        assert cast(grid, 1.0, 1.0, math.pi / 2, 5.0) == pytest.approx(0.95, abs=grid.resolution)

    def test_diagonal_hit(self):
        grid = box_room()
        dist = cast(grid, 1.0, 1.0, math.pi / 4, 5.0)
        assert dist == pytest.approx(0.95 * math.sqrt(2.0), abs=2 * grid.resolution)

    def test_max_range_when_no_obstacle(self):
        assert cast(box_room(), 1.0, 1.0, 0.0, 0.5) == 0.5

    def test_start_inside_wall_returns_zero(self):
        assert cast(box_room(), 0.01, 0.01, 0.0, 5.0) == 0.0

    def test_ray_leaving_map_returns_max_range(self):
        # Free map without borders: ray exits the grid.
        grid = MapBuilder(1.0, 1.0, 0.05).fill_rect(0, 0, 1, 1).build()
        assert cast(grid, 0.5, 0.5, 0.0, 3.0) == 3.0

    def test_unknown_cells_are_transparent(self):
        # UNKNOWN gap between the start and a far wall.
        builder = MapBuilder(3.0, 1.0, 0.05).fill_rect(0.0, 0.0, 1.0, 1.0)
        builder.add_wall(2.5, 0.0, 2.5, 1.0, thickness=0.1)
        grid = builder.build()
        assert cast(grid, 0.5, 0.5, 0.0, 5.0) == pytest.approx(2.0, abs=2 * grid.resolution)

    def test_invalid_max_range(self):
        with pytest.raises(MapError):
            cast(box_room(), 1.0, 1.0, 0.0, 0.0)

    @settings(max_examples=40, deadline=None)
    @given(
        st.floats(min_value=0.3, max_value=1.7),
        st.floats(min_value=0.3, max_value=1.7),
        st.floats(min_value=-math.pi, max_value=math.pi),
    )
    def test_property_range_bounded_and_consistent(self, x, y, angle):
        grid = box_room()
        dist = cast(grid, x, y, angle, 5.0)
        assert 0.0 <= dist <= 5.0
        if dist < 5.0:
            # The hit point must be on (or within a cell of) an occupied cell.
            hx = x + math.cos(angle) * (dist + grid.resolution / 4)
            hy = y + math.sin(angle) * (dist + grid.resolution / 4)
            row, col = grid.world_to_grid(hx, hy)
            row = int(np.clip(row, 0, grid.rows - 1))
            col = int(np.clip(col, 0, grid.cols - 1))
            window = grid.cells[
                max(row - 1, 0) : row + 2, max(col - 1, 0) : col + 2
            ]
            assert np.any(window == CellState.OCCUPIED)

    @settings(max_examples=20, deadline=None)
    @given(
        st.floats(min_value=0.4, max_value=1.6),
        st.floats(min_value=0.4, max_value=1.6),
        st.floats(min_value=-math.pi, max_value=math.pi),
    )
    def test_property_monotone_in_max_range(self, x, y, angle):
        grid = box_room()
        short = cast(grid, x, y, angle, 0.4)
        full = cast(grid, x, y, angle, 5.0)
        if full <= 0.4:
            assert short == pytest.approx(full, abs=1e-9)
        else:
            assert short == 0.4


class TestCastRays:
    """Many rays, each with its own origin, in one call."""

    def test_preserves_shape(self):
        grid = box_room()
        dir_x, dir_y = ray_directions(np.zeros((2, 4)))
        assert cast_rays(grid, 1.0, 1.0, dir_x, dir_y, 5.0).shape == (2, 4)
        starts = np.array([[1.0], [0.5]])
        ranges = cast_rays(grid, starts, 1.0, dir_x, dir_y, 5.0)
        assert ranges.shape == (2, 4)
        assert ranges[1, 0] > ranges[0, 0]

    def test_batch_matches_single(self):
        grid = box_room()
        xs = np.array([0.3, 1.0, 1.7, 0.6])
        angles = np.array([0.0, 2.0, -2.5, math.pi / 2])
        dir_x, dir_y = ray_directions(angles)
        together = cast_rays(grid, xs, 1.0, dir_x, dir_y, 5.0)
        alone = [cast(grid, float(x), 1.0, float(a), 5.0) for x, a in zip(xs, angles)]
        assert together.tolist() == alone


class TestMatchesScalarWalk:
    """The lockstep pass equals a scalar walk of each ray, bit for bit."""

    @pytest.fixture(scope="class")
    def rays(self):
        grid = build_drone_maze_world().grid
        rng = np.random.default_rng(11)
        count = 600
        xs = rng.uniform(grid.origin_x - 0.3, grid.origin_x + grid.width_m + 0.3, count)
        ys = rng.uniform(grid.origin_y - 0.3, grid.origin_y + grid.height_m + 0.3, count)
        angles = rng.uniform(-math.pi, math.pi, count)
        # Axis-parallel rays, starts on cell borders, and starts in the
        # ring of cells just outside the map (a ray from there can still
        # enter it).
        angles[:40] = np.resize([0.0, math.pi / 2, -math.pi / 2, math.pi, -math.pi], 40)
        cells = np.round((xs[40:80] - grid.origin_x) / grid.resolution)
        xs[40:80] = grid.origin_x + cells * grid.resolution
        xs[80:120] = grid.origin_x - 0.5 * grid.resolution
        ys[120:160] = grid.origin_y + grid.height_m + 0.5 * grid.resolution
        return grid, xs, ys, angles

    def test_ranges(self, rays):
        grid, xs, ys, angles = rays
        dir_x, dir_y = ray_directions(angles)
        for max_range in (4.0, 0.7):
            ranges = cast_rays(grid, xs, ys, dir_x, dir_y, max_range)
            expected = [
                walk_ray(grid, float(x), float(y), float(a), max_range)
                for x, y, a in zip(xs, ys, angles)
            ]
            assert ranges.tobytes() == np.array(expected).tobytes()

    def test_incidence(self, rays):
        grid, xs, ys, angles = rays
        dir_x, dir_y = ray_directions(angles)
        ranges = cast_rays(grid, xs, ys, dir_x, dir_y, 4.0)
        hit = (ranges < 4.0) & (ranges > 0.0)
        assert hit.sum() > 100
        angles_in = incidence_angles(grid, xs[hit], ys[hit], dir_x[hit], dir_y[hit], ranges[hit])
        expected = [
            window_incidence(grid, float(x), float(y), float(a), float(r))
            for x, y, a, r in zip(xs[hit], ys[hit], angles[hit], ranges[hit])
        ]
        assert angles_in.tobytes() == np.array(expected).tobytes()

    def test_directions_are_libm(self, rays):
        __, __, __, angles = rays
        dir_x, dir_y = ray_directions(angles)
        assert dir_x.tolist() == [math.cos(a) for a in angles.tolist()]
        assert dir_y.tolist() == [math.sin(a) for a in angles.tolist()]


class TestIncidenceAngle:
    def test_perpendicular_hit_near_zero(self):
        grid = box_room()
        dist = cast(grid, 1.0, 1.0, 0.0, 5.0)
        assert incidence(grid, 1.0, 1.0, 0.0, dist) < math.radians(30)

    def test_grazing_hit_large_angle(self):
        grid = box_room()
        # Ray nearly parallel to the right wall.
        direction = math.radians(85)
        dist = cast(grid, 1.9, 0.3, direction, 5.0)
        assert dist < 5.0
        assert 0.0 <= incidence(grid, 1.9, 0.3, direction, dist) <= math.pi / 2

    def test_no_hit_returns_zero(self):
        grid = box_room()
        # A "hit" in open space: the 3x3 window holds no surface.
        assert incidence(grid, 1.0, 1.0, 0.0, 0.3) == 0.0

    def test_preserves_shape(self):
        grid = box_room()
        dir_x, dir_y = ray_directions(np.zeros((2, 3)))
        ranges = cast_rays(grid, 1.0, 1.0, dir_x, dir_y, 5.0)
        assert incidence_angles(grid, 1.0, 1.0, dir_x, dir_y, ranges).shape == (2, 3)
