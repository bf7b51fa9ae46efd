"""Tests for clearance-aware grid path planning."""

import numpy as np
import pytest

from repro.common.errors import MapError
from repro.maps.builder import MapBuilder
from repro.maps.edt import euclidean_distance_field
from repro.maps.maze import main_drone_maze
from repro.maps.occupancy import CellState
from repro.maps import planning
from repro.maps.planning import (
    clearance_map,
    plan_route,
    plan_snapped_tour,
    plan_tour,
    snap_to_clearance,
)


def open_room():
    return (
        MapBuilder(2.0, 2.0, 0.05)
        .fill_rect(0, 0, 2, 2, CellState.FREE)
        .add_border()
        .build()
    )


def room_with_wall():
    # A wall across the middle with a gap near the top.
    return (
        MapBuilder(2.0, 2.0, 0.05)
        .fill_rect(0, 0, 2, 2, CellState.FREE)
        .add_border()
        .add_wall(1.0, 0.0, 1.0, 1.5)
        .build()
    )


class TestClearanceMap:
    def test_near_wall_cells_excluded(self):
        grid = open_room()
        mask = clearance_map(grid, clearance_m=0.2)
        # Cell adjacent to the border wall has clearance ~0.05.
        row, col = grid.world_to_grid(0.125, 1.0)
        assert not mask[row, col]
        # Center of the room is clear.
        row, col = grid.world_to_grid(1.0, 1.0)
        assert mask[row, col]

    def test_negative_clearance_rejected(self):
        with pytest.raises(MapError):
            clearance_map(open_room(), clearance_m=-0.1)


class TestPlanRoute:
    def test_straight_line_in_open_room(self):
        grid = open_room()
        route = plan_route(grid, (0.5, 0.5), (1.5, 1.5), clearance_m=0.15)
        assert route[0] == (0.5, 0.5)
        assert route[-1] == (1.5, 1.5)
        # Line-of-sight shortcutting collapses an open room to 2-3 points.
        assert len(route) <= 3

    def test_route_detours_around_wall(self):
        grid = room_with_wall()
        route = plan_route(grid, (0.5, 0.5), (1.5, 0.5), clearance_m=0.12)
        # Must pass through the gap above y = 1.5.
        max_y = max(y for __, y in route)
        assert max_y > 1.5

    def test_route_respects_clearance_everywhere(self):
        grid = room_with_wall()
        clearance = 0.12
        route = plan_route(grid, (0.5, 0.5), (1.5, 0.5), clearance_m=clearance)
        edt = euclidean_distance_field(grid, r_max=2.0)
        # Sample densely along every leg and check the clearance holds
        # (waypoints are cell centers, allow half-cell slack).
        for (x0, y0), (x1, y1) in zip(route[:-1], route[1:]):
            for t in np.linspace(0, 1, 50):
                x = x0 + t * (x1 - x0)
                y = y0 + t * (y1 - y0)
                row, col = grid.world_to_grid(x, y)
                assert edt[row, col] >= clearance - grid.resolution

    def test_unreachable_goal_raises(self):
        # Fully separated rooms.
        grid = (
            MapBuilder(2.0, 1.0, 0.05)
            .fill_rect(0, 0, 2, 1, CellState.FREE)
            .add_border()
            .add_wall(1.0, 0.0, 1.0, 1.0, thickness=0.1)
            .build()
        )
        with pytest.raises(MapError):
            plan_route(grid, (0.5, 0.5), (1.5, 0.5), clearance_m=0.1)

    def test_start_in_wall_raises(self):
        grid = open_room()
        with pytest.raises(MapError):
            plan_route(grid, (0.0, 0.0), (1.0, 1.0), clearance_m=0.15)

    def test_goal_outside_map_raises(self):
        grid = open_room()
        with pytest.raises(MapError):
            plan_route(grid, (1.0, 1.0), (5.0, 5.0), clearance_m=0.15)

    def test_route_through_main_maze(self):
        # The hand-crafted maze must be navigable corner to corner.
        grid = main_drone_maze()
        route = plan_route(grid, (0.5, 0.5), (3.5, 3.5), clearance_m=0.15)
        assert len(route) >= 3  # must weave through corridors


class TestPlanTour:
    def test_tour_concatenates_legs(self):
        grid = open_room()
        tour = plan_tour(grid, [(0.5, 0.5), (1.5, 0.5), (1.5, 1.5)], clearance_m=0.15)
        assert tour[0] == (0.5, 0.5)
        assert tour[-1] == (1.5, 1.5)
        assert (1.5, 0.5) in tour

    def test_no_duplicate_junctions(self):
        grid = open_room()
        tour = plan_tour(grid, [(0.5, 0.5), (1.5, 0.5), (1.5, 1.5)], clearance_m=0.15)
        for a, b in zip(tour[:-1], tour[1:]):
            assert a != b

    def test_single_stop_rejected(self):
        with pytest.raises(MapError):
            plan_tour(open_room(), [(0.5, 0.5)])


class TestPlanSnappedTour:
    STOPS = [(0.02, 0.3), (0.5, 1.9), (1.5, 1.0), (-1.0, 0.5)]

    def test_equals_snapping_then_planning(self):
        grid = room_with_wall()
        snapped = [snap_to_clearance(grid, stop, 0.15) for stop in self.STOPS]
        assert plan_snapped_tour(grid, self.STOPS, 0.15) == plan_tour(grid, snapped, 0.15)

    def test_builds_one_clearance_mask(self, monkeypatch):
        builds = []

        def counting(grid, r_max):
            builds.append(r_max)
            return euclidean_distance_field(grid, r_max=r_max)

        monkeypatch.setattr(planning, "euclidean_distance_field", counting)
        plan_snapped_tour(room_with_wall(), self.STOPS, 0.15)
        assert len(builds) == 1
