"""Grid path planning with clearance — the paper's stated extension.

The paper closes with "Future works will extend the proposed system to
applications such as path planning"; this module implements that extension
and, more importantly for the reproduction, generates the collision-free
waypoint routes flown by the six evaluation sequences.

Planning runs A* over the occupancy grid restricted to cells whose EDT
clearance exceeds the drone's safety radius, then simplifies the cell path
into a short waypoint list with line-of-sight shortcutting (every shortcut
is verified to keep the same clearance).
"""

from __future__ import annotations

import heapq
import math

import numpy as np

from ..common.errors import MapError
from .edt import euclidean_distance_field
from .occupancy import CellState, OccupancyGrid

#: Default clearance radius in metres (Crazyflie rotor radius + margin).
DEFAULT_CLEARANCE_M = 0.18

_SQRT2 = math.sqrt(2.0)
#: 8-connected neighbourhood: (d_row, d_col, step_cost).
_NEIGHBOURS = (
    (-1, 0, 1.0), (1, 0, 1.0), (0, -1, 1.0), (0, 1, 1.0),
    (-1, -1, _SQRT2), (-1, 1, _SQRT2), (1, -1, _SQRT2), (1, 1, _SQRT2),
)


def clearance_map(grid: OccupancyGrid, clearance_m: float = DEFAULT_CLEARANCE_M) -> np.ndarray:
    """Boolean mask of cells that are FREE with EDT >= ``clearance_m``."""
    if clearance_m < 0:
        raise MapError(f"clearance must be non-negative, got {clearance_m}")
    edt = euclidean_distance_field(grid, r_max=clearance_m + 1.0)
    return (grid.cells == CellState.FREE) & (edt >= clearance_m)


def _astar(
    traversable: np.ndarray, start: tuple[int, int], goal: tuple[int, int]
) -> list[tuple[int, int]]:
    """A* over a boolean traversability mask; returns the cell path.

    Octile-distance heuristic (admissible for the 8-connected costs).
    Raises :class:`MapError` when no path exists.
    """
    rows, cols = traversable.shape

    def heuristic(cell: tuple[int, int]) -> float:
        dr = abs(cell[0] - goal[0])
        dc = abs(cell[1] - goal[1])
        return (dr + dc) + (_SQRT2 - 2.0) * min(dr, dc)

    open_heap: list[tuple[float, tuple[int, int]]] = [(heuristic(start), start)]
    g_score = {start: 0.0}
    came_from: dict[tuple[int, int], tuple[int, int]] = {}
    closed: set[tuple[int, int]] = set()

    while open_heap:
        __, current = heapq.heappop(open_heap)
        if current == goal:
            path = [current]
            while current in came_from:
                current = came_from[current]
                path.append(current)
            path.reverse()
            return path
        if current in closed:
            continue
        closed.add(current)
        row, col = current
        for d_row, d_col, step in _NEIGHBOURS:
            nxt = (row + d_row, col + d_col)
            if not (0 <= nxt[0] < rows and 0 <= nxt[1] < cols):
                continue
            if not traversable[nxt]:
                continue
            # Forbid diagonal corner cutting through blocked cells.
            if d_row != 0 and d_col != 0:
                if not (traversable[row + d_row, col] and traversable[row, col + d_col]):
                    continue
            tentative = g_score[current] + step
            if tentative < g_score.get(nxt, math.inf):
                g_score[nxt] = tentative
                came_from[nxt] = current
                heapq.heappush(open_heap, (tentative + heuristic(nxt), nxt))
    raise MapError(f"no path from {start} to {goal} at the requested clearance")


def _segment_clear(
    traversable: np.ndarray, a: tuple[int, int], b: tuple[int, int]
) -> bool:
    """True when every cell sampled along segment a->b is traversable."""
    length = max(abs(b[0] - a[0]), abs(b[1] - a[1]))
    if length == 0:
        return bool(traversable[a])
    steps = np.linspace(0.0, 1.0, 2 * length + 1)
    rows = np.round(a[0] + (b[0] - a[0]) * steps).astype(int)
    cols = np.round(a[1] + (b[1] - a[1]) * steps).astype(int)
    return bool(np.all(traversable[rows, cols]))


def _shortcut(
    traversable: np.ndarray, path: list[tuple[int, int]]
) -> list[tuple[int, int]]:
    """Greedy line-of-sight simplification of a cell path."""
    if len(path) <= 2:
        return path
    simplified = [path[0]]
    anchor = 0
    while anchor < len(path) - 1:
        # Find the furthest visible cell from the current anchor.
        reach = anchor + 1
        for candidate in range(len(path) - 1, anchor, -1):
            if _segment_clear(traversable, path[anchor], path[candidate]):
                reach = candidate
                break
        simplified.append(path[reach])
        anchor = reach
    return simplified


def snap_to_clearance(
    grid: OccupancyGrid,
    point_xy: tuple[float, float],
    clearance_m: float = DEFAULT_CLEARANCE_M,
) -> tuple[float, float]:
    """Return the nearest clearance-valid cell center to ``point_xy``.

    Lets routes be specified from approximate hand-picked coordinates: if
    the point already satisfies the clearance it is returned unchanged,
    otherwise the closest traversable cell center is used.  Raises
    :class:`MapError` if the whole map lacks clearance-valid cells.
    """
    return _snap(grid, clearance_map(grid, clearance_m), point_xy, clearance_m)


def plan_route(
    grid: OccupancyGrid,
    start_xy: tuple[float, float],
    goal_xy: tuple[float, float],
    clearance_m: float = DEFAULT_CLEARANCE_M,
) -> list[tuple[float, float]]:
    """Plan a clearance-safe waypoint route between two world points.

    Returns world-coordinate waypoints, endpoints included.  Raises
    :class:`MapError` when either endpoint lacks clearance or no route
    exists.
    """
    return _route(grid, clearance_map(grid, clearance_m), start_xy, goal_xy, clearance_m)


def plan_tour(
    grid: OccupancyGrid,
    stops: list[tuple[float, float]],
    clearance_m: float = DEFAULT_CLEARANCE_M,
) -> list[tuple[float, float]]:
    """Chain :func:`plan_route` through a list of stops.

    Consecutive duplicate waypoints at the junctions are removed.
    """
    return _tour(grid, clearance_map(grid, clearance_m), stops, clearance_m)


def plan_snapped_tour(
    grid: OccupancyGrid,
    stops: list[tuple[float, float]],
    clearance_m: float = DEFAULT_CLEARANCE_M,
) -> list[tuple[float, float]]:
    """:func:`snap_to_clearance` every stop, then :func:`plan_tour` through
    them, on one clearance mask (one EDT for the whole tour)."""
    traversable = clearance_map(grid, clearance_m)
    snapped = [_snap(grid, traversable, stop, clearance_m) for stop in stops]
    return _tour(grid, traversable, snapped, clearance_m)


def _snap(
    grid: OccupancyGrid,
    traversable: np.ndarray,
    point_xy: tuple[float, float],
    clearance_m: float,
) -> tuple[float, float]:
    row, col = grid.world_to_grid(*point_xy)
    if (
        0 <= row < grid.rows
        and 0 <= col < grid.cols
        and traversable[int(row), int(col)]
    ):
        return (float(point_xy[0]), float(point_xy[1]))
    rows, cols = np.nonzero(traversable)
    if rows.size == 0:
        raise MapError(f"no cell satisfies the {clearance_m} m clearance")
    xs, ys = grid.grid_to_world(rows, cols)
    best = int(np.argmin((xs - point_xy[0]) ** 2 + (ys - point_xy[1]) ** 2))
    return (float(xs[best]), float(ys[best]))


def _route(
    grid: OccupancyGrid,
    traversable: np.ndarray,
    start_xy: tuple[float, float],
    goal_xy: tuple[float, float],
    clearance_m: float,
) -> list[tuple[float, float]]:
    start = tuple(int(v) for v in grid.world_to_grid(*start_xy))
    goal = tuple(int(v) for v in grid.world_to_grid(*goal_xy))
    for name, cell in (("start", start), ("goal", goal)):
        if not (0 <= cell[0] < grid.rows and 0 <= cell[1] < grid.cols):
            raise MapError(f"{name} {cell} lies outside the map")
        if not traversable[cell]:
            raise MapError(f"{name} cell {cell} violates the {clearance_m} m clearance")
    cell_path = _astar(traversable, start, goal)
    cell_path = _shortcut(traversable, cell_path)
    waypoints = []
    for row, col in cell_path:
        x, y = grid.grid_to_world(row, col)
        waypoints.append((float(x), float(y)))
    # Pin exact endpoints (cell centers may be half a cell off).
    waypoints[0] = (float(start_xy[0]), float(start_xy[1]))
    waypoints[-1] = (float(goal_xy[0]), float(goal_xy[1]))
    return waypoints


def _tour(
    grid: OccupancyGrid,
    traversable: np.ndarray,
    stops: list[tuple[float, float]],
    clearance_m: float,
) -> list[tuple[float, float]]:
    if len(stops) < 2:
        raise MapError("a tour needs at least two stops")
    waypoints: list[tuple[float, float]] = []
    for leg_start, leg_goal in zip(stops[:-1], stops[1:]):
        leg = _route(grid, traversable, leg_start, leg_goal, clearance_m)
        if waypoints:
            leg = leg[1:]
        waypoints.extend(leg)
    return waypoints
