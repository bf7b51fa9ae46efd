"""Grid raycasting used to synthesize ground-truth range measurements.

The physical VL53L5CX measures the time of flight of photons to the first
reflective surface.  In simulation, the equivalent is casting a ray through
the occupancy grid until it enters an OCCUPIED cell; the traversal uses the
classic DDA / Amanatides–Woo stepping so each cell along the ray is visited
exactly once.

UNKNOWN cells are transparent: the real maze stands inside a larger room,
and the paper's sensor sees through unmapped space until a physical wall —
rays leaving the structured area simply run out of range.
"""

from __future__ import annotations

import math

import numpy as np

from ..common.errors import MapError
from ..maps.occupancy import CellState, OccupancyGrid


def cast_ray(
    grid: OccupancyGrid,
    start_x: float,
    start_y: float,
    angle: float,
    max_range: float,
) -> float:
    """Distance from start to the first OCCUPIED cell along ``angle``.

    Returns ``max_range`` when no obstacle is hit within range (the caller
    models the sensor's out-of-range behaviour).  A start point inside an
    occupied cell returns 0.
    """
    if max_range <= 0:
        raise MapError(f"max_range must be positive, got {max_range}")

    row, col = grid.world_to_grid(start_x, start_y)
    row = int(row)
    col = int(col)
    # The stepping loop below runs per cell: look up the grid once here.
    cells = grid.cells
    rows, cols = cells.shape
    occupied = int(CellState.OCCUPIED)
    if 0 <= row < rows and 0 <= col < cols and cells[row, col] == occupied:
        return 0.0

    dir_x = math.cos(angle)
    dir_y = math.sin(angle)
    res = grid.resolution

    # Distance along the ray to the first vertical / horizontal cell border.
    if dir_x > 0:
        step_col = 1
        t_max_x = ((grid.origin_x + (col + 1) * res) - start_x) / dir_x
        t_delta_x = res / dir_x
    elif dir_x < 0:
        step_col = -1
        t_max_x = ((grid.origin_x + col * res) - start_x) / dir_x
        t_delta_x = -res / dir_x
    else:
        step_col = 0
        t_max_x = math.inf
        t_delta_x = math.inf

    if dir_y > 0:
        step_row = 1
        t_max_y = ((grid.origin_y + (row + 1) * res) - start_y) / dir_y
        t_delta_y = res / dir_y
    elif dir_y < 0:
        step_row = -1
        t_max_y = ((grid.origin_y + row * res) - start_y) / dir_y
        t_delta_y = -res / dir_y
    else:
        step_row = 0
        t_max_y = math.inf
        t_delta_y = math.inf

    travelled = 0.0
    while travelled <= max_range:
        if t_max_x < t_max_y:
            travelled = t_max_x
            t_max_x += t_delta_x
            col += step_col
        else:
            travelled = t_max_y
            t_max_y += t_delta_y
            row += step_row
        if travelled > max_range:
            break
        if not (0 <= row < rows and 0 <= col < cols):
            # Outside the map: nothing left to hit along this ray.
            break
        if cells[row, col] == occupied:
            return float(travelled)
    return float(max_range)


def cast_rays(
    grid: OccupancyGrid,
    start_x: float,
    start_y: float,
    angles: np.ndarray,
    max_range: float,
) -> np.ndarray:
    """Cast many rays from one origin; returns an array of ranges.

    This is the ground-truth generator for a full ToF zone matrix: one ray
    per zone azimuth.
    """
    angles = np.asarray(angles, dtype=np.float64)
    out = np.empty(angles.shape, dtype=np.float64)
    flat = angles.reshape(-1)
    flat_out = out.reshape(-1)
    for index in range(flat.size):
        flat_out[index] = cast_ray(grid, start_x, start_y, float(flat[index]), max_range)
    return out


def incidence_angle(
    grid: OccupancyGrid,
    start_x: float,
    start_y: float,
    angle: float,
    hit_range: float,
) -> float:
    """Estimate the ray's incidence angle at the hit surface, in radians.

    0 means perpendicular (best reflectivity), pi/2 grazing.  The surface
    normal is estimated from the local occupancy gradient around the hit
    cell; used by the ToF model to raise error flags on grazing hits, which
    is a documented VL53L5CX failure mode.

    Returns 0 for out-of-range "hits" (no surface).
    """
    if hit_range >= 0.999 * 1e9:
        return 0.0
    hit_x = start_x + math.cos(angle) * hit_range
    hit_y = start_y + math.sin(angle) * hit_range
    row, col = grid.world_to_grid(hit_x, hit_y)
    row = int(row)
    col = int(col)
    occupied = grid.occupied_mask()
    # Occupancy gradient via central differences on a 3x3 window.
    grad_col = 0.0
    grad_row = 0.0
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
    # Normal points from the surface toward free space (opposite gradient).
    normal_x = -grad_col / norm
    normal_y = -grad_row / norm
    # Incidence: angle between the reverse ray direction and the normal.
    reverse_x = -math.cos(angle)
    reverse_y = -math.sin(angle)
    cosine = max(-1.0, min(1.0, normal_x * reverse_x + normal_y * reverse_y))
    return math.acos(abs(cosine))
