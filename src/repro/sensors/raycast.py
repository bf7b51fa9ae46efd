"""Grid raycasting used to synthesize ground-truth range measurements.

The physical VL53L5CX measures the time of flight of photons to the first
reflective surface.  In simulation, the equivalent is casting a ray through
the occupancy grid until it enters an OCCUPIED cell; the traversal uses the
classic DDA / Amanatides–Woo stepping so each cell along the ray is visited
exactly once.

Every function works on arrays of rays, each with its own origin: a
flight's rays are cast in one lockstep pass, one cell step of every
unfinished ray per iteration.  Each ray does the same IEEE ``+``, ``/``
and comparisons as a scalar walk would, so a ray's range does not depend
on which other rays share its pass.

UNKNOWN cells are transparent: the real maze stands inside a larger room,
and the paper's sensor sees through unmapped space until a physical wall —
rays leaving the structured area simply run out of range.
"""

from __future__ import annotations

import math

import numpy as np

from ..common.errors import MapError
from ..maps.occupancy import OccupancyGrid

#: ``math.hypot(col, row)`` of every occupancy gradient ``(col, row)`` a
#: 3x3 window can give, indexed ``[col + 3, row + 3]``.
_GRADIENT_NORMS = np.array(
    [[math.hypot(float(c), float(r)) for r in range(-3, 4)] for c in range(-3, 4)]
)

#: Cell codes of the ray walk: a ray passes a clear cell (FREE or
#: UNKNOWN), stops with its range on an occupied one and stops out of
#: range outside the map.
_CLEAR, _OCCUPIED, _OUTSIDE = 0, 1, 2

#: The eight neighbours and the centre of a 3x3 window, as (d_row, d_col).
_WINDOW = np.array([(d_row, d_col) for d_row in (-1, 0, 1) for d_col in (-1, 0, 1)])


def ray_directions(angles) -> tuple[np.ndarray, np.ndarray]:
    """Unit direction ``(cos, sin)`` of every angle, shaped like ``angles``.

    Evaluated per angle with ``math.cos``/``math.sin`` (the platform's
    libm), not numpy's vectorized ``cos``, whose last bit may differ.
    """
    angles = np.asarray(angles, dtype=np.float64)
    flat = angles.ravel().tolist()
    dir_x = np.fromiter(map(math.cos, flat), np.float64, len(flat))
    dir_y = np.fromiter(map(math.sin, flat), np.float64, len(flat))
    return dir_x.reshape(angles.shape), dir_y.reshape(angles.shape)


def cast_rays(
    grid: OccupancyGrid,
    start_x,
    start_y,
    dir_x,
    dir_y,
    max_range: float,
) -> np.ndarray:
    """Distance from each start to the first OCCUPIED cell along its ray.

    The four ray arrays broadcast together (a scalar start serves every
    ray); the result has their shape.  A ray that hits nothing within
    ``max_range`` reads ``max_range`` (the caller models the sensor's
    out-of-range behaviour), and a start inside an occupied cell reads 0.
    """
    if max_range <= 0:
        raise MapError(f"max_range must be positive, got {max_range}")
    start_x, start_y, dir_x, dir_y = np.broadcast_arrays(
        *(np.asarray(v, dtype=np.float64) for v in (start_x, start_y, dir_x, dir_y))
    )
    shape = dir_x.shape
    start_x, start_y, dir_x, dir_y = (
        v.ravel() for v in (start_x, start_y, dir_x, dir_y)
    )
    rows, cols = grid.cells.shape
    res = grid.resolution
    out = np.full(dir_x.size, float(max_range))
    # The map's cells, flat, inside a two-cell border that ends any ray
    # reaching it.  A ray stops on its first cell outside the map, so a
    # ray that starts at most one cell outside never gets further than
    # two; one that starts further out stops on its first step.
    stride = cols + 4
    codes = np.full((rows + 4, stride), _OUTSIDE, dtype=np.int8)
    codes[2:-2, 2:-2] = np.where(grid.occupied_mask(), _OCCUPIED, _CLEAR)
    codes = codes.ravel()

    row, col = grid.world_to_grid(start_x, start_y)
    near = (row >= -1) & (row <= rows) & (col >= -1) & (col <= cols)
    cell = np.where(near, (row + 2) * stride + col + 2, 0)
    start_hit = near & (codes[cell] == _OCCUPIED)
    out[start_hit] = 0.0

    # Distance along each ray to its first vertical / horizontal cell
    # border, and between borders; an axis the ray runs parallel to is
    # never crossed (infinite distance, no step).
    step_col = (dir_x > 0).astype(np.int64) - (dir_x < 0)
    step_row = (dir_y > 0).astype(np.int64) - (dir_y < 0)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        t_max_x = np.where(
            step_col != 0,
            ((grid.origin_x + (col + (step_col > 0)) * res) - start_x) / dir_x,
            math.inf,
        )
        t_max_y = np.where(
            step_row != 0,
            ((grid.origin_y + (row + (step_row > 0)) * res) - start_y) / dir_y,
            math.inf,
        )
        t_delta_x = np.where(step_col != 0, res / np.abs(dir_x), math.inf)
        t_delta_y = np.where(step_row != 0, res / np.abs(dir_y), math.inf)

    # Lockstep walk over the unfinished rays, compacted after every step
    # that finishes one.
    live = np.flatnonzero(near & ~start_hit)
    t_max_x, t_max_y, t_delta_x, t_delta_y, step_x, step_y, cell = (
        a[live]
        for a in (t_max_x, t_max_y, t_delta_x, t_delta_y, step_col, step_row * stride, cell)
    )
    while live.size:
        along_x = t_max_x < t_max_y
        travelled = np.where(along_x, t_max_x, t_max_y)
        t_max_x = np.where(along_x, t_max_x + t_delta_x, t_max_x)
        t_max_y = np.where(along_x, t_max_y, t_max_y + t_delta_y)
        cell = cell + np.where(along_x, step_x, step_y)
        code = codes[cell]
        # Beyond range or outside the map: nothing left to hit.
        within = travelled <= max_range
        going = within & (code == _CLEAR)
        if going.all():
            continue
        hit = within & (code == _OCCUPIED)
        out[live[hit]] = travelled[hit]
        live = live[going]
        t_max_x, t_max_y, t_delta_x, t_delta_y, step_x, step_y, cell = (
            a[going] for a in (t_max_x, t_max_y, t_delta_x, t_delta_y, step_x, step_y, cell)
        )
    return out.reshape(shape)


def incidence_angles(
    grid: OccupancyGrid,
    start_x,
    start_y,
    dir_x,
    dir_y,
    hit_range,
) -> np.ndarray:
    """Each ray's incidence angle at the surface it hit, in radians.

    0 means perpendicular (best reflectivity), pi/2 grazing.  The surface
    normal is estimated from the occupancy gradient of the 3x3 window
    around the hit cell (indices clamped to the grid); used by the ToF
    model to raise error flags on grazing hits, which is a documented
    VL53L5CX failure mode.  A window with no occupied cell reads 0.

    The arrays broadcast together, as in :func:`cast_rays`; pass only
    rays that hit something.
    """
    start_x, start_y, dir_x, dir_y, hit_range = np.broadcast_arrays(
        *(
            np.asarray(v, dtype=np.float64)
            for v in (start_x, start_y, dir_x, dir_y, hit_range)
        )
    )
    shape = dir_x.shape
    row, col = grid.world_to_grid(start_x + dir_x * hit_range, start_y + dir_y * hit_range)
    rows, cols = grid.cells.shape
    window_rows = np.clip(row.reshape(-1, 1) + _WINDOW[:, 0], 0, rows - 1)
    window_cols = np.clip(col.reshape(-1, 1) + _WINDOW[:, 1], 0, cols - 1)
    window = grid.occupied_mask()[window_rows, window_cols]
    # Occupancy gradient via central differences: integers in [-3, 3].
    grad_row = window @ _WINDOW[:, 0]
    grad_col = window @ _WINDOW[:, 1]
    norm = _GRADIENT_NORMS[grad_col + 3, grad_row + 3]
    incidence = np.zeros(norm.shape)
    surface = norm >= 1e-9
    norm = norm[surface]
    # Normal points from the surface toward free space (opposite gradient).
    normal_x = -grad_col[surface].astype(np.float64) / norm
    normal_y = -grad_row[surface].astype(np.float64) / norm
    # Incidence: angle between the reverse ray direction and the normal.
    reverse_x = -dir_x.ravel()[surface]
    reverse_y = -dir_y.ravel()[surface]
    cosine = np.abs(np.clip(normal_x * reverse_x + normal_y * reverse_y, -1.0, 1.0))
    incidence[surface] = np.fromiter(map(math.acos, cosine.tolist()), np.float64, cosine.size)
    return incidence.reshape(shape)
