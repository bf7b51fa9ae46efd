"""Exact Euclidean distance transform (EDT) of an occupancy grid.

The observation model (paper Eq. 1) scores a beam endpoint by its distance
to the nearest obstacle; those distances are precomputed per cell with the
exact EDT of Felzenszwalb & Huttenlocher, *Distance Transforms of Sampled
Functions* (Theory of Computing, 2012) — the transform the paper cites
([21]).

F&H separate the squared transform into a pass over columns and a pass
over rows: with ``G[r, c]`` the squared distance from cell ``(r, c)`` to the
nearest obstacle in its own column, the squared distance to the nearest
obstacle anywhere is ``D[r, c] = min over d of d**2 + G[r, c + d]``.
:func:`squared_edt` computes exactly that ``D`` — the same integers F&H's
lower-envelope scans produce, with no chamfer approximation — in two
whole-array numpy passes:

1. **Columns.** A running ``np.maximum.accumulate`` of obstacle row
   indices from the top and an ``np.minimum.accumulate`` from the bottom
   give every cell its nearest obstacle row above and below; the nearer
   one gives ``G``.
2. **Rows.** ``D`` starts as ``G`` and takes the minimum with
   ``d**2 + G[r, c - d]`` and ``d**2 + G[r, c + d]`` for ``d = 1, 2, ...``,
   stopping once ``d**2 >= D.max()``: no farther column can then lower
   any cell.

Pass 2 runs one step per cell of the largest distance in the grid, and,
given a ``limit``, at most ``limit`` steps: a cell whose ``D`` is at
most ``limit**2`` finds its nearest column within ``|d| <= limit``, and
every other cell ends above ``limit**2``.  The metric field is
truncated at ``r_max`` (paper Sec. III-C1), so it stops pass 2 after
at most ``ceil(r_max / resolution) + 1`` offsets: both kinds of cell clip
to the same value as the unbounded transform, with a whole cell of
margin.
"""

from __future__ import annotations

import numpy as np

from ..common.errors import MapError
from .occupancy import OccupancyGrid

#: Squared distance returned for every cell of a mask with no obstacle.
_INF = np.float64(1e20)


def squared_edt(obstacle_mask: np.ndarray, limit: int | None = None) -> np.ndarray:
    """Exact squared EDT (in cells²) of a boolean obstacle mask.

    Cells where ``obstacle_mask`` is True have distance 0.  Returns a
    float64 array of squared cell distances, each an exact integer.  A
    mask with no obstacles returns ``inf``-like values (``>= 1e20``)
    everywhere.  With a ``limit`` (in cells), a cell is exact where its
    squared distance is at most ``limit**2`` and above ``limit**2``
    everywhere else.
    """
    mask = np.asarray(obstacle_mask, dtype=bool)
    if mask.ndim != 2:
        raise MapError(f"obstacle mask must be 2-D, got shape {mask.shape}")
    if not mask.any():
        return np.full(mask.shape, _INF)
    rows, cols = mask.shape
    # Farther than any two cells of the grid: the column distance of a
    # column with no obstacle.  Every value below stays under
    # (2 * rows + cols) ** 2 + cols ** 2, which int64 holds for any grid
    # that fits in memory.
    far = rows + cols
    index = np.arange(rows, dtype=np.int64)[:, None]
    # Pass 1: distance to the nearest obstacle above and below in each
    # column, from running extrema of the obstacle row indices.
    up = np.where(mask, index, -far)
    np.maximum.accumulate(up, axis=0, out=up)
    np.subtract(index, up, out=up)
    down = np.where(mask, index, rows + far)
    np.minimum.accumulate(down[::-1], axis=0, out=down[::-1])
    down -= index
    column_sq = np.minimum(up, down, out=up)
    column_sq *= column_sq
    # Pass 2: the nearest column, one column offset d at a time.
    best = column_sq.copy()
    shifted = down  # spent; holds d**2 + column_sq shifted by d
    last = cols - 1 if limit is None else min(cols - 1, limit)
    d = 1
    while d <= last and d * d < best.max():
        np.add(column_sq[:, d:], d * d, out=shifted[:, :-d])
        np.minimum(best[:, :-d], shifted[:, :-d], out=best[:, :-d])
        np.add(column_sq[:, :-d], d * d, out=shifted[:, d:])
        np.minimum(best[:, d:], shifted[:, d:], out=best[:, d:])
        d += 1
    return best.astype(np.float64)


def euclidean_distance_field(
    grid: OccupancyGrid, r_max: float | None = None
) -> np.ndarray:
    """Truncated metric EDT of an occupancy grid, as a float64 array.

    Distances are measured from each cell center to the nearest OCCUPIED
    cell center, in metres.  When ``r_max`` is given, values are clipped to
    it — the paper truncates at ``r_max = 1.5 m`` so that far-from-wall
    endpoints saturate to a common worst score, which also enables the
    uint8 quantization.

    A grid with no occupied cell yields ``r_max`` everywhere (or raises
    if no truncation was requested, since distances would be undefined).
    Pass 2 of the transform stops at most ``ceil(r_max / resolution) + 1``
    cells out (:func:`squared_edt`'s ``limit``): every cell farther than
    that clips to ``r_max`` all the same.
    """
    if r_max is not None and r_max <= 0:
        raise MapError(f"r_max must be positive, got {r_max}")
    mask = grid.occupied_mask()
    if not bool(mask.any()):
        if r_max is None:
            raise MapError("grid has no occupied cells and no r_max was given")
        return np.full(mask.shape, float(r_max), dtype=np.float64)
    if r_max is None:
        return np.sqrt(squared_edt(mask)) * grid.resolution
    limit = int(np.ceil(r_max / grid.resolution)) + 1
    dist = np.sqrt(squared_edt(mask, limit)) * grid.resolution
    np.clip(dist, 0.0, float(r_max), out=dist)
    return dist


def brute_force_edt(obstacle_mask: np.ndarray) -> np.ndarray:
    """O(n²) reference EDT in cells, for testing the fast implementation.

    Only suitable for small grids; the unit tests use it as an
    independent oracle.
    """
    mask = np.asarray(obstacle_mask, dtype=bool)
    rows, cols = mask.shape
    obs_r, obs_c = np.nonzero(mask)
    if obs_r.size == 0:
        return np.full(mask.shape, np.sqrt(_INF))
    grid_r, grid_c = np.meshgrid(np.arange(rows), np.arange(cols), indexing="ij")
    dr = grid_r[:, :, None] - obs_r[None, None, :]
    dc = grid_c[:, :, None] - obs_c[None, None, :]
    return np.sqrt(np.min(dr * dr + dc * dc, axis=2).astype(np.float64))
