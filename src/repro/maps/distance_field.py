"""Distance-field storage variants: fp32, fp16 and quantized uint8.

The paper compares three in-memory representations of the precomputed EDT
(Sec. III-C2): 32-bit floats, 16-bit floats and 8-bit quantized unsigned
integers.  All three are exposed here behind one lookup API so the
observation model is agnostic to the storage choice; the memory accounting
(bytes per cell) feeds the Fig. 9 capacity analysis.

Lookups happen in world coordinates.  Points outside the stored grid
return ``r_max`` — off-map space is maximally far from any known obstacle,
which makes the beam-end-point likelihood saturate exactly like a truncated
in-map cell.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from enum import Enum

import numpy as np

from ..common.errors import MapError
from ..common.precision import (
    QUANT_LEVELS,
    PrecisionMode,
    dequantize_distances,
    quantize_distances,
)
from .edt import euclidean_distance_field
from .occupancy import CellState, OccupancyGrid


class FieldKind(Enum):
    """Storage representation of the distance field."""

    FLOAT32 = "float32"
    FLOAT16 = "float16"
    QUANTIZED_U8 = "quantized_u8"

    @property
    def bytes_per_cell(self) -> int:
        """Bytes per cell of the EDT payload alone (occupancy excluded)."""
        return {"float32": 4, "float16": 2, "quantized_u8": 1}[self.value]

    @staticmethod
    def for_mode(mode: PrecisionMode) -> "FieldKind":
        """Field kind used by a paper precision mode (fp32 vs *qm)."""
        return FieldKind.QUANTIZED_U8 if mode.edt_quantized else FieldKind.FLOAT32


@dataclass
class DistanceField:
    """A truncated EDT over a metric grid with pluggable storage.

    Attributes
    ----------
    data:
        ``(rows, cols)`` array in the storage dtype (float32/float16/uint8).
    kind:
        Which representation ``data`` uses.
    r_max:
        Truncation distance in metres; also the quantization full scale.
    resolution, origin_x, origin_y:
        Metric frame, identical to the source occupancy grid's.
    """

    data: np.ndarray
    kind: FieldKind
    r_max: float
    resolution: float
    origin_x: float
    origin_y: float

    #: Lazily built payloads of :meth:`lookup_squared_world` (not part of
    #: the dataclass comparison/serialization surface).
    _sq64: np.ndarray | None = dataclasses.field(
        default=None, repr=False, compare=False
    )
    _sq64_lut: np.ndarray | None = dataclasses.field(
        default=None, repr=False, compare=False
    )
    #: The squared-distance table and geometry as the ``fast`` backend's
    #: C observation stage takes them, wrapped on its first use of the field
    #: (:class:`repro.engine.fast_c.StackKernels`).
    c_tables: tuple | None = dataclasses.field(
        default=None, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if self.data.ndim != 2:
            raise MapError(f"distance field must be 2-D, got shape {self.data.shape}")
        if self.r_max <= 0:
            raise MapError(f"r_max must be positive, got {self.r_max}")
        expected = {
            FieldKind.FLOAT32: np.float32,
            FieldKind.FLOAT16: np.float16,
            FieldKind.QUANTIZED_U8: np.uint8,
        }[self.kind]
        if self.data.dtype != np.dtype(expected):
            raise MapError(
                f"{self.kind.value} field requires dtype {np.dtype(expected)}, got {self.data.dtype}"
            )

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @staticmethod
    def build(
        grid: OccupancyGrid,
        r_max: float,
        kind: FieldKind = FieldKind.FLOAT32,
        metrics: dict[float, np.ndarray] | None = None,
    ) -> "DistanceField":
        """Compute the truncated EDT of ``grid`` and store it as ``kind``.

        The EDT is evaluated on a canvas **padded by r_max** on every side:
        a measured range that overshoots a border wall by a few
        centimetres (plain ranging noise) must score as "centimetres from
        an obstacle", not as the maximal off-map penalty — otherwise maps
        whose walls coincide with the grid edge punish the *true* pose.
        Beyond the padding the lookup saturates at ``r_max``, which is
        exact because no obstacle can be closer than the padding width.

        Every kind converts one float64 metric EDT.  ``metrics``, a dict
        that keeps ``grid``'s metric EDTs by ``r_max``, shares it between
        builds: a build takes it from there, or computes it and puts it
        there, so the kinds of one map cost one transform
        (:class:`~repro.eval.sweep_engine.DistanceFieldCache` keeps one
        such dict per map and ``r_max``, and so bounds how many metric
        EDTs it keeps).
        """
        if r_max <= 0:
            raise MapError(f"r_max must be positive, got {r_max}")
        pad = int(np.ceil(r_max / grid.resolution))
        padded_cells = np.full(
            (grid.rows + 2 * pad, grid.cols + 2 * pad),
            int(CellState.UNKNOWN),
            dtype=np.uint8,
        )
        padded_cells[pad : pad + grid.rows, pad : pad + grid.cols] = grid.cells
        padded = OccupancyGrid(
            padded_cells,
            resolution=grid.resolution,
            origin_x=grid.origin_x - pad * grid.resolution,
            origin_y=grid.origin_y - pad * grid.resolution,
        )
        if metrics is None:
            metrics = {}
        metric = metrics.get(float(r_max))
        if metric is None:
            metric = metrics[float(r_max)] = euclidean_distance_field(padded, r_max)
        if kind is FieldKind.FLOAT32:
            data = metric.astype(np.float32)
        elif kind is FieldKind.FLOAT16:
            data = metric.astype(np.float16)
        else:
            data = quantize_distances(metric, r_max)
        return DistanceField(
            data=data,
            kind=kind,
            r_max=float(r_max),
            resolution=padded.resolution,
            origin_x=padded.origin_x,
            origin_y=padded.origin_y,
        )

    @staticmethod
    def build_for_mode(
        grid: OccupancyGrid, r_max: float, mode: PrecisionMode
    ) -> "DistanceField":
        """Build the field variant a paper precision mode calls for."""
        return DistanceField.build(grid, r_max, FieldKind.for_mode(mode))

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def values_metres(self) -> np.ndarray:
        """The full field decoded to float32 metres (copies for quantized)."""
        if self.kind is FieldKind.QUANTIZED_U8:
            return dequantize_distances(self.data, self.r_max)
        return self.data.astype(np.float32)

    def lookup_world(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Distances (float32, metres) at world points of any shape.

        Out-of-bounds points return ``r_max``.  This is the hot path of the
        observation model: it must stay fully vectorized, and it works on
        owned temporaries in place — every operation produces the exact
        values of the straightforward ``floor((p - origin) / res)`` +
        per-axis-clipped gather formulation, with about half the
        full-size temporaries.
        """
        col = self._world_to_index(x, self.origin_x)
        row = self._world_to_index(y, self.origin_y)
        rows, cols = self.data.shape
        inside = row >= 0
        inside &= row < rows
        inside &= col >= 0
        inside &= col < cols
        # Flat gather with clipped indices: out-of-range flat positions
        # read an arbitrary in-range cell, which the mask overwrites with
        # r_max below — exactly what the per-axis clip achieved.
        row *= cols
        row += col
        raw = self.data.take(row, mode="clip")
        if self.kind is FieldKind.QUANTIZED_U8:
            dist = dequantize_distances(raw, self.r_max)
        else:
            dist = raw if raw.dtype == np.float32 else raw.astype(np.float32)
        np.copyto(dist, np.float32(self.r_max), where=~inside)
        return dist

    def _world_to_index(self, coord: np.ndarray, origin: float) -> np.ndarray:
        """``floor((coord - origin) / resolution)`` as int64, via one temp."""
        scaled = np.subtract(coord, origin)
        scaled /= self.resolution
        np.floor(scaled, out=scaled)
        return scaled.astype(np.int64)

    def lookup_squared_world(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """``lookup_world(x, y) ** 2`` in float64, without the wide passes.

        The observation model only ever consumes ``d**2`` in float64.
        Squaring commutes with the gather: because float32 -> float64
        conversion is exact, squaring each *cell value* once up front
        (into the float64 payload of :meth:`squared_table`) yields
        bit-identical results to gathering, widening and squaring every
        beam end point — while skipping two full-size array passes per
        observation.
        """
        col = self._world_to_index(x, self.origin_x)
        row = self._world_to_index(y, self.origin_y)
        rows, cols = self.data.shape
        inside = row >= 0
        inside &= row < rows
        inside &= col >= 0
        inside &= col < cols
        row *= cols
        row += col
        sq = self.squared_table().take(row, mode="clip")
        np.copyto(sq, self.border_squared(), where=~inside)
        return sq

    def squared_lut(self) -> np.ndarray:
        """256-entry float64 code -> squared-metres table (quantized only).

        Built lazily once per field; :meth:`squared_table` decodes a
        quantized field's cells through it.
        """
        if self.kind is not FieldKind.QUANTIZED_U8:
            raise MapError("squared_lut is only defined for quantized fields")
        if self._sq64_lut is None:
            codes = np.arange(QUANT_LEVELS, dtype=np.uint8)
            lut = dequantize_distances(codes, self.r_max).astype(np.float64)
            self._sq64_lut = np.square(lut)
        return self._sq64_lut

    def squared_table(self) -> np.ndarray:
        """Flat float64 squared-metres payload, one entry per cell.

        Row-major, built lazily once per field, and shared by
        :meth:`lookup_squared_world` and the fast backend's C observation
        stage, so both gather the same values.  A float cell widens to
        float64 exactly, so squaring each cell once up front is
        bit-identical to widening and squaring per lookup; a quantized
        cell is its code's :meth:`squared_lut` entry.
        """
        if self._sq64 is None:
            if self.kind is FieldKind.QUANTIZED_U8:
                self._sq64 = self.squared_lut()[self.data].reshape(-1)
            else:
                sq64 = self.data.astype(np.float64)
                np.square(sq64, out=sq64)
                self._sq64 = sq64.reshape(-1)
        return self._sq64

    def border_squared(self) -> float:
        """Out-of-bounds squared distance: ``float64(float32(r_max)) ** 2``."""
        return float(np.float64(np.float32(self.r_max)) ** 2)

    # ------------------------------------------------------------------
    # Memory accounting (Fig. 9)
    # ------------------------------------------------------------------
    @property
    def bytes_per_cell(self) -> int:
        """Bytes per cell of the EDT payload."""
        return self.kind.bytes_per_cell

    def memory_bytes(self) -> int:
        """Total bytes of the stored field."""
        return int(self.data.nbytes)

    def max_abs_error_metres(self) -> float:
        """Worst-case representation error of this storage kind in metres.

        fp32 is treated as exact; fp16 error is bounded by half ULP at
        ``r_max``; quantized error is half a quantization step.
        """
        if self.kind is FieldKind.QUANTIZED_U8:
            return self.r_max / (2 * 255)
        if self.kind is FieldKind.FLOAT16:
            return float(np.spacing(np.float16(self.r_max))) / 2
        return 0.0
