"""Tests for the fp32 / fp16 / quantized distance-field storage variants."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.common.errors import MapError
from repro.common.precision import PrecisionMode
from repro.maps.distance_field import DistanceField, FieldKind
from repro.maps.occupancy import CellState, OccupancyGrid


def _make_wall_grid() -> OccupancyGrid:
    cells = np.zeros((40, 40), dtype=np.uint8)
    cells[:, 0] = CellState.OCCUPIED
    cells[0, :] = CellState.OCCUPIED
    cells[20, 10:30] = CellState.OCCUPIED
    return OccupancyGrid(cells, resolution=0.05)


@pytest.fixture()
def wall_grid() -> OccupancyGrid:
    return _make_wall_grid()


R_MAX = 1.5

_FIELD_CACHE: list = []


def _CACHED_FIELDS():
    """fp32 + quantized fields shared across hypothesis examples."""
    if not _FIELD_CACHE:
        grid = _make_wall_grid()
        _FIELD_CACHE.append(
            (
                DistanceField.build(grid, R_MAX, FieldKind.FLOAT32),
                DistanceField.build(grid, R_MAX, FieldKind.QUANTIZED_U8),
            )
        )
    return _FIELD_CACHE[0]


class TestFieldKind:
    def test_bytes_per_cell(self):
        assert FieldKind.FLOAT32.bytes_per_cell == 4
        assert FieldKind.FLOAT16.bytes_per_cell == 2
        assert FieldKind.QUANTIZED_U8.bytes_per_cell == 1

    def test_mode_mapping_matches_paper_variants(self):
        assert FieldKind.for_mode(PrecisionMode.FP32) is FieldKind.FLOAT32
        assert FieldKind.for_mode(PrecisionMode.FP32_QM) is FieldKind.QUANTIZED_U8
        assert FieldKind.for_mode(PrecisionMode.FP16_QM) is FieldKind.QUANTIZED_U8


class TestBuild:
    def test_dtypes(self, wall_grid):
        assert DistanceField.build(wall_grid, R_MAX, FieldKind.FLOAT32).data.dtype == np.float32
        assert DistanceField.build(wall_grid, R_MAX, FieldKind.FLOAT16).data.dtype == np.float16
        assert (
            DistanceField.build(wall_grid, R_MAX, FieldKind.QUANTIZED_U8).data.dtype == np.uint8
        )

    def test_dtype_mismatch_rejected(self, wall_grid):
        field = DistanceField.build(wall_grid, R_MAX, FieldKind.FLOAT32)
        with pytest.raises(MapError):
            DistanceField(
                data=field.data.astype(np.float64),
                kind=FieldKind.FLOAT32,
                r_max=R_MAX,
                resolution=field.resolution,
                origin_x=0.0,
                origin_y=0.0,
            )

    def test_values_truncated(self, wall_grid):
        for kind in FieldKind:
            field = DistanceField.build(wall_grid, R_MAX, kind)
            values = field.values_metres()
            assert float(values.max()) <= R_MAX + 1e-6
            assert float(values.min()) >= 0.0

    def test_quantized_matches_fp32_within_half_step(self, wall_grid):
        fp32 = DistanceField.build(wall_grid, R_MAX, FieldKind.FLOAT32)
        quant = DistanceField.build(wall_grid, R_MAX, FieldKind.QUANTIZED_U8)
        worst = np.max(np.abs(fp32.values_metres() - quant.values_metres()))
        assert worst <= quant.max_abs_error_metres() + 1e-6

    def test_build_for_mode(self, wall_grid):
        field = DistanceField.build_for_mode(wall_grid, R_MAX, PrecisionMode.FP16_QM)
        assert field.kind is FieldKind.QUANTIZED_U8


class TestLookup:
    def test_zero_on_wall(self, wall_grid):
        field = DistanceField.build(wall_grid, R_MAX)
        # Wall column 0 spans x in [0, 0.05).
        dist = field.lookup_world(np.array([0.025]), np.array([1.0]))
        assert dist[0] == pytest.approx(0.0, abs=1e-6)

    def test_known_distance(self, wall_grid):
        field = DistanceField.build(wall_grid, R_MAX)
        # Point (0.525, 0.525) sits 10 cells (0.5 m) from the left wall,
        # bottom wall and the interior wall alike.
        dist = field.lookup_world(np.array([0.525]), np.array([0.525]))
        assert dist[0] == pytest.approx(0.5, abs=1e-6)

    def test_out_of_bounds_returns_rmax(self, wall_grid):
        field = DistanceField.build(wall_grid, R_MAX)
        dist = field.lookup_world(np.array([-5.0, 100.0]), np.array([0.0, 0.0]))
        np.testing.assert_allclose(dist, [R_MAX, R_MAX])

    def test_preserves_shape(self, wall_grid):
        field = DistanceField.build(wall_grid, R_MAX)
        x = np.zeros((7, 3)) + 0.5
        y = np.zeros((7, 3)) + 0.5
        assert field.lookup_world(x, y).shape == (7, 3)

    def test_lookup_returns_float32(self, wall_grid):
        for kind in FieldKind:
            field = DistanceField.build(wall_grid, R_MAX, kind)
            out = field.lookup_world(np.array([0.5]), np.array([0.5]))
            assert out.dtype == np.float32

    @pytest.mark.parametrize("kind", list(FieldKind))
    def test_squared_lookup_is_the_widened_lookup_squared(self, wall_grid, kind):
        """Squaring each cell once up front equals widening and squaring
        every looked-up distance, bit for bit, off-map points included."""
        field = DistanceField.build(wall_grid, R_MAX, kind)
        rng = np.random.default_rng(3)
        x = rng.uniform(-1.0, 3.0, (5, 6, 7))
        y = rng.uniform(-1.0, 3.0, (5, 6, 7))
        got = field.lookup_squared_world(x, y)
        expected = np.square(field.lookup_world(x, y).astype(np.float64))
        assert got.dtype == np.float64
        assert got.tobytes() == expected.tobytes()

    @settings(max_examples=25, deadline=None)
    @given(
        st.floats(min_value=-1.0, max_value=3.0),
        st.floats(min_value=-1.0, max_value=3.0),
    )
    def test_quantized_lookup_close_to_fp32(self, x, y):
        fp32, quant = _CACHED_FIELDS()
        a = fp32.lookup_world(np.array([x]), np.array([y]))
        b = quant.lookup_world(np.array([x]), np.array([y]))
        assert abs(float(a[0]) - float(b[0])) <= R_MAX / 255 / 2 + 1e-6


class TestMemory:
    def test_memory_bytes(self, wall_grid):
        # The stored canvas is padded by r_max (30 cells at 0.05 m) on
        # every side so border overshoots score correctly.
        pad = int(np.ceil(R_MAX / wall_grid.resolution))
        cells = (wall_grid.rows + 2 * pad) * (wall_grid.cols + 2 * pad)
        assert DistanceField.build(wall_grid, R_MAX, FieldKind.FLOAT32).memory_bytes() == 4 * cells
        assert DistanceField.build(wall_grid, R_MAX, FieldKind.FLOAT16).memory_bytes() == 2 * cells
        assert (
            DistanceField.build(wall_grid, R_MAX, FieldKind.QUANTIZED_U8).memory_bytes() == cells
        )

    def test_padding_scores_border_overshoot_correctly(self, wall_grid):
        # A point 3 cm past the left border wall must read ~3 cm, not r_max.
        field = DistanceField.build(wall_grid, R_MAX)
        dist = field.lookup_world(np.array([-0.03]), np.array([1.0]))
        assert float(dist[0]) < 0.1

    def test_max_abs_error_ordering(self, wall_grid):
        fp32 = DistanceField.build(wall_grid, R_MAX, FieldKind.FLOAT32)
        fp16 = DistanceField.build(wall_grid, R_MAX, FieldKind.FLOAT16)
        quant = DistanceField.build(wall_grid, R_MAX, FieldKind.QUANTIZED_U8)
        assert fp32.max_abs_error_metres() == 0.0
        assert fp16.max_abs_error_metres() < quant.max_abs_error_metres()
