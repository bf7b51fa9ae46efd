"""Tests for the VL53L5CX multizone ToF sensor model."""

import math

import numpy as np
import pytest

from repro.common.errors import SensorError
from repro.common.geometry import Pose2D
from repro.common.rng import make_rng
from repro.maps.builder import MapBuilder
from repro.maps.maze import build_drone_maze_world
from repro.maps.occupancy import CellState
from repro.sensors.raycast import cast_rays, incidence_angles, ray_directions
from repro.sensors.tof import (
    TofFrame,
    TofSensor,
    TofSensorSpec,
    ZoneStatus,
    default_sensor_pair,
)


def room(size: float = 3.0):
    return (
        MapBuilder(size, size, 0.05)
        .fill_rect(0, 0, size, size, CellState.FREE)
        .add_border()
        .build()
    )


def quiet_spec(**overrides) -> TofSensorSpec:
    """A noise-free spec for deterministic geometric checks."""
    defaults = dict(
        noise_sigma_base_m=0.0,
        noise_sigma_prop=0.0,
        interference_prob=0.0,
        edge_row_dropout_prob=0.0,
    )
    defaults.update(overrides)
    return TofSensorSpec(**defaults)


class TestSpec:
    def test_rejects_bad_zone_counts(self):
        with pytest.raises(SensorError):
            TofSensorSpec(zones_per_side=5)

    def test_frame_rate_depends_on_mode(self):
        # Paper Sec. III-A2: 8x8 at up to 15 Hz, 4x4 at up to 60 Hz.
        assert TofSensorSpec(zones_per_side=8).max_frame_rate_hz == 15.0
        assert TofSensorSpec(zones_per_side=4).max_frame_rate_hz == 60.0

    def test_zone_count(self):
        assert TofSensorSpec(zones_per_side=8).zone_count == 64
        assert TofSensorSpec(zones_per_side=4).zone_count == 16

    def test_azimuths_span_fov(self):
        spec = TofSensorSpec()
        az = spec.column_azimuths()
        half_fov = math.radians(spec.fov_deg) / 2
        assert len(az) == 8
        assert az[0] == pytest.approx(-half_fov + half_fov / 8)
        assert az[-1] == pytest.approx(half_fov - half_fov / 8)
        assert np.all(np.diff(az) > 0)

    def test_azimuths_include_mounting_yaw(self):
        spec = TofSensorSpec(yaw_offset=math.pi)
        az = spec.column_azimuths()
        assert np.all(az > math.pi / 2)

    def test_invalid_interference_prob(self):
        with pytest.raises(SensorError):
            TofSensorSpec(interference_prob=1.5)

    def test_invalid_max_range(self):
        with pytest.raises(SensorError):
            TofSensorSpec(max_range_m=0.0)


class TestMeasure:
    def test_ranges_match_geometry(self):
        grid = room()
        sensor = TofSensor(quiet_spec(), "front", make_rng(0, "t"))
        frame = sensor.measure(grid, Pose2D(1.5, 1.5, 0.0), timestamp=0.0)
        # Facing +x from the room center: wall ~1.45 m ahead; the outermost
        # beams are tilted by <= 22.5°, so ranges vary by at most ~8 %.
        valid = frame.valid_mask()
        assert np.all(frame.ranges_m[valid] > 1.3)
        assert np.all(frame.ranges_m[valid] < 1.45 / math.cos(math.radians(22.5)) + 0.1)

    def test_rows_share_column_ranges_when_noise_free(self):
        grid = room()
        sensor = TofSensor(quiet_spec(), "front", make_rng(0, "t"))
        frame = sensor.measure(grid, Pose2D(1.5, 1.5, 0.3), timestamp=0.0)
        for col in range(8):
            column = frame.ranges_m[:, col]
            assert np.allclose(column, column[0])

    def test_out_of_range_flagged(self):
        grid = MapBuilder(10.0, 1.0, 0.05).fill_rect(0, 0, 10, 1).build()  # no walls
        sensor = TofSensor(quiet_spec(), "front", make_rng(0, "t"))
        frame = sensor.measure(grid, Pose2D(0.5, 0.5, 0.0), timestamp=0.0)
        assert np.all(frame.status == ZoneStatus.OUT_OF_RANGE)
        assert np.all(frame.ranges_m == sensor.spec.max_range_m)

    def test_noise_statistics(self):
        grid = room()
        spec = quiet_spec(noise_sigma_base_m=0.03, noise_sigma_prop=0.0)
        sensor = TofSensor(spec, "front", make_rng(3, "t"))
        samples = []
        for i in range(60):
            frame = sensor.measure(grid, Pose2D(1.5, 1.5, 0.0), timestamp=float(i))
            samples.append(frame.ranges_m[4, 4])
        std = float(np.std(samples))
        assert 0.015 < std < 0.05  # near the configured 0.03

    def test_interference_dropout_rate(self):
        grid = room()
        spec = quiet_spec(interference_prob=0.3)
        sensor = TofSensor(spec, "front", make_rng(4, "t"))
        frame = sensor.measure(grid, Pose2D(1.5, 1.5, 0.0), timestamp=0.0)
        dropped = np.count_nonzero(frame.status == ZoneStatus.INTERFERENCE)
        assert 5 <= dropped <= 40  # 64 zones at p = 0.3

    def test_edge_rows_drop_more(self):
        grid = room()
        spec = quiet_spec(interference_prob=0.0, edge_row_dropout_prob=0.5)
        sensor = TofSensor(spec, "front", make_rng(5, "t"))
        statuses = []
        for i in range(30):
            statuses.append(sensor.measure(grid, Pose2D(1.5, 1.5, 0.0), float(i)).status)
        stack = np.stack(statuses)
        edge_drops = np.count_nonzero(stack[:, 0, :] == ZoneStatus.INTERFERENCE)
        inner_drops = np.count_nonzero(stack[:, 4, :] == ZoneStatus.INTERFERENCE)
        assert edge_drops > 0
        assert inner_drops == 0

    def test_mounted_rear_sensor_sees_backwards(self):
        grid = (
            MapBuilder(4.0, 1.0, 0.05)
            .fill_rect(0, 0, 4, 1, CellState.FREE)
            .add_wall(3.9, 0.0, 3.9, 1.0)
            .build()
        )
        # Wall only on the right; the rear-facing sensor looking -x sees nothing.
        spec = quiet_spec(yaw_offset=math.pi)
        sensor = TofSensor(spec, "rear", make_rng(0, "t"))
        frame = sensor.measure(grid, Pose2D(2.0, 0.5, 0.0), timestamp=0.0)
        assert np.all(frame.status == ZoneStatus.OUT_OF_RANGE)

    def test_deterministic_given_seed(self):
        grid = room()
        a = TofSensor(TofSensorSpec(), "front", make_rng(7, "t")).measure(
            grid, Pose2D(1.5, 1.5, 0.2), 0.0
        )
        b = TofSensor(TofSensorSpec(), "front", make_rng(7, "t")).measure(
            grid, Pose2D(1.5, 1.5, 0.2), 0.0
        )
        np.testing.assert_array_equal(a.ranges_m, b.ranges_m)
        np.testing.assert_array_equal(a.status, b.status)


def scalar_frame(spec: TofSensorSpec, grid, pose: Pose2D, rng):
    """``(ranges, status)`` of one frame, column by column, with one
    ``random()`` per zone dropout: the loop whose draws and arithmetic the
    whole-flight pass reproduces.  Each column's ray is cast alone
    (``tests/sensors/test_raycast.py`` pins the ray functions to a scalar
    walk)."""
    n = spec.zones_per_side
    sensor_x, sensor_y = pose.transform_point(spec.mount_x, spec.mount_y)
    azimuths = spec.column_azimuths() + pose.theta
    ranges = np.empty((n, n))
    status = np.full((n, n), int(ZoneStatus.VALID), dtype=np.int64)
    for col in range(n):
        dir_x, dir_y = ray_directions([azimuths[col]])
        true_range = cast_rays(grid, sensor_x, sensor_y, dir_x, dir_y, spec.max_range_m)[0]
        out_of_range = true_range >= spec.max_range_m
        grazing = (
            not out_of_range
            and incidence_angles(grid, sensor_x, sensor_y, dir_x, dir_y, true_range)[0]
            > spec.grazing_limit_rad
        )
        sigma = spec.noise_sigma_base_m + spec.noise_sigma_prop * true_range
        noisy = true_range + rng.normal(0.0, sigma, size=n)
        ranges[:, col] = np.clip(noisy, 0.0, spec.max_range_m)
        for row in range(n):
            if out_of_range:
                status[row, col] = ZoneStatus.OUT_OF_RANGE
                ranges[row, col] = spec.max_range_m
            elif grazing:
                status[row, col] = ZoneStatus.GRAZING
            else:
                prob = spec.interference_prob
                if row in (0, n - 1):
                    prob += spec.edge_row_dropout_prob
                if rng.random() < prob:
                    status[row, col] = ZoneStatus.INTERFERENCE
    return ranges, status


class TestMeasureFlight:
    """All of a flight's frames in one pass, pinned to the scalar loop."""

    @pytest.fixture(scope="class")
    def flight(self):
        grid = build_drone_maze_world().grid
        rng = np.random.default_rng(5)
        count = 120
        xs = rng.uniform(grid.origin_x, grid.origin_x + grid.width_m, count)
        ys = rng.uniform(grid.origin_y, grid.origin_y + grid.height_m, count)
        thetas = rng.uniform(-math.pi, math.pi, count)
        poses = [Pose2D(x, y, t) for x, y, t in zip(xs, ys, thetas)]
        return grid, poses, [0.1 * i for i in range(count)]

    @pytest.mark.parametrize(
        "spec",
        [
            TofSensorSpec(mount_x=0.02),
            TofSensorSpec(zones_per_side=4, yaw_offset=math.pi, mount_x=-0.02, mount_y=0.01),
            TofSensorSpec(max_range_m=1.0, interference_prob=0.5, edge_row_dropout_prob=0.6,
                          grazing_limit_rad=0.6),
        ],
        ids=["front", "rear-4x4", "short-lossy"],
    )
    def test_equals_scalar_loop(self, flight, spec):
        grid, poses, stamps = flight
        frames = TofSensor(spec, "s", make_rng(9, "t")).measure_flight(grid, poses, stamps)
        rng = make_rng(9, "t")
        for frame, pose, stamp in zip(frames, poses, stamps):
            ranges, status = scalar_frame(spec, grid, pose, rng)
            assert frame.timestamp == stamp
            assert frame.ranges_m.tobytes() == ranges.tobytes()
            assert frame.status.dtype == status.dtype
            assert frame.status.tobytes() == status.tobytes()
        # Every status occurs, so every draw branch ran.
        seen = set(np.concatenate([f.status.ravel() for f in frames]).tolist())
        assert seen == {int(code) for code in ZoneStatus}

    def test_equals_one_pose_at_a_time(self, flight):
        grid, poses, stamps = flight
        together = TofSensor(TofSensorSpec(), "s", make_rng(2, "t")).measure_flight(
            grid, poses, stamps
        )
        sensor = TofSensor(TofSensorSpec(), "s", make_rng(2, "t"))
        for frame, pose, stamp in zip(together, poses, stamps):
            alone = sensor.measure(grid, pose, stamp)
            assert frame.ranges_m.tobytes() == alone.ranges_m.tobytes()
            assert frame.status.tobytes() == alone.status.tobytes()

    def test_rejects_mismatched_timestamps(self, flight):
        grid, poses, stamps = flight
        with pytest.raises(SensorError):
            TofSensor(TofSensorSpec(), "s", make_rng(0, "t")).measure_flight(
                grid, poses, stamps[:-1]
            )


class TestTofFrame:
    def _frame(self) -> TofFrame:
        grid = room()
        sensor = TofSensor(quiet_spec(), "front", make_rng(0, "t"))
        return sensor.measure(grid, Pose2D(1.5, 1.5, 0.0), timestamp=1.25)

    def test_valid_fraction(self):
        frame = self._frame()
        assert frame.valid_fraction() == 1.0

    def test_beams_all_rows(self):
        frame = self._frame()
        azimuths, ranges, valid = frame.beams()
        assert azimuths.shape == (64,)
        assert ranges.shape == (64,)
        assert valid.all()

    def test_beams_row_subset(self):
        frame = self._frame()
        azimuths, ranges, valid = frame.beams(rows=(3, 4))
        assert azimuths.shape == (16,)
        np.testing.assert_allclose(azimuths[:8], frame.azimuths)
        np.testing.assert_allclose(ranges[:8], frame.ranges_m[3, :])
        np.testing.assert_allclose(ranges[8:], frame.ranges_m[4, :])

    def test_beams_rejects_bad_row(self):
        frame = self._frame()
        with pytest.raises(SensorError):
            frame.beams(rows=(9,))

    def test_zones_per_side(self):
        assert self._frame().zones_per_side == 8


def test_default_sensor_pair_orientation():
    front, rear = default_sensor_pair(make_rng(0, "f"), make_rng(0, "r"))
    assert front.spec.yaw_offset == 0.0
    assert rear.spec.yaw_offset == pytest.approx(math.pi)
    assert front.name == "tof-front"
    assert rear.name == "tof-rear"
