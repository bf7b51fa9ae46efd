"""VL53L5CX multizone time-of-flight sensor model (paper Sec. III-A2).

The VL53L5CX provides a matrix of either 8x8 zones at up to 15 Hz or 4x4
zones at up to 60 Hz over a 45° x 45° field of view, with roughly 4 m
maximum range.  For each zone it reports a distance **and an error flag**
"which gets raised when out of range measurements or interference are
detected" (paper).  The Multizone-ToF-deck mounts up to two sensors, one
forward and one backward facing.

The model reproduces all of that:

* zone geometry: per-column azimuths spanning the horizontal FoV (the drone
  localizes in 2-D, so all rows of a column share an azimuth; rows differ
  in elevation, which at fixed flight height only modulates the error-flag
  probability — outer rows clip floor/ceiling more often),
* ranging noise: additive base noise plus a range-proportional term,
* error flags: out-of-range, random interference dropout, grazing-incidence
  hits beyond a limit angle,
* frame-rate bookkeeping for the 8x8@15 Hz / 4x4@60 Hz trade-off.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from enum import IntEnum

import numpy as np

from ..common.errors import SensorError
from ..common.geometry import Pose2D
from ..maps.occupancy import OccupancyGrid
from .raycast import cast_rays, incidence_angles, ray_directions

#: Horizontal/vertical field of view of the VL53L5CX in degrees.
VL53L5CX_FOV_DEG = 45.0

#: Maximum usable range of the VL53L5CX in metres.
VL53L5CX_MAX_RANGE_M = 4.0

#: Power draw of one sensor in watts (paper Sec. IV-E: 320 mW each).
VL53L5CX_POWER_W = 0.320


class ZoneStatus(IntEnum):
    """Per-zone measurement status; VALID is the only usable code."""

    VALID = 0
    OUT_OF_RANGE = 1
    INTERFERENCE = 2
    GRAZING = 3


@dataclass(frozen=True)
class TofSensorSpec:
    """Static configuration of one multizone ToF sensor.

    ``zones_per_side`` of 8 limits the frame rate to 15 Hz; 4 allows 60 Hz
    (paper Sec. III-A2).  ``yaw_offset`` is the mounting yaw on the body
    (0 = forward, pi = backward); ``mount_offset`` the body-frame position.
    """

    zones_per_side: int = 8
    fov_deg: float = VL53L5CX_FOV_DEG
    max_range_m: float = VL53L5CX_MAX_RANGE_M
    yaw_offset: float = 0.0
    mount_x: float = 0.0
    mount_y: float = 0.0
    noise_sigma_base_m: float = 0.02
    noise_sigma_prop: float = 0.01
    interference_prob: float = 0.02
    grazing_limit_rad: float = math.radians(75.0)
    #: Extra dropout probability of the outermost rows (floor/ceiling clip).
    edge_row_dropout_prob: float = 0.05

    def __post_init__(self) -> None:
        if self.zones_per_side not in (4, 8):
            raise SensorError(
                f"VL53L5CX supports 4x4 or 8x8 zones, got {self.zones_per_side}"
            )
        if self.max_range_m <= 0:
            raise SensorError(f"max range must be positive, got {self.max_range_m}")
        if not 0.0 <= self.interference_prob <= 1.0:
            raise SensorError("interference_prob must be a probability")

    @property
    def max_frame_rate_hz(self) -> float:
        """15 Hz in 8x8 mode, 60 Hz in 4x4 mode (paper Sec. III-A2)."""
        return 15.0 if self.zones_per_side == 8 else 60.0

    @property
    def zone_count(self) -> int:
        """Total zones per frame (64 or 16)."""
        return self.zones_per_side**2

    def column_azimuths(self) -> np.ndarray:
        """Body-frame azimuth of each zone column, including mounting yaw.

        Columns tile the horizontal FoV; azimuths are the column centers,
        so for 8 columns over 45° they sit at +-2.8125°, +-8.4375°, ...
        """
        half_fov = math.radians(self.fov_deg) / 2.0
        n = self.zones_per_side
        centers = (np.arange(n) + 0.5) / n * (2 * half_fov) - half_fov
        return centers + self.yaw_offset


@dataclass
class TofFrame:
    """One multizone measurement: ranges plus status flags.

    ``ranges_m`` and ``status`` have shape ``(zones_per_side,
    zones_per_side)``; ``azimuths`` (body frame, mounting yaw included) has
    shape ``(zones_per_side,)`` — one azimuth per column.
    """

    timestamp: float
    sensor_name: str
    ranges_m: np.ndarray
    status: np.ndarray
    azimuths: np.ndarray
    mount_x: float = 0.0
    mount_y: float = 0.0

    @property
    def zones_per_side(self) -> int:
        return int(self.ranges_m.shape[0])

    def valid_mask(self) -> np.ndarray:
        """Boolean matrix of zones carrying usable ranges."""
        return self.status == ZoneStatus.VALID

    def valid_fraction(self) -> float:
        """Fraction of valid zones in this frame."""
        return float(np.count_nonzero(self.valid_mask())) / self.ranges_m.size

    def beams(self, rows: tuple[int, ...] | None = None):
        """Flatten selected rows into per-beam ``(azimuth, range, valid)``.

        ``rows=None`` uses every row.  This is the adapter the observation
        model consumes: each zone contributes one beam at its column
        azimuth.  Returns three flat arrays.
        """
        n = self.zones_per_side
        if rows is None:
            rows = tuple(range(n))
        for row in rows:
            if not 0 <= row < n:
                raise SensorError(f"row {row} outside the {n}x{n} zone matrix")
        row_index = np.asarray(rows, dtype=np.int64)
        azimuths = np.tile(self.azimuths, len(rows))
        ranges = self.ranges_m[row_index, :].reshape(-1)
        valid = (self.status[row_index, :] == ZoneStatus.VALID).reshape(-1)
        return azimuths, ranges, valid


class TofSensor:
    """A simulated VL53L5CX attached to the drone body.

    :meth:`measure_flight` turns a whole flight's body poses into frames in
    one pass: it casts one ray per zone column and pose against the
    ground-truth occupancy grid from the sensor's mounted position and
    heading, then expands columns into the full zone matrix, applying
    per-zone noise and error flags.  :meth:`measure` is its one-pose case.

    The sensor's generator is drawn from in frame order, and within a frame
    column by column: ``normal(0, sigma, n)`` for the column's ``n`` zones,
    then ``random(n)`` for their dropout only when the column is neither
    out of range nor grazing.  So a flight's frames are the same whether
    they are made one pose at a time or all at once.
    """

    def __init__(
        self, spec: TofSensorSpec, name: str, rng: np.random.Generator
    ) -> None:
        self.spec = spec
        self.name = name
        self._rng = rng

    def measure(
        self, grid: OccupancyGrid, body_pose: Pose2D, timestamp: float
    ) -> TofFrame:
        """Produce one zone-matrix frame from the given body pose."""
        return self.measure_flight(grid, [body_pose], [timestamp])[0]

    def measure_flight(
        self,
        grid: OccupancyGrid,
        body_poses: Sequence[Pose2D],
        timestamps: Sequence[float],
    ) -> list[TofFrame]:
        """One frame per body pose, in order, from one pass over all of them."""
        if len(body_poses) != len(timestamps):
            raise SensorError("need one timestamp per body pose")
        ranges, status = self._zone_matrices(grid, body_poses)
        azimuths_body = self.spec.column_azimuths()
        return [
            TofFrame(
                timestamp=timestamp,
                sensor_name=self.name,
                ranges_m=ranges[index],
                status=status[index],
                azimuths=azimuths_body,
                mount_x=self.spec.mount_x,
                mount_y=self.spec.mount_y,
            )
            for index, timestamp in enumerate(timestamps)
        ]

    def _zone_matrices(
        self, grid: OccupancyGrid, body_poses: Sequence[Pose2D]
    ) -> tuple[np.ndarray, np.ndarray]:
        """``(ranges, status)``, each ``(frames, n, n)``, for the poses."""
        spec = self.spec
        n = spec.zones_per_side
        frames = len(body_poses)
        theta = [pose.theta for pose in body_poses]
        cos_t = np.fromiter(map(math.cos, theta), np.float64, frames)
        sin_t = np.fromiter(map(math.sin, theta), np.float64, frames)
        body_x = np.array([pose.x for pose in body_poses], dtype=np.float64)
        body_y = np.array([pose.y for pose in body_poses], dtype=np.float64)
        # Pose2D.transform_point of the mount, elementwise.
        sensor_x = body_x + cos_t * spec.mount_x - sin_t * spec.mount_y
        sensor_y = body_y + sin_t * spec.mount_x + cos_t * spec.mount_y
        azimuths_world = spec.column_azimuths() + np.asarray(theta)[:, None]
        dir_x, dir_y = ray_directions(azimuths_world)
        sensor_x = np.repeat(sensor_x[:, None], n, axis=1)
        sensor_y = np.repeat(sensor_y[:, None], n, axis=1)

        # (frames, columns): true range and flags of each column's ray.
        true_ranges = cast_rays(grid, sensor_x, sensor_y, dir_x, dir_y, spec.max_range_m)
        out_of_range = true_ranges >= spec.max_range_m
        hit = ~out_of_range
        incidences = np.zeros(true_ranges.shape)
        incidences[hit] = incidence_angles(
            grid, sensor_x[hit], sensor_y[hit], dir_x[hit], dir_y[hit], true_ranges[hit]
        )
        grazing = incidences > spec.grazing_limit_rad
        can_drop = ~(out_of_range | grazing)

        sigma = spec.noise_sigma_base_m + spec.noise_sigma_prop * true_ranges
        noise = np.empty((frames * n, n))
        dropout_draws = np.zeros((frames * n, n))
        normal = self._rng.normal
        uniform = self._rng.random
        columns = zip(sigma.ravel().tolist(), can_drop.ravel().tolist())
        for index, (scale, drop_draws) in enumerate(columns):
            noise[index] = normal(0.0, scale, size=n)
            if drop_draws:
                dropout_draws[index] = uniform(n)

        # Draws are (frame, column, row); frames are (frame, row, column).
        noisy = true_ranges[:, :, None] + noise.reshape(frames, n, n)
        np.clip(noisy, 0.0, spec.max_range_m, out=noisy)
        row_prob = np.full(n, spec.interference_prob)
        row_prob[[0, -1]] = spec.interference_prob + spec.edge_row_dropout_prob
        interference = can_drop[:, :, None] & (dropout_draws.reshape(frames, n, n) < row_prob)
        status = np.select(
            [out_of_range[:, :, None], grazing[:, :, None], interference],
            [ZoneStatus.OUT_OF_RANGE, ZoneStatus.GRAZING, ZoneStatus.INTERFERENCE],
            ZoneStatus.VALID,
        ).astype(np.int64)
        ranges = np.where(out_of_range[:, :, None], spec.max_range_m, noisy)
        return (
            np.ascontiguousarray(ranges.transpose(0, 2, 1)),
            np.ascontiguousarray(status.transpose(0, 2, 1)),
        )


def default_sensor_pair(
    rng_front: np.random.Generator, rng_rear: np.random.Generator
) -> tuple[TofSensor, TofSensor]:
    """The paper's deck configuration: forward + backward facing 8x8 sensors."""
    front = TofSensor(TofSensorSpec(yaw_offset=0.0, mount_x=0.02), "tof-front", rng_front)
    rear = TofSensor(TofSensorSpec(yaw_offset=math.pi, mount_x=-0.02), "tof-rear", rng_rear)
    return front, rear
