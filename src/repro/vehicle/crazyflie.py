"""Full simulated Crazyflie platform: dynamics + sensors + estimator.

This is the substrate that replaces the physical drone of the paper's
experiments (Sec. III-A): a planar vehicle flying waypoint routes through
the maze while

* the Flow-deck + gyro feed the drifting on-board odometry estimate
  (``OdometryIntegrator``), and
* two multizone ToF sensors (forward/backward) produce 8x8 zone frames at
  15 Hz against the ground-truth occupancy grid.

The simulator emits one :class:`SimStep` per ToF frame time — ground-truth
pose, current odometry estimate and both sensor frames — which is exactly
the record layout of the paper's dataset (ToF measurements, internal state
estimate, mocap ground truth).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..common.errors import ConfigurationError
from ..common.geometry import Pose2D
from ..common.rng import RngPool
from ..maps.occupancy import OccupancyGrid
from ..sensors.flow import FlowDeck, FlowDeckSpec
from ..sensors.imu import Gyro, GyroSpec
from ..sensors.tof import TofFrame, default_sensor_pair
from .controller import ControllerGains, WaypointController
from .dynamics import DynamicsLimits, PlanarDynamics
from .estimator import OdometryIntegrator


@dataclass(frozen=True)
class SimConfig:
    """Timing and flight parameters of the platform simulation."""

    physics_rate_hz: float = 100.0
    tof_rate_hz: float = 15.0
    flight_height_m: float = 0.5
    max_duration_s: float = 120.0

    def __post_init__(self) -> None:
        if self.physics_rate_hz < self.tof_rate_hz:
            raise ConfigurationError("physics must run at least as fast as the ToF")
        if self.tof_rate_hz <= 0:
            raise ConfigurationError("tof rate must be positive")
        if self.max_duration_s <= 0:
            raise ConfigurationError("max duration must be positive")


@dataclass
class SimStep:
    """One recorded sample at a ToF frame instant."""

    timestamp: float
    ground_truth: Pose2D
    odometry: Pose2D
    frames: list[TofFrame] = field(default_factory=list)


class CrazyflieSimulator:
    """Flies a waypoint route and yields the paper-format sensor record."""

    def __init__(
        self,
        grid: OccupancyGrid,
        waypoints: list[tuple[float, float]],
        seed: int,
        config: SimConfig | None = None,
        gains: ControllerGains | None = None,
        limits: DynamicsLimits | None = None,
        flow_spec: FlowDeckSpec | None = None,
        gyro_spec: GyroSpec | None = None,
    ) -> None:
        if len(waypoints) < 2:
            raise ConfigurationError("need at least two waypoints to fly a route")
        self.grid = grid
        self.config = config or SimConfig()
        pool = RngPool(seed)

        start = waypoints[0]
        heading = float(
            np.arctan2(waypoints[1][1] - start[1], waypoints[1][0] - start[0])
        )
        self._start_pose = Pose2D(start[0], start[1], heading)
        self.dynamics = PlanarDynamics(self._start_pose, limits)
        self.controller = WaypointController(waypoints[1:], gains)
        self.flow = FlowDeck(
            flow_spec or FlowDeckSpec(),
            pool.get("flow"),
            flight_height_m=self.config.flight_height_m,
        )
        self.gyro = Gyro(gyro_spec or GyroSpec(), pool.get("gyro"))
        self.estimator = OdometryIntegrator(Pose2D.identity())
        front, rear = default_sensor_pair(pool.get("tof-front"), pool.get("tof-rear"))
        self.sensors = [front, rear]

    @property
    def start_pose(self) -> Pose2D:
        """Ground-truth pose at t = 0."""
        return self._start_pose

    def run(self) -> list[SimStep]:
        """Fly the route; returns one :class:`SimStep` per ToF frame.

        The flight ends when the route completes or ``max_duration_s``
        elapses, whichever comes first.  A first sample is emitted at
        t = 0 so localization can start before any motion.

        Two phases: the flight records each frame's timestamp, true pose
        and odometry, then each sensor turns all the recorded poses into
        its frames in one pass.  No reading feeds back into the flight
        (the controller steers on the true pose) and each sensor draws
        from its own stream, so the frames equal those of measuring at
        every frame time during the flight.
        """
        timestamps, truth, odometry = self._fly()
        tracks = [
            sensor.measure_flight(self.grid, truth, timestamps)
            for sensor in self.sensors
        ]
        return [
            SimStep(
                timestamp=timestamp,
                ground_truth=pose,
                odometry=estimate,
                frames=list(frames),
            )
            for timestamp, pose, estimate, *frames in zip(
                timestamps, truth, odometry, *tracks
            )
        ]

    def _fly(self) -> tuple[list[float], list[Pose2D], list[Pose2D]]:
        """Fly the route; each ToF frame's timestamp, true pose and odometry."""
        config = self.config
        dt = 1.0 / config.physics_rate_hz
        frame_interval = 1.0 / config.tof_rate_hz

        timestamps: list[float] = []
        truth: list[Pose2D] = []
        odometry: list[Pose2D] = []
        now = 0.0
        next_frame_time = 0.0
        max_ticks = int(round(config.max_duration_s * config.physics_rate_hz))

        for __ in range(max_ticks + 1):
            if now >= next_frame_time - 1e-9:
                timestamps.append(now)
                truth.append(self.dynamics.state.pose)
                odometry.append(self.estimator.estimate)
                next_frame_time += frame_interval
            if self.controller.finished:
                break
            state = self.dynamics.state
            command = self.controller.command(state.pose)
            state = self.dynamics.step(command, dt)
            flow_sample = self.flow.measure(state.vx, state.vy, dt, now + dt)
            gyro_sample = self.gyro.measure(state.yaw_rate, dt, now + dt)
            self.estimator.update(flow_sample, gyro_sample, dt)
            now += dt
        return timestamps, truth, odometry
