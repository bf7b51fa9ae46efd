"""Planar kinematics of the nano-UAV at fixed flight height.

The paper's drone "flies at a fixed height and localizes in a 2D grid map"
(Sec. III-C1), so the simulator needs only the planar degrees of freedom.
A quadrotor is holonomic in the plane: the model integrates commanded
body-frame velocities (forward, lateral) and yaw rate through a first-order
lag that stands in for the Crazyflie's attitude/velocity control loops,
with saturation at the platform's practical limits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..common.errors import ConfigurationError
from ..common.geometry import Pose2D, wrap_angle


@dataclass(frozen=True)
class DynamicsLimits:
    """Velocity envelope of the simulated Crazyflie."""

    max_speed_mps: float = 0.6
    max_yaw_rate_rps: float = 1.8
    #: Time constant of the velocity-tracking lag, seconds.
    velocity_tau_s: float = 0.25

    def __post_init__(self) -> None:
        if self.max_speed_mps <= 0 or self.max_yaw_rate_rps <= 0:
            raise ConfigurationError("dynamics limits must be positive")
        if self.velocity_tau_s <= 0:
            raise ConfigurationError("velocity_tau_s must be positive")


@dataclass
class BodyCommand:
    """Commanded body-frame velocities."""

    vx: float = 0.0
    vy: float = 0.0
    yaw_rate: float = 0.0


@dataclass
class VehicleState:
    """True planar state: pose plus realized body-frame velocities."""

    pose: Pose2D
    vx: float = 0.0
    vy: float = 0.0
    yaw_rate: float = 0.0


class PlanarDynamics:
    """First-order planar dynamics with velocity saturation.

    ``step`` advances the true state by ``dt``: realized velocities chase
    the (saturated) command through an exponential lag, then the pose
    integrates the realized velocities in the body frame.
    """

    def __init__(self, initial_pose: Pose2D, limits: DynamicsLimits | None = None) -> None:
        self.limits = limits or DynamicsLimits()
        self.state = VehicleState(pose=initial_pose)

    def _saturate(self, command: BodyCommand) -> tuple[float, float, float]:
        limits = self.limits
        speed = float(np.hypot(command.vx, command.vy))
        scale = 1.0 if speed <= limits.max_speed_mps else limits.max_speed_mps / speed
        yaw_rate = min(
            max(command.yaw_rate, -limits.max_yaw_rate_rps), limits.max_yaw_rate_rps
        )
        return command.vx * scale, command.vy * scale, yaw_rate

    def step(self, command: BodyCommand, dt: float) -> VehicleState:
        """Advance the true state by ``dt`` seconds under ``command``."""
        if dt <= 0:
            raise ConfigurationError(f"dt must be positive, got {dt}")
        target_vx, target_vy, target_yaw_rate = self._saturate(command)
        state = self.state
        # Exponential approach to the commanded velocity.
        alpha = 1.0 - float(np.exp(-dt / self.limits.velocity_tau_s))
        vx = state.vx + alpha * (target_vx - state.vx)
        vy = state.vy + alpha * (target_vy - state.vy)
        yaw_rate = state.yaw_rate + alpha * (target_yaw_rate - state.yaw_rate)

        pose = state.pose
        # Integrate in the body frame (midpoint heading for less arc error).
        heading = pose.theta + 0.5 * yaw_rate * dt
        cos_h = float(np.cos(heading))
        sin_h = float(np.sin(heading))
        new_pose = Pose2D(
            pose.x + (cos_h * vx - sin_h * vy) * dt,
            pose.y + (sin_h * vx + cos_h * vy) * dt,
            wrap_angle(pose.theta + yaw_rate * dt),
        )
        self.state = VehicleState(pose=new_pose, vx=vx, vy=vy, yaw_rate=yaw_rate)
        return self.state
