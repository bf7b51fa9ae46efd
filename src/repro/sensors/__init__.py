"""Sensor models: multizone ToF, optical flow, gyro, and grid raycasting."""

from .flow import FLOW_DECK_POWER_W, FlowDeck, FlowDeckSpec, FlowMeasurement
from .imu import Gyro, GyroMeasurement, GyroSpec
from .raycast import cast_rays, incidence_angles, ray_directions
from .tof import (
    VL53L5CX_FOV_DEG,
    VL53L5CX_MAX_RANGE_M,
    VL53L5CX_POWER_W,
    TofFrame,
    TofSensor,
    TofSensorSpec,
    ZoneStatus,
    default_sensor_pair,
)

__all__ = [
    "FLOW_DECK_POWER_W",
    "FlowDeck",
    "FlowDeckSpec",
    "FlowMeasurement",
    "Gyro",
    "GyroMeasurement",
    "GyroSpec",
    "cast_rays",
    "incidence_angles",
    "ray_directions",
    "VL53L5CX_FOV_DEG",
    "VL53L5CX_MAX_RANGE_M",
    "VL53L5CX_POWER_W",
    "TofFrame",
    "TofSensor",
    "TofSensorSpec",
    "ZoneStatus",
    "default_sensor_pair",
]
