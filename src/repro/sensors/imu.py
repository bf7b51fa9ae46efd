"""Gyroscope yaw-rate model (BMI088 on the Crazyflie 2.1).

Only the yaw axis matters for 2-D localization at fixed height.  The model
is the standard rate-gyro error decomposition: white noise plus a slowly
random-walking bias — the terms responsible for the heading drift MCL has
to absorb.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..common.errors import SensorError


@dataclass(frozen=True)
class GyroSpec:
    """Yaw-rate gyro noise configuration (per-axis BMI088-class numbers)."""

    #: White noise of each rate sample, rad/s.
    rate_noise_sigma: float = 0.004
    #: Random-walk step of the rate bias, (rad/s)/sqrt(s).
    bias_walk_sigma: float = 0.0015
    #: Initial bias standard deviation, rad/s.
    initial_bias_sigma: float = 0.003
    #: Hard cap on the accumulated bias magnitude, rad/s.
    bias_limit: float = 0.02
    #: Sample rate, Hz.
    rate_hz: float = 100.0

    def __post_init__(self) -> None:
        if self.rate_hz <= 0:
            raise SensorError(f"gyro rate must be positive, got {self.rate_hz}")


@dataclass
class GyroMeasurement:
    """One yaw-rate sample."""

    timestamp: float
    yaw_rate: float


class Gyro:
    """Simulated single-axis (yaw) rate gyro with bias random walk."""

    def __init__(self, spec: GyroSpec, rng: np.random.Generator) -> None:
        self.spec = spec
        self._rng = rng
        self._bias = float(rng.normal(0.0, spec.initial_bias_sigma))

    @property
    def bias(self) -> float:
        """Current bias value (for tests/analysis)."""
        return self._bias

    def measure(self, true_yaw_rate: float, dt: float, timestamp: float) -> GyroMeasurement:
        """Corrupt a true yaw rate into a gyro sample."""
        if dt < 0:
            raise SensorError(f"dt must be non-negative, got {dt}")
        spec = self.spec
        if dt > 0:
            self._bias += float(self._rng.normal(0.0, spec.bias_walk_sigma * np.sqrt(dt)))
            self._bias = min(max(self._bias, -spec.bias_limit), spec.bias_limit)
        noise = float(self._rng.normal(0.0, spec.rate_noise_sigma))
        return GyroMeasurement(timestamp=timestamp, yaw_rate=true_yaw_rate + self._bias + noise)
