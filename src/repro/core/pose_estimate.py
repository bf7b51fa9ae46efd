"""Pose computation: the weighted average over all particles.

The paper adds a fourth step to classic MCL: "pose computation, where the
pose estimation is computed as the weighted average over all particles"
(Sec. III-C1).  Position averages linearly; yaw must average circularly
(via the weighted mean direction) or the estimate breaks at the +-pi wrap.

The returned estimate also carries the position covariance and circular
yaw spread so callers (and the convergence metric) can reason about how
concentrated the belief is.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..common.geometry import Pose2D, angle_difference
from ..engine import kernels
from .particles import ParticleSet


@dataclass(frozen=True)
class PoseEstimate:
    """Weighted-average pose plus spread diagnostics."""

    pose: Pose2D
    #: 2x2 position covariance (metres^2), weighted.
    position_cov: np.ndarray
    #: Circular standard deviation of yaw, radians.
    yaw_std: float
    #: Effective sample size at estimation time.
    ess: float

    @property
    def position_std(self) -> float:
        """Root-mean of the covariance eigenvalues: a scalar spread."""
        return float(np.sqrt(max(np.trace(self.position_cov) / 2.0, 0.0)))


def estimate_pose(particles: ParticleSet) -> PoseEstimate:
    """Compute the weighted mean pose of the population.

    Weights are re-normalized defensively in float64; a degenerate
    population falls back to the unweighted mean.
    """
    x = particles.x.astype(np.float64)
    y = particles.y.astype(np.float64)
    theta = particles.theta.astype(np.float64)

    weights, mean_x, mean_y, mean_theta = kernels.weighted_mean_pose(
        x, y, theta, particles.weights
    )
    cov, yaw_std = kernels.weighted_pose_spread(x, y, theta, weights, mean_x, mean_y)
    ess = particles.effective_sample_size()
    return PoseEstimate(
        pose=Pose2D(mean_x, mean_y, mean_theta),
        position_cov=cov,
        yaw_std=yaw_std,
        ess=ess,
    )


def pose_error(estimate: Pose2D, ground_truth: Pose2D) -> tuple[float, float]:
    """(position error metres, absolute yaw error radians) pair."""
    return (
        estimate.distance_to(ground_truth),
        abs(angle_difference(estimate.theta, ground_truth.theta)),
    )


def pose_errors(
    estimates: np.ndarray, ground_truth: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """:func:`pose_error` of every row of two ``(T, 3)`` ``[x, y, theta]``
    arrays in one pass: ``(position errors, yaw errors)``, each ``(T,)``.

    The bits of :func:`pose_error` row by row: the differences are the
    same IEEE subtractions, the distance is CPython's ``math.hypot`` per
    element (``np.hypot`` calls libm's, which differs from it on some
    inputs), and the yaw wrap's numpy remainder is Python's float ``%``.
    """
    dx = (estimates[:, 0] - ground_truth[:, 0]).tolist()
    dy = (estimates[:, 1] - ground_truth[:, 1]).tolist()
    position = np.array(list(map(math.hypot, dx, dy)), dtype=np.float64)
    yaw = np.abs(angle_difference(estimates[:, 2], ground_truth[:, 2]))
    return position, yaw
