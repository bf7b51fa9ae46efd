"""Tests for the weighted-average pose computation."""

import math

import numpy as np
import pytest

from repro.common.geometry import Pose2D
from repro.core.particles import ParticleSet
from repro.core.pose_estimate import estimate_pose, pose_error, pose_errors


def particle_set(x, y, theta, weights=None) -> ParticleSet:
    count = len(x)
    ps = ParticleSet(count)
    ps.set_state(np.asarray(x, float), np.asarray(y, float), np.asarray(theta, float))
    if weights is not None:
        ps.weights[:] = np.asarray(weights, dtype=np.float32)
    return ps


class TestEstimatePose:
    def test_weighted_position_mean(self):
        ps = particle_set([0.0, 2.0], [0.0, 4.0], [0.0, 0.0], weights=[0.75, 0.25])
        est = estimate_pose(ps)
        assert est.pose.x == pytest.approx(0.5)
        assert est.pose.y == pytest.approx(1.0)

    def test_circular_yaw_mean_across_wrap(self):
        # Naive averaging of (pi - 0.1) and (-pi + 0.1) gives ~0; the
        # circular mean correctly gives ~pi.
        ps = particle_set([0, 0], [0, 0], [math.pi - 0.1, -math.pi + 0.1])
        est = estimate_pose(ps)
        assert abs(est.pose.theta) == pytest.approx(math.pi, abs=1e-6)

    def test_covariance_of_spread_population(self):
        rng = np.random.default_rng(0)
        x = rng.normal(1.0, 0.2, size=5000)
        y = rng.normal(2.0, 0.05, size=5000)
        ps = particle_set(x, y, np.zeros(5000))
        est = estimate_pose(ps)
        assert est.position_cov[0, 0] == pytest.approx(0.04, rel=0.15)
        assert est.position_cov[1, 1] == pytest.approx(0.0025, rel=0.2)
        assert est.position_std == pytest.approx(
            math.sqrt((0.04 + 0.0025) / 2), rel=0.15
        )

    def test_yaw_std_small_when_aligned(self):
        ps = particle_set([0] * 4, [0] * 4, [0.5, 0.5, 0.5, 0.5])
        est = estimate_pose(ps)
        assert est.yaw_std < 1e-3

    def test_yaw_std_large_when_uniform(self):
        theta = np.linspace(-math.pi, math.pi, 64, endpoint=False)
        ps = particle_set(np.zeros(64), np.zeros(64), theta)
        est = estimate_pose(ps)
        assert est.yaw_std > 2.0

    def test_degenerate_weights_fall_back_to_unweighted(self):
        ps = particle_set([1.0, 3.0], [0.0, 0.0], [0.0, 0.0], weights=[0.0, 0.0])
        est = estimate_pose(ps)
        assert est.pose.x == pytest.approx(2.0)

    def test_ess_reported(self):
        ps = particle_set([0, 0], [0, 0], [0, 0], weights=[0.5, 0.5])
        assert estimate_pose(ps).ess == pytest.approx(2.0, rel=1e-3)


class TestPoseError:
    def test_position_error(self):
        err_pos, err_yaw = pose_error(Pose2D(3.0, 4.0, 0.0), Pose2D(0.0, 0.0, 0.0))
        assert err_pos == pytest.approx(5.0)
        assert err_yaw == 0.0

    def test_yaw_error_wraps(self):
        __, err_yaw = pose_error(
            Pose2D(0, 0, math.pi - 0.05), Pose2D(0, 0, -math.pi + 0.05)
        )
        assert err_yaw == pytest.approx(0.1, abs=1e-9)


def _wrapped_yaw_pairs() -> tuple[np.ndarray, np.ndarray]:
    """(estimate, truth) yaws in [-π, π) whose difference sits at ±π, one
    ulp and a little either side of it, and across the wrap: one near -π
    against one near +π."""
    rng = np.random.default_rng(5)
    truth = rng.uniform(-math.pi, math.pi, 64)
    deltas = [0.0, 1e-12, -1e-12, 1e-6, -1e-6, 2.0**-52, -(2.0**-52)]
    estimates, truths = [], []
    for t in truth.tolist():
        for sign in (1.0, -1.0):
            for delta in deltas:
                estimates.append(t + sign * math.pi + delta)
                truths.append(t)
    edge = [-math.pi, np.nextafter(-math.pi, 0.0), -math.pi + 1e-3]
    for a in edge:
        for b in (np.nextafter(math.pi, 0.0), math.pi - 1e-3, math.pi - 1e-9):
            estimates += [a, b]
            truths += [b, a]
    # As a Pose2D holds them: wrapped.
    return (
        np.array([Pose2D(0.0, 0.0, yaw).theta for yaw in estimates]),
        np.array([Pose2D(0.0, 0.0, yaw).theta for yaw in truths]),
    )


class TestPoseErrors:
    def test_equals_pose_error_row_by_row(self):
        """The one-pass errors have the bits of :func:`pose_error` frame
        by frame: random positions, yaw differences at ±π and across
        the wrap."""
        estimate_yaw, truth_yaw = _wrapped_yaw_pairs()
        rng = np.random.default_rng(6)
        count = estimate_yaw.size
        estimates = np.column_stack([rng.normal(0, 3, (count, 2)), estimate_yaw])
        truth = np.column_stack([rng.normal(0, 3, (count, 2)), truth_yaw])
        estimates[:5, :2] = truth[:5, :2]  # zero distance
        estimates[5:10, 0] = truth[5:10, 0]  # axis-parallel
        position, yaw = pose_errors(estimates, truth)
        expected = [
            pose_error(Pose2D(*e), Pose2D(*g))
            for e, g in zip(estimates.tolist(), truth.tolist())
        ]
        expected_position = np.array([pair[0] for pair in expected])
        expected_yaw = np.array([pair[1] for pair in expected])
        assert position.dtype == yaw.dtype == np.float64
        np.testing.assert_array_equal(
            position.view(np.uint64), expected_position.view(np.uint64)
        )
        np.testing.assert_array_equal(yaw.view(np.uint64), expected_yaw.view(np.uint64))
        # The pairs do reach the wrap: differences of exactly ±π.
        assert (yaw == math.pi).any()

    def test_empty(self):
        position, yaw = pose_errors(np.empty((0, 3)), np.empty((0, 3)))
        assert position.shape == yaw.shape == (0,)
