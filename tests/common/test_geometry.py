"""Unit and property tests for SE(2) geometry primitives."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.common.geometry import (
    Pose2D,
    angle_difference,
    circular_mean,
    compose_arrays,
    transform_points,
    wrap_angle,
)

ANGLES = st.floats(min_value=-50.0, max_value=50.0, allow_nan=False)
COORDS = st.floats(min_value=-100.0, max_value=100.0, allow_nan=False)


class TestWrapAngle:
    def test_identity_inside_range(self):
        assert wrap_angle(0.5) == pytest.approx(0.5)
        assert wrap_angle(-3.0) == pytest.approx(-3.0)

    def test_pi_maps_to_minus_pi(self):
        assert wrap_angle(math.pi) == pytest.approx(-math.pi)

    def test_multiple_turns(self):
        assert wrap_angle(4 * math.pi + 0.25) == pytest.approx(0.25)
        assert wrap_angle(-6 * math.pi - 0.25) == pytest.approx(-0.25)

    def test_array_input(self):
        out = wrap_angle(np.array([0.0, 2 * math.pi, -2 * math.pi + 0.1]))
        assert isinstance(out, np.ndarray)
        np.testing.assert_allclose(out, [0.0, 0.0, 0.1], atol=1e-12)

    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    def test_scalar_and_array_paths_agree_bit_for_bit(self):
        """Python's float ``%`` (the scalar path) and numpy's remainder
        (the array path) wrap the same doubles to the same bits: at and
        one ulp around ±π, ±2π and ±3π, differences of wrapped yaws
        across the wrap, random angles, NaN and ±inf."""
        anchors = np.array([0.0, math.pi, 2 * math.pi, 3 * math.pi, 7.0])
        anchors = np.concatenate([anchors, -anchors])
        near = np.concatenate(
            [anchors, np.nextafter(anchors, np.inf), np.nextafter(anchors, -np.inf)]
        )
        yaws = np.random.default_rng(8).uniform(-math.pi, math.pi, 200)
        crossing = (yaws[:, None] - np.concatenate([yaws, [-math.pi]])[None, :]).ravel()
        spread = np.random.default_rng(9).uniform(-50.0, 50.0, 1000)
        specials = [math.nan, math.inf, -math.inf]
        values = np.concatenate([near, crossing, spread, specials])
        array = wrap_angle(values)
        scalar = np.array([wrap_angle(value) for value in values.tolist()])
        np.testing.assert_array_equal(array.view(np.uint64), scalar.view(np.uint64))

    @given(ANGLES)
    def test_always_in_range(self, angle):
        wrapped = wrap_angle(angle)
        assert -math.pi <= wrapped < math.pi

    @given(ANGLES)
    def test_preserves_angle_modulo_two_pi(self, angle):
        wrapped = wrap_angle(angle)
        assert math.isclose(
            math.cos(wrapped), math.cos(angle), abs_tol=1e-9
        ) and math.isclose(math.sin(wrapped), math.sin(angle), abs_tol=1e-9)


class TestAngleDifference:
    def test_simple(self):
        assert angle_difference(0.3, 0.1) == pytest.approx(0.2)

    def test_across_wrap(self):
        assert angle_difference(math.pi - 0.1, -math.pi + 0.1) == pytest.approx(-0.2)

    @given(ANGLES, ANGLES)
    def test_antisymmetric_modulo_wrap(self, a, b):
        d1 = angle_difference(a, b)
        d2 = angle_difference(b, a)
        assert math.isclose(math.sin(d1), -math.sin(d2), abs_tol=1e-9)


class TestCircularMean:
    def test_mean_across_wrap(self):
        angles = np.array([math.pi - 0.1, -math.pi + 0.1])
        assert abs(circular_mean(angles)) == pytest.approx(math.pi, abs=1e-9)

    def test_weighted(self):
        angles = np.array([0.0, 1.0])
        weights = np.array([3.0, 1.0])
        expected = math.atan2(
            (3 * math.sin(0) + math.sin(1)) / 4, (3 * math.cos(0) + math.cos(1)) / 4
        )
        assert circular_mean(angles, weights) == pytest.approx(expected)

    def test_zero_weights_fall_back_to_unweighted(self):
        angles = np.array([0.2, 0.4])
        assert circular_mean(angles, np.zeros(2)) == pytest.approx(0.3, abs=1e-6)

    def test_degenerate_opposed_angles(self):
        # sin and cos sums are both zero: the convention is to return 0.
        assert circular_mean(np.array([0.0, math.pi / 2, math.pi, -math.pi / 2])) == 0.0


class TestPose2D:
    def test_yaw_normalized_on_construction(self):
        pose = Pose2D(0.0, 0.0, 3 * math.pi)
        assert pose.theta == pytest.approx(-math.pi)

    def test_compose_pure_translation(self):
        pose = Pose2D(1.0, 2.0, 0.0).compose(Pose2D(0.5, -0.5, 0.0))
        assert (pose.x, pose.y) == (pytest.approx(1.5), pytest.approx(1.5))

    def test_compose_with_rotation(self):
        # Facing +y, a body-frame forward step moves +y in the world.
        pose = Pose2D(0.0, 0.0, math.pi / 2).compose(Pose2D(1.0, 0.0, 0.0))
        assert pose.x == pytest.approx(0.0, abs=1e-12)
        assert pose.y == pytest.approx(1.0)

    @given(COORDS, COORDS, ANGLES)
    def test_inverse_is_group_inverse(self, x, y, theta):
        pose = Pose2D(x, y, theta)
        identity = pose.compose(pose.inverse())
        assert abs(identity.x) < 1e-6
        assert abs(identity.y) < 1e-6
        assert abs(identity.theta) < 1e-6

    @given(COORDS, COORDS, ANGLES, COORDS, COORDS, ANGLES)
    def test_between_then_compose_roundtrip(self, x1, y1, t1, x2, y2, t2):
        a = Pose2D(x1, y1, t1)
        b = Pose2D(x2, y2, t2)
        recovered = a.compose(a.between(b))
        assert recovered.x == pytest.approx(b.x, abs=1e-6)
        assert recovered.y == pytest.approx(b.y, abs=1e-6)
        assert abs(angle_difference(recovered.theta, b.theta)) < 1e-9

    def test_transform_point_matches_compose(self):
        pose = Pose2D(1.0, -2.0, 0.7)
        px, py = pose.transform_point(0.3, 0.4)
        composed = pose.compose(Pose2D(0.3, 0.4, 0.0))
        assert (px, py) == (pytest.approx(composed.x), pytest.approx(composed.y))

    def test_distance_and_heading_error(self):
        a = Pose2D(0.0, 0.0, 0.0)
        b = Pose2D(3.0, 4.0, math.pi / 4)
        assert a.distance_to(b) == pytest.approx(5.0)
        assert a.heading_error_to(b) == pytest.approx(math.pi / 4)

    def test_array_roundtrip(self):
        pose = Pose2D(1.0, 2.0, 0.5)
        assert Pose2D.from_array(pose.as_array()) == pose

    def test_identity(self):
        assert Pose2D.identity().as_array().tolist() == [0.0, 0.0, 0.0]


class TestVectorizedHelpers:
    def test_transform_points_matches_scalar(self):
        x = np.array([1.0, -2.0])
        y = np.array([0.5, 3.0])
        theta = np.array([0.3, -1.2])
        px = np.array([0.2, 0.0, -0.7])
        py = np.array([-0.1, 1.0, 0.4])
        wx, wy = transform_points(x, y, theta, px, py)
        assert wx.shape == (2, 3)
        for i in range(2):
            pose = Pose2D(x[i], y[i], theta[i])
            for k in range(3):
                ex, ey = pose.transform_point(px[k], py[k])
                assert wx[i, k] == pytest.approx(ex)
                assert wy[i, k] == pytest.approx(ey)

    def test_compose_arrays_matches_scalar(self):
        x = np.array([0.0, 1.0, -1.0])
        y = np.array([0.0, -1.0, 2.0])
        theta = np.array([0.0, math.pi / 2, -0.4])
        nx, ny, ntheta = compose_arrays(x, y, theta, 0.5, -0.2, 0.1)
        for i in range(3):
            expected = Pose2D(x[i], y[i], theta[i]).compose(Pose2D(0.5, -0.2, 0.1))
            assert nx[i] == pytest.approx(expected.x)
            assert ny[i] == pytest.approx(expected.y)
            assert abs(angle_difference(float(ntheta[i]), expected.theta)) < 1e-9

    def test_compose_arrays_per_particle_increments(self):
        x = np.zeros(2)
        y = np.zeros(2)
        theta = np.zeros(2)
        dx = np.array([1.0, 2.0])
        nx, __, __ = compose_arrays(x, y, theta, dx, 0.0, 0.0)
        np.testing.assert_allclose(nx, [1.0, 2.0])
