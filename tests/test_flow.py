"""Flow-matching path, loss, and Euler sampler."""

import numpy as np
import pytest

from syncattn.core import seeded_random_tensor
from syncattn.flow import euler_sample, fm_loss, interpolate, velocity_target


def _pair(seed, dtype=np.float64):
    x0 = seeded_random_tensor((1, 1, 8, 4), seed, dtype)
    x1 = seeded_random_tensor((1, 1, 8, 4), seed + 1, dtype)
    return x0, x1


class TestInterpolate:
    def test_endpoints_exact(self):
        x0, x1 = _pair(1)
        assert np.array_equal(interpolate(x0, x1, 0.0), x0)
        assert np.array_equal(interpolate(x0, x1, 1.0), x1)

    def test_scalar_midpoint(self):
        x0 = np.zeros((1, 1, 1, 1))
        x1 = np.full((1, 1, 1, 1), 2.0)
        assert interpolate(x0, x1, 0.5)[0, 0, 0, 0] == 1.0

    def test_t_out_of_range_rejected(self):
        x0, x1 = _pair(2)
        with pytest.raises(ValueError):
            interpolate(x0, x1, 1.5)
        with pytest.raises(ValueError):
            interpolate(x0, x1, -0.01)

    def test_shape_mismatch_rejected(self):
        x0, x1 = _pair(3)
        with pytest.raises(ValueError):
            interpolate(x0, x1[:, :, :4], 0.5)

    @pytest.mark.parametrize("scalar", [np.float64, np.float32])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_numpy_scalar_t_keeps_the_precision(self, dtype, scalar):
        # A numpy scalar is not weak under NEP 50; t enters the arithmetic as a Python float.
        x0, x1 = _pair(14, dtype)
        got = interpolate(x0, x1, scalar(0.25))
        assert got.dtype == dtype
        assert np.array_equal(got, interpolate(x0, x1, float(scalar(0.25))))

    @pytest.mark.parametrize("t", [np.array([0.5]), [0.5], np.full((1, 1), 0.5)], ids=["array", "list", "matrix"])
    def test_non_scalar_t_rejected(self, t):
        x0, x1 = _pair(15)
        with pytest.raises(ValueError, match="t must be a scalar in"):
            interpolate(x0, x1, t)


class TestVelocityTarget:
    def test_identical_inputs_zero(self):
        x0, _ = _pair(4)
        assert not velocity_target(x0, x0).any()

    def test_scalar_difference(self):
        x0 = np.zeros((1, 1, 1, 1))
        x1 = np.full((1, 1, 1, 1), 2.0)
        assert velocity_target(x0, x1)[0, 0, 0, 0] == 2.0

    def test_is_time_derivative_of_path(self):
        # central difference of the interpolation in t
        x0, x1 = _pair(5)
        h = 1e-6
        t = 0.37
        up = interpolate(x0, x1, t + h)
        down = interpolate(x0, x1, t - h)
        numeric = (up - down) / (2 * h)
        assert np.max(np.abs(numeric - velocity_target(x0, x1))) <= 1e-6


    def test_out_of_float_range_raises_one_named_error(self):
        x1 = np.full((1, 1, 2, 2), 3e38, np.float32)
        with pytest.raises(ValueError, match=r"x1 - x0 left the float range of float32 \(overflow encountered in subtract\)"):
            velocity_target(-x1, x1)


class TestFmLoss:
    def test_perfect_predictor_zero(self):
        x0, x1 = _pair(6)
        assert fm_loss(x1 - x0, x0, x1) == 0.0

    def test_unit_offset(self):
        x0, x1 = _pair(7)
        assert fm_loss(x1 - x0 + 1.0, x0, x1) == pytest.approx(1.0, abs=1e-12)

    def test_matches_direct_mse(self):
        x0, x1 = _pair(8)
        pred = seeded_random_tensor((1, 1, 8, 4), 99, np.float64)
        direct = float(np.mean((pred - (x1 - x0)) ** 2))
        assert abs(fm_loss(pred, x0, x1) - direct) <= 1e-12

    def test_nonnegative_and_zero_iff_exact(self):
        x0, x1 = _pair(9)
        assert fm_loss(x1 - x0, x0, x1) == 0.0
        bumped = (x1 - x0).copy()
        bumped[0, 0, 3, 1] += 1e-3
        assert fm_loss(bumped, x0, x1) > 0.0

    @pytest.mark.parametrize("shape", [(0,), (1, 1, 0, 4)])
    def test_empty_prediction_rejected(self, shape):
        # np.mean of nothing is NaN with a RuntimeWarning, not a loss.
        empty = np.zeros(shape)
        with pytest.raises(ValueError, match="empty"):
            fm_loss(empty, empty, empty)


    @pytest.mark.parametrize("pred,x0,x1,message", [
        (0, -3e38, 3e38, r"x1 - x0 left the float range of float32 \(overflow encountered in subtract\)"),
        (3e38, 0, 0, r"the loss left the float range of float32 \(overflow encountered in multiply\)"),
    ], ids=["target", "square"])
    def test_out_of_float_range_raises_one_named_error(self, pred, x0, x1, message):
        pred, x0, x1 = (np.full((1, 1, 2, 2), a, np.float32) for a in (pred, x0, x1))
        with pytest.raises(ValueError, match=message):
            fm_loss(pred, x0, x1)


class TestEulerSample:
    @pytest.mark.parametrize("steps", [1, 10, 100])
    def test_constant_velocity_recovers_target(self, steps):
        x0, x1 = _pair(10, np.float32)
        target = velocity_target(x0, x1)
        result = euler_sample(lambda x, t: target, x0, steps)
        assert np.max(np.abs(result - x1)) <= 1e-5

    def test_single_step_formula(self):
        x0, x1 = _pair(11)

        def vel(x, t):
            assert t == 0.0
            return x1 - x

        result = euler_sample(vel, x0, 1)
        assert np.array_equal(result, x0 + (x1 - x0))

    def test_contracting_field(self):
        x0 = np.full((1, 1, 1, 1), 1.0)
        result = euler_sample(lambda x, t: -x, x0, 1000)
        assert abs(result[0, 0, 0, 0] - np.exp(-1.0)) <= 1e-3

    def test_bad_steps_rejected(self):
        x0, _ = _pair(12)
        with pytest.raises(ValueError):
            euler_sample(lambda x, t: x, x0, 0)

    @pytest.mark.parametrize("steps", [True, 2.5])
    def test_non_integer_steps_rejected(self, steps):
        x0, _ = _pair(12)
        with pytest.raises(ValueError, match="steps must be an integer"):
            euler_sample(lambda x, t: x, x0, steps)

    def test_velocity_shape_violation_rejected(self):
        x0, _ = _pair(13)
        with pytest.raises(ValueError, match="velocity_fn"):
            euler_sample(lambda x, t: x[:, :, :2], x0, 3)

    def test_out_of_float_range_raises_one_named_error(self):
        x0 = np.full((1, 1, 2, 2), 3e38, np.float32)
        with pytest.raises(ValueError, match=r"the Euler step left the float range of float32 \(overflow encountered in add\)"):
            euler_sample(lambda x, t: np.full_like(x, 3e38), x0, 1)


class TestInputContract:
    """Each tensor that enters the module passes core.check_tensor, at any rank."""

    @pytest.mark.parametrize("call,message", [
        (lambda: fm_loss(np.array([np.nan, 1.0]), np.zeros(2), np.ones(2)),
         r"pred has a non-finite value nan at \(axis0\) \(0,\)"),
        (lambda: velocity_target(np.zeros((2, 2)), np.array([[0.0, 1.0], [np.inf, 0.0]])),
         r"x1 has a non-finite value inf at \(axis0, axis1\) \(1, 0\)"),
        (lambda: euler_sample(lambda x, t: x, np.array([1.0, -np.inf]), 3),
         r"x0 has a non-finite value -inf at \(axis0\) \(1,\)"),
    ], ids=["fm_loss", "velocity_target", "euler_sample"])
    def test_non_finite_input_named_by_index(self, call, message):
        # tests/test_exports.py plants a NaN in every argument; these pin the index.
        with pytest.raises(ValueError, match=message):
            call()

    def test_non_finite_velocity_named_by_its_call(self):
        # The second step's velocity is the first bad one.
        def vel(x, t):
            return np.full_like(x, np.nan if t > 0 else 1.0)

        with pytest.raises(ValueError, match=r"velocity_fn\(x, 0\.5\) has a non-finite value nan"):
            euler_sample(vel, np.zeros(2), 2)

    @pytest.mark.parametrize("dtype", [np.int64, np.float16])
    def test_other_precisions_rejected(self, dtype):
        x = np.ones((2, 2), dtype)
        for call in (lambda: interpolate(x, x, 0.5), lambda: velocity_target(x, x), lambda: fm_loss(x, x, x),
                     lambda: euler_sample(lambda y, t: y, x, 1)):
            with pytest.raises(ValueError, match="must be float32 or float64"):
                call()
