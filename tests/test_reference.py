"""Oracle attention: forward values, LSE conventions, and analytic gradients."""

import numpy as np
import pytest

from syncattn.core import seeded_random_tensor
from syncattn.reference import finite_diff_check, naive_attention, naive_backward


def _rand(shape, seed, dtype=np.float64):
    return seeded_random_tensor(shape, seed, dtype)


def _scores(q, k):
    # Independent score computation for cross-checks: s_ij = q_i.k_j / sqrt(D).
    return np.einsum("bhid,bhjd->bhij", q, k) / np.sqrt(q.shape[-1])


class TestForward:
    def test_single_key_returns_value_row(self):
        q = _rand((1, 1, 3, 4), 0)
        k = _rand((1, 1, 1, 4), 1)
        v = _rand((1, 1, 1, 4), 2)
        out, lse = naive_attention(q, k, v)
        np.testing.assert_allclose(out, np.broadcast_to(v, out.shape), rtol=0, atol=1e-14)
        np.testing.assert_allclose(lse, _scores(q, k)[..., 0], rtol=0, atol=1e-14)

    def test_uniform_softmax_over_orthogonal_keys(self):
        # q lives in the first coordinate, keys in the remaining ones, so
        # every score is 0 and the softmax is uniform over 3 keys.
        q = np.zeros((1, 1, 1, 4))
        q[..., 0] = 1.0
        k = np.zeros((1, 1, 3, 4))
        k[0, 0, 0, 1] = 1.0
        k[0, 0, 1, 2] = 1.0
        k[0, 0, 2, 3] = -2.0
        v = _rand((1, 1, 3, 4), 7)
        out, lse = naive_attention(q, k, v)
        np.testing.assert_allclose(out[0, 0, 0], v[0, 0].mean(axis=0), atol=1e-15)
        np.testing.assert_allclose(lse[0, 0, 0], np.log(3.0), atol=1e-15)

    def test_f32_matches_f64_recomputation(self):
        q64 = _rand((1, 2, 5, 4), 11)
        k64 = _rand((1, 2, 5, 4), 12)
        v64 = _rand((1, 2, 5, 4), 13)
        ref = naive_attention(q64, k64, v64)
        got = naive_attention(
            q64.astype(np.float32), k64.astype(np.float32), v64.astype(np.float32)
        )
        assert np.max(np.abs(got.out - ref.out)) <= 1e-5
        assert np.max(np.abs(got.lse - ref.lse)) <= 1e-5

    @pytest.mark.parametrize("dtype,tol", [(np.float32, 1e-6), (np.float64, 1e-12)])
    def test_row_stochasticity(self, dtype, tol):
        q = _rand((1, 2, 6, 8), 21, dtype)
        k = _rand((1, 2, 9, 8), 22, dtype)
        v = _rand((1, 2, 9, 8), 23, dtype)
        mask = np.ones((6, 9), dtype=bool)
        mask[2, 3:] = False  # partially masked row stays unmasked overall
        _, lse = naive_attention(q, k, v, mask)
        s = _scores(q.astype(np.float64), k.astype(np.float64))
        s = np.where(mask, s, -np.inf)
        total = np.exp(s - lse.astype(np.float64)[..., None]).sum(axis=-1)
        np.testing.assert_allclose(total, 1.0, rtol=0, atol=tol)

    def test_shift_invariance(self):
        # Keys carry an exactly-1.0 first coordinate, so adding
        # c*sqrt(D)*e0 to a query shifts that row's scores by exactly c.
        d = 8
        q = _rand((1, 1, 4, d), 31)
        k = _rand((1, 1, 6, d), 32)
        k[..., 0] = 1.0
        v = _rand((1, 1, 6, d), 33)
        base = naive_attention(q, k, v)

        c = 2.75
        q_shift = q.copy()
        q_shift[0, 0, 1, 0] += c * np.sqrt(d)
        shifted = naive_attention(q_shift, k, v)

        np.testing.assert_allclose(shifted.out[0, 0, 1], base.out[0, 0, 1], atol=1e-12)
        np.testing.assert_allclose(shifted.lse[0, 0, 1], base.lse[0, 0, 1] + c, atol=1e-12)
        # untouched rows identical
        assert np.array_equal(shifted.out[0, 0, 0], base.out[0, 0, 0])

    def test_all_true_mask_is_bitwise_no_mask(self):
        q = _rand((2, 2, 5, 4), 41, np.float32)
        k = _rand((2, 2, 7, 4), 42, np.float32)
        v = _rand((2, 2, 7, 4), 43, np.float32)
        plain = naive_attention(q, k, v)
        masked = naive_attention(q, k, v, np.ones((5, 7), dtype=bool))
        assert plain.out.tobytes() == masked.out.tobytes()
        assert plain.lse.tobytes() == masked.lse.tobytes()

    def test_all_masked_row_convention(self):
        q = _rand((1, 1, 3, 4), 51)
        k = _rand((1, 1, 4, 4), 52)
        v = _rand((1, 1, 4, 4), 53)
        mask = np.ones((3, 4), dtype=bool)
        mask[1] = False
        out, lse = naive_attention(q, k, v, mask)
        assert np.all(out[0, 0, 1] == 0.0)
        assert np.isneginf(lse[0, 0, 1])
        assert np.isfinite(lse[0, 0, [0, 2]]).all()

    def test_shape_and_precision_errors(self):
        q = _rand((1, 1, 3, 4), 61)
        k = _rand((1, 1, 4, 4), 62)
        v = _rand((1, 1, 5, 4), 63)
        with pytest.raises(ValueError):
            naive_attention(q, k, v)
        with pytest.raises(ValueError):
            naive_attention(q.astype(np.float32), k, k)
        with pytest.raises(ValueError):
            naive_attention(q, k, k, np.ones((3, 3), dtype=bool))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_zero_head_dim_rejected(self):
        # D = 0 would scale scores by 1/sqrt(0) and give NaN lse rows.
        q = np.zeros((1, 1, 3, 0))
        with pytest.raises(ValueError, match="head_dim must be >= 1"):
            naive_attention(q, q, q)


class TestBackward:
    def test_zero_dout_gives_zero_gradients(self):
        q = _rand((1, 2, 3, 4), 71)
        k = _rand((1, 2, 5, 4), 72)
        v = _rand((1, 2, 5, 4), 73)
        dq, dk, dv = naive_backward(q, k, v, np.zeros_like(q))
        assert not dq.any() and not dk.any() and not dv.any()

    def test_single_key_constant_softmax(self):
        q = _rand((1, 1, 4, 4), 81)
        k = _rand((1, 1, 1, 4), 82)
        v = _rand((1, 1, 1, 4), 83)
        dout = _rand((1, 1, 4, 4), 84)
        dq, dk, dv = naive_backward(q, k, v, dout)
        np.testing.assert_allclose(dv[0, 0, 0], dout[0, 0].sum(axis=0), atol=1e-14)
        np.testing.assert_allclose(dq, 0.0, atol=1e-14)
        np.testing.assert_allclose(dk, 0.0, atol=1e-14)

    def test_matches_finite_differences(self):
        q = _rand((1, 1, 4, 4), 91)
        k = _rand((1, 1, 6, 4), 92)
        v = _rand((1, 1, 6, 4), 93)
        report = finite_diff_check(q, k, v, seed=9)
        assert report.passed, report


class TestFiniteDiffCheck:
    def test_random_cases_pass(self):
        for seed, shape_q, shape_k in [
            (1, (1, 1, 4, 4), (1, 1, 4, 4)),
            (2, (1, 1, 4, 4), (1, 1, 6, 4)),
        ]:
            q = _rand(shape_q, seed * 10)
            k = _rand(shape_k, seed * 10 + 1)
            v = _rand(shape_k, seed * 10 + 2)
            assert finite_diff_check(q, k, v, seed=seed).passed

    def test_all_masked_row_passes_with_zero_dq(self):
        q = _rand((1, 1, 4, 4), 101)
        k = _rand((1, 1, 5, 4), 102)
        v = _rand((1, 1, 5, 4), 103)
        mask = np.ones((4, 5), dtype=bool)
        mask[2] = False
        assert finite_diff_check(q, k, v, mask, seed=4).passed
        dq, _, _ = naive_backward(q, k, v, _rand(q.shape, 5), mask)
        assert np.all(dq[0, 0, 2] == 0.0)

    def test_asymmetric_case_passes(self):
        q = _rand((1, 2, 3, 4), 111)
        k = _rand((1, 2, 7, 4), 112)
        v = _rand((1, 2, 7, 4), 113)
        assert finite_diff_check(q, k, v, seed=6).passed

    def test_requires_float64(self):
        q = _rand((1, 1, 2, 4), 121, np.float32)
        with pytest.raises(ValueError, match="float64"):
            finite_diff_check(q, q, q)

    def test_element_budget_enforced(self):
        q = _rand((1, 4, 32, 16), 131)
        with pytest.raises(ValueError, match="4096"):
            finite_diff_check(q, q, q)
