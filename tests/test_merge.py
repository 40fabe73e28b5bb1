"""LSE merge algebra: identities, exactness, and oracle agreement."""

from functools import reduce

import numpy as np
import pytest

from syncattn.core import AttnPartial, seeded_random_tensor
from syncattn.kernel import merge_partials
from syncattn.reference import naive_attention

NEG_INF = -np.inf


def _qkv(seed, bq, bk, dtype=np.float64):
    q = seeded_random_tensor(bq, seed, dtype)
    k = seeded_random_tensor(bk, seed + 1, dtype)
    v = seeded_random_tensor(bk, seed + 2, dtype)
    return q, k, v


def _split_partials(q, k, v, bounds):
    return [naive_attention(q, k[:, :, a:b], v[:, :, a:b]) for a, b in bounds]


class TestMergePartials:
    def test_equal_lse_averages_outputs(self):
        o1 = seeded_random_tensor((1, 1, 4, 8), 1)
        o2 = seeded_random_tensor((1, 1, 4, 8), 2)
        lse = seeded_random_tensor((1, 1, 4, 1), 3)[..., 0]
        merged = merge_partials(AttnPartial(o1, lse), AttnPartial(o2, lse))
        np.testing.assert_allclose(merged.out, (o1 + o2) / 2, atol=1e-6)
        np.testing.assert_allclose(merged.lse, lse + np.float32(np.log(2.0)), atol=1e-6)

    def test_empty_partial_is_exact_identity(self):
        q, k, v = _qkv(5, (1, 2, 5, 8), (1, 2, 7, 8), np.float32)
        p = naive_attention(q, k, v)
        empty = AttnPartial(np.zeros_like(p.out), np.full_like(p.lse, NEG_INF))
        for merged in (merge_partials(p, empty), merge_partials(empty, p)):
            assert np.array_equal(merged.out, p.out)
            assert np.array_equal(merged.lse, p.lse)
        # both sides empty stays empty
        both = merge_partials(empty, empty)
        assert np.all(both.out == 0.0) and np.all(np.isneginf(both.lse))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_rows_empty_on_both_sides_form_no_nan(self, dtype):
        # Rows 0 and 3 are empty on both sides, row 1 on the second, row 2 on the first.
        q, k, v = _qkv(7, (1, 1, 4, 8), (1, 1, 6, 8), dtype)
        p1, p2 = _split_partials(q, k, v, [(0, 3), (3, 6)])
        for p, rows in ((p1, [0, 2, 3]), (p2, [0, 1, 3])):
            p.out[:, :, rows], p.lse[:, :, rows] = 0, NEG_INF
        with np.errstate(all="raise"):
            merged = merge_partials(p1, p2)
        assert merged.out[:, :, [0, 3]].tobytes() == np.zeros((1, 1, 2, 8), dtype).tobytes()
        assert np.isneginf(merged.lse[:, :, [0, 3]]).all()
        assert merged.out[:, :, 1].tobytes() == p1.out[:, :, 1].tobytes()
        assert merged.out[:, :, 2].tobytes() == p2.out[:, :, 2].tobytes()

    def test_two_key_split_weights(self):
        # Key 1 scores 0, key 2 scores ln 3, so the merged weights are
        # exactly 1/4 and 3/4.
        d = 4
        q = np.zeros((1, 1, 1, d))
        q[..., 0] = np.sqrt(d)
        k1 = np.zeros((1, 1, 1, d))
        k1[..., 1] = 1.0  # orthogonal to q -> score 0
        k2 = np.zeros((1, 1, 1, d))
        k2[..., 0] = np.log(3.0)  # score = ln 3
        v1 = seeded_random_tensor((1, 1, 1, d), 11, np.float64)
        v2 = seeded_random_tensor((1, 1, 1, d), 12, np.float64)

        merged = merge_partials(naive_attention(q, k1, v1), naive_attention(q, k2, v2))
        expected = 0.25 * v1 + 0.75 * v2
        np.testing.assert_allclose(merged.out, expected, atol=1e-12)

        full = naive_attention(
            q, np.concatenate([k1, k2], axis=2), np.concatenate([v1, v2], axis=2)
        )
        np.testing.assert_allclose(merged.out, full.out, atol=1e-12)
        np.testing.assert_allclose(merged.lse, full.lse, atol=1e-12)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("case", ["random", "extreme_logits", "empty_rows"])
    def test_fold_is_bitwise_symmetric(self, case, dtype):
        # logaddexp, each weight and the final sum are each symmetric in IEEE
        # arithmetic, so a plan may fold a row's two blocks in either order.
        for seed in range(100):
            q, k, v = _qkv(1000 + 3 * seed, (1, 2, 6, 8), (1, 2, 11, 8), dtype)
            if case == "extreme_logits":  # max|s| = 1e3
                q = q * dtype(1e3 * np.sqrt(8) / np.max(np.abs(q @ k.transpose(0, 1, 3, 2))))
            p1, p2 = _split_partials(q, k, v, [(0, 1 + seed % 10), (1 + seed % 10, 11)])
            if case == "empty_rows":  # row 0 empty in p1, row 1 in p2, row 2 in both
                for p, rows in ((p1, [0, 2]), (p2, [1, 2])):
                    p.out[:, :, rows], p.lse[:, :, rows] = 0, NEG_INF
            a, b = merge_partials(p1, p2), merge_partials(p2, p1)
            assert a.out.tobytes() == b.out.tobytes() and a.lse.tobytes() == b.lse.tobytes(), seed

    def test_shift_consistency(self):
        # Shift every score of subset 1 by c via a bias coordinate shared
        # by its keys; lse1 rises by c and the merge still matches the
        # oracle on the shifted score matrix.
        d = 8
        c = 1.5
        q = seeded_random_tensor((1, 1, 3, d), 21, np.float64)
        k = seeded_random_tensor((1, 1, 9, d), 22, np.float64)
        v = seeded_random_tensor((1, 1, 9, d), 23, np.float64)
        k[:, :, :4, 0] = 1.0  # subset-1 keys share an exact bias coordinate
        k[:, :, 4:, 0] = 0.0

        p1 = naive_attention(q, k[:, :, :4], v[:, :, :4])
        q_shift = q.copy()
        q_shift[..., 0] += c * np.sqrt(d)  # adds c to subset-1 scores only
        p1_shift = naive_attention(q_shift, k[:, :, :4], v[:, :, :4])
        np.testing.assert_allclose(p1_shift.lse, p1.lse + c, atol=1e-12)

        p2_shift = naive_attention(q_shift, k[:, :, 4:], v[:, :, 4:])
        merged = merge_partials(p1_shift, p2_shift)
        full = naive_attention(q_shift, k, v)
        np.testing.assert_allclose(merged.out, full.out, atol=1e-12)
        np.testing.assert_allclose(merged.lse, full.lse, atol=1e-12)

    @pytest.mark.parametrize("same", [False, True], ids=["two_partials", "one_partial_twice"])
    def test_inputs_left_alone(self, same):
        # The fold weights its second operand in place; merge_partials gives
        # it a copy.
        q, k, v = _qkv(63, (1, 2, 5, 8), (1, 2, 9, 8), np.float32)
        p1, p2 = _split_partials(q, k, v, [(0, 4), (4, 9)])
        if same:
            p2 = p1
        before = [a.tobytes() for p in (p1, p2) for a in p]
        merge_partials(p1, p2)
        assert [a.tobytes() for p in (p1, p2) for a in p] == before

    def test_nested_list_partials_accepted(self):
        q, k, v = _qkv(65, (1, 2, 5, 8), (1, 2, 9, 8))
        p1, p2 = _split_partials(q, k, v, [(0, 4), (4, 9)])
        expected = merge_partials(p1, p2)
        for got in (merge_partials((p1.out.tolist(), p1.lse.tolist()), p2),
                    merge_partials(p1, (p2.out.tolist(), p2.lse.tolist()))):
            assert got.out.tobytes() == expected.out.tobytes() and got.lse.tobytes() == expected.lse.tobytes()

    def test_shape_mismatch_rejected(self):
        p = AttnPartial(np.zeros((1, 1, 2, 4)), np.zeros((1, 1, 2)))
        q = AttnPartial(np.zeros((1, 1, 3, 4)), np.zeros((1, 1, 3)))
        with pytest.raises(ValueError):
            merge_partials(p, q)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_nan_or_positive_inf_lse_rejected(self, bad):
        # An lse is finite, or -inf for a row that saw no keys; anything else
        # would turn the merged row into NaN.
        good = AttnPartial(np.ones((1, 2, 3, 3)), np.zeros((1, 2, 3)))
        broken = AttnPartial(np.ones((1, 2, 3, 3)), np.zeros((1, 2, 3)))
        broken.lse[0, 1, 2] = bad
        with pytest.raises(ValueError, match=r"p1 has lse .* at \(0, 1, 2\)"):
            merge_partials(broken, good)
        with pytest.raises(ValueError, match=r"p2 has lse .* at \(0, 1, 2\)"):
            merge_partials(good, broken)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("side", ["p1", "p2"])
    def test_non_finite_out_rejected(self, side, bad):
        # A non-finite output row would be weighted into the merged row.
        parts = {name: AttnPartial(np.ones((1, 2, 3, 4)), np.zeros((1, 2, 3))) for name in ("p1", "p2")}
        parts[side].out[0, 1, 2, 3] = bad
        with pytest.raises(ValueError, match=rf"{side} has a non-finite value .* \(batch, head, row, col\) \(0, 1, 2, 3\)"):
            merge_partials(parts["p1"], parts["p2"])

    def test_half_precision_rejected(self):
        # Otherwise float16 partials would merge and come back float16.
        p = AttnPartial(np.ones((1, 1, 2, 4), np.float16), np.zeros((1, 1, 2), np.float16))
        with pytest.raises(ValueError, match="p1 must be float32 or float64, got float16"):
            merge_partials(p, p)

    def test_two_axis_partials_rejected(self):
        p = AttnPartial(np.ones((2, 4)), np.zeros(2))
        with pytest.raises(ValueError, match=r"p1 must have 4 axes \(batch, head, row, col\), got 2"):
            merge_partials(p, p)

    @pytest.mark.parametrize("lse", [np.zeros((1, 1, 1)), np.zeros((1, 1, 2), np.float32)], ids=["shape", "dtype"])
    @pytest.mark.parametrize("side", ["p1", "p2"])
    def test_lse_not_matching_its_out_rejected(self, side, lse):
        # A (1, 1, 1) lse would broadcast against (1, 1, 2) rows and give a
        # wrong-shaped result; a float32 lse beside float64 rows would mix precisions.
        good = AttnPartial(np.ones((1, 1, 2, 4)), np.zeros((1, 1, 2)))
        parts = {"p1": good, "p2": good, side: AttnPartial(np.ones((1, 1, 2, 4)), lse)}
        with pytest.raises(ValueError, match=rf"{side} arrays must be out \(B, H, S_q, D\) and lse \(B, H, S_q\)"):
            merge_partials(parts["p1"], parts["p2"])

    @pytest.mark.parametrize("first,second", [(np.float32, np.float64), (np.float64, np.float32)])
    def test_mixed_precision_rejected(self, first, second):
        # Otherwise the result's precision would follow the argument order.
        p1 = _split_partials(*_qkv(51, (2, 3, 6, 8), (2, 3, 4, 8), first), [(0, 4)])[0]
        p2 = _split_partials(*_qkv(52, (2, 3, 6, 8), (2, 3, 5, 8), second), [(0, 5)])[0]
        # p2 is checked like p1.
        with pytest.raises(ValueError, match=rf"p2 must be \(2, 3, 6, 8\) {np.dtype(first).name}, "
                                             rf"got \(2, 3, 6, 8\) {np.dtype(second).name}"):
            merge_partials(p1, p2)


class TestMergeMany:
    def test_returns_fresh_arrays_and_leaves_inputs(self):
        q, k, v = _qkv(61, (1, 2, 5, 8), (1, 2, 12, 8), np.float32)
        parts = _split_partials(q, k, v, [(0, 4), (4, 8), (8, 12)])
        copies = [(p.out.copy(), p.lse.copy()) for p in parts]
        merged = reduce(merge_partials, parts)
        assert not any(np.shares_memory(m, x) for m in merged for p in parts for x in p)
        for p, (o, lse) in zip(parts, copies):
            assert p.out.tobytes() == o.tobytes() and p.lse.tobytes() == lse.tobytes()

    def test_fold_order_insensitive(self):
        q, k, v = _qkv(35, (1, 2, 5, 8), (1, 2, 12, 8), np.float32)
        parts = _split_partials(q, k, v, [(0, 4), (4, 8), (8, 12)])
        left = reduce(merge_partials, parts)
        right = reduce(merge_partials, parts[::-1])
        assert np.max(np.abs(left.out - right.out)) <= 1e-6
        assert np.max(np.abs(left.lse - right.lse)) <= 1e-6

    @pytest.mark.parametrize("dtype,tol", [(np.float32, 1e-5), (np.float64, 1e-12)])
    def test_partition_recovers_full_attention(self, dtype, tol):
        q, k, v = _qkv(41, (1, 2, 7, 8), (1, 2, 20, 8), dtype)
        parts = _split_partials(q, k, v, [(0, 3), (3, 9), (9, 14), (14, 20)])
        merged = reduce(merge_partials, parts)
        full = naive_attention(q, k, v)
        assert np.max(np.abs(merged.out - full.out)) <= tol
        assert np.max(np.abs(merged.lse - full.lse)) <= tol
