"""Streaming kernel vs the oracle: values, LSE, varlen grouping, memory."""

import numpy as np
import pytest

from syncattn import kernel
from syncattn.bench import measure_peak_bytes
from syncattn.core import AttnPartial, TokenLayout, per_frame_cu_seqlens, seeded_random_tensor
from syncattn.kernel import TileConfig, flash_varlen_forward, merge_partials
from syncattn.reference import naive_attention
from syncattn.topology import InjectionConfig, block_plan, build_mask, masked3d_forward


def _qkv(seed, bq, bk, dtype=np.float32):
    q = seeded_random_tensor(bq, seed, dtype)
    k = seeded_random_tensor(bk, seed + 1, dtype)
    v = seeded_random_tensor(bk, seed + 2, dtype)
    return q, k, v


def _block_diag_mask(cu_q, cu_k):
    allow = np.zeros((cu_q[-1], cu_k[-1]), dtype=bool)
    for g in range(len(cu_q) - 1):
        allow[cu_q[g] : cu_q[g + 1], cu_k[g] : cu_k[g + 1]] = True
    return allow


def _lse_diff(a, b):
    """Max abs difference of two lse arrays, with matching -inf counting as 0."""
    assert np.array_equal(np.isneginf(a), np.isneginf(b))
    finite = ~np.isneginf(a)
    return np.max(np.abs(a[finite] - b[finite])) if finite.any() else 0.0


class TestFlashForward:
    """The dense call: ``flash_varlen_forward`` with one group, ``[0, S_q], [0, S_k]``."""

    def test_single_query_single_key(self):
        q, k, v = _qkv(0, (1, 1, 1, 4), (1, 1, 1, 4), np.float64)
        out, lse = flash_varlen_forward(q, k, v, [0, 1], [0, 1])
        np.testing.assert_allclose(out, v, atol=1e-15)
        expected_s = float(q[0, 0, 0] @ k[0, 0, 0]) / 2.0
        np.testing.assert_allclose(lse[0, 0, 0], expected_s, atol=1e-15)

    def test_single_tile_matches_oracle(self):
        q, k, v = _qkv(3, (1, 2, 17, 8), (1, 2, 40, 8))
        got = flash_varlen_forward(q, k, v, [0, 17], [0, 40], TileConfig(64, 64))
        ref = naive_attention(q, k, v)
        assert np.max(np.abs(got.out - ref.out)) <= 1e-6
        assert np.max(np.abs(got.lse - ref.lse)) <= 1e-6

    @pytest.mark.parametrize("dtype,tol", [(np.float32, 1e-5), (np.float64, 1e-12)])
    def test_many_tiles_match_oracle(self, dtype, tol):
        q, k, v = _qkv(7, (1, 1, 33, 16), (1, 1, 5000, 16), dtype)
        got = flash_varlen_forward(q, k, v, [0, 33], [0, 5000], TileConfig(16, 64))
        ref = naive_attention(q, k, v)
        assert np.max(np.abs(got.out - ref.out)) <= tol
        assert np.max(np.abs(got.lse - ref.lse)) <= tol

    def test_zero_keys_returns_empty_partial(self):
        q = seeded_random_tensor((1, 1, 4, 8), 1)
        k = np.zeros((1, 1, 0, 8), dtype=np.float32)
        out, lse = flash_varlen_forward(q, k, k, [0, 4], [0, 0])
        assert np.all(out == 0.0)
        assert np.all(np.isneginf(lse))

    def test_randomized_oracle_equivalence(self):
        rng = np.random.Generator(np.random.Philox(99))
        for i in range(25):
            s_q = int(rng.integers(1, 258))
            s_k = int(rng.integers(1, 258))
            h = int(rng.choice([1, 4]))
            d = int(rng.choice([8, 16, 64]))
            dtype, tol = (np.float32, 1e-5) if i % 2 else (np.float64, 1e-12)
            q, k, v = _qkv(1000 + i, (1, h, s_q, d), (1, h, s_k, d), dtype)
            got = flash_varlen_forward(q, k, v, [0, s_q], [0, s_k])
            ref = naive_attention(q, k, v)
            assert np.max(np.abs(got.out - ref.out)) <= tol, (s_q, s_k, h, d, dtype)
            assert np.max(np.abs(got.lse - ref.lse)) <= tol

    def test_tile_independence(self):
        q, k, v = _qkv(13, (1, 2, 100, 16), (1, 2, 300, 16))
        results = [
            flash_varlen_forward(q, k, v, [0, 100], [0, 300], TileConfig(qb, kb))
            for qb, kb in [(16, 16), (64, 64), (128, 32)]
        ]
        for other in results[1:]:
            assert np.max(np.abs(results[0].out - other.out)) <= 1e-6
            assert np.max(np.abs(results[0].lse - other.lse)) <= 1e-6

    def test_memory_independent_of_key_length(self):
        # Transient allocations for a fixed query block must not grow with
        # S_k; only tile-sized buffers may be live at once.  Measured with
        # the same allocation counter the bench harness uses.
        def peak_for(s_k):
            q, k, v = _qkv(17, (1, 1, 64, 32), (1, 1, s_k, 32))
            _, peak = measure_peak_bytes(lambda: flash_varlen_forward(q, k, v, [0, 64], [0, s_k], TileConfig(64, 64)))
            return peak

        small, large = peak_for(256), peak_for(4096)
        assert large < 1.5 * small, (small, large)

    def test_memory_independent_of_key_length_default_tiles(self):
        # The same law at the default tiles, where one query block streams
        # several key tiles and a key tile serves one query block.
        def peak_for(s_k):
            q, k, v = _qkv(19, (1, 1, 64, 64), (1, 1, s_k, 64))
            _, peak = measure_peak_bytes(lambda: flash_varlen_forward(q, k, v, [0, 64], [0, s_k]))
            return peak

        assert 1024 > TileConfig().k_block
        small, large = peak_for(1024), peak_for(8192)
        assert large < 1.5 * small, (small, large)

    def test_shape_errors(self):
        q = seeded_random_tensor((1, 1, 4, 8), 0)
        k = seeded_random_tensor((1, 2, 4, 8), 1)
        with pytest.raises(ValueError):
            flash_varlen_forward(q, k, k, [0, 4], [0, 4])
        with pytest.raises(ValueError):
            flash_varlen_forward(q, q.astype(np.float64), q, [0, 4], [0, 4])
        with pytest.raises(ValueError, match="4 axes"):
            flash_varlen_forward(q[0], q[0], q[0], [0, 4], [0, 4])
        with pytest.raises(ValueError, match="q_block must be >= 1"):
            TileConfig(0, 64)
        with pytest.raises(ValueError, match="q_block must be an integer"):
            TileConfig(2.5, 2)
        with pytest.raises(ValueError, match="k_block must be an integer"):
            TileConfig(2, True)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_zero_head_dim_rejected(self):
        q = np.zeros((1, 2, 3, 0), dtype=np.float32)
        with pytest.raises(ValueError, match="head_dim must be >= 1"):
            flash_varlen_forward(q, q, q, [0, 3], [0, 3])


EXTREME_LAYOUT = TokenLayout(frames=4, video_per_frame=40, audio_per_frame=6, others_len=30)


def _extreme_logit_inputs(entry, q_scale, dtype):
    """The entry's q, k, v with q scaled by ``q_scale``."""
    if entry == "flash_varlen_forward":
        q, k, v = _qkv(47, (1, 2, 70, 32), (1, 2, 1100, 32), dtype)
    else:
        dims = (1, 2, EXTREME_LAYOUT.total_len, 32)
        q, k, v = _qkv(53, dims, dims, dtype)
    return q * dtype(q_scale), k, v


def _extreme_logit_case(entry, q_scale, dtype):
    """Inputs with q scaled by ``q_scale``, the entry's output on them, and
    the float64 oracle on the same (exactly widened) values."""
    q, k, v = _extreme_logit_inputs(entry, q_scale, dtype)
    if entry == "flash_varlen_forward":
        mask, got = None, flash_varlen_forward(q, k, v, [0, q.shape[2]], [0, k.shape[2]]).out
    else:
        mask = build_mask(EXTREME_LAYOUT, InjectionConfig.MASKED_3D)
        got = masked3d_forward(q, k, v, EXTREME_LAYOUT)
    oracle = naive_attention(*(x.astype(np.float64) for x in (q, k, v)), mask).out
    return q, k, v, got, oracle


def _max_score(q, k):
    """max|s| over every (query, key) pair, s = q.k / sqrt(head_dim)."""
    s = np.einsum("bhqd,bhkd->bhqk", q.astype(np.float64), k.astype(np.float64))
    return np.max(np.abs(s)) / np.sqrt(q.shape[-1])


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("entry", ["flash_varlen_forward", "masked3d_forward"])
@pytest.mark.parametrize("q_scale", [1, 8, 64, 3000])
class TestExtremeLogits:
    """Scaled queries push the scores to |s| ~ 16 000 over several key
    tiles.  Float32 tile arithmetic rounds each score to 2**-24 relative,
    so its error grows with max|s|; float64 keeps the oracle tolerance."""

    def test_f32_error_follows_logit_law(self, entry, q_scale):
        q, k, v, got, oracle = _extreme_logit_case(entry, q_scale, np.float32)
        bound = 4 * 2.0**-24 * _max_score(q, k) * np.max(np.abs(v))
        err = np.max(np.abs(got - oracle))
        assert err <= bound, (err, bound)
        if q_scale == 1:
            assert err <= 1e-5

    def test_f32_lse_follows_logit_law(self, entry, q_scale):
        # The merges weight partials by exp(lse1 - lse), so the lse of each
        # kernel call obeys its own law: the dense call's, or that of every
        # block masked3d_forward runs (its stacked per-frame groups too).
        q, k, v = _extreme_logit_inputs(entry, q_scale, np.float32)
        if entry == "flash_varlen_forward":
            calls = [(slice(None), slice(None), [0, q.shape[2]], [0, k.shape[2]])]
        else:
            calls = [(b.rows, b.cols, b.cu_q, b.cu_k) for b in block_plan(EXTREME_LAYOUT, InjectionConfig.MASKED_3D)]
        bound = 8 * 2.0**-24 * (_max_score(q, k) + np.log(k.shape[2]))
        for rows, cols, cu_q, cu_k in calls:
            sub = (q[:, :, rows], k[:, :, cols], v[:, :, cols])
            got = flash_varlen_forward(*sub, cu_q, cu_k).lse
            oracle = naive_attention(*(x.astype(np.float64) for x in sub), _block_diag_mask(cu_q, cu_k)).lse
            err = _lse_diff(got, oracle)
            assert err <= bound, (rows, err, bound)

    def test_f64_keeps_oracle_tolerance(self, entry, q_scale):
        *_, got, oracle = _extreme_logit_case(entry, q_scale, np.float64)
        assert np.max(np.abs(got - oracle)) <= 1e-12


class TestFlashVarlen:
    def test_single_group_equals_dense(self):
        # The dense call is the one-group call, whatever form its bounds take.
        q, k, v = _qkv(23, (1, 2, 37, 8), (1, 2, 51, 8))
        dense = flash_varlen_forward(q, k, v, [0, 37], [0, 51])
        varlen = flash_varlen_forward(q, k, v, np.array([0, 37]), np.array([0, 51]))
        assert dense.out.tobytes() == varlen.out.tobytes()
        assert dense.lse.tobytes() == varlen.lse.tobytes()

    def test_equal_groups_match_block_diagonal_oracle(self):
        cu_q = per_frame_cu_seqlens(10, 3)
        cu_k = per_frame_cu_seqlens(14, 3)
        q, k, v = _qkv(29, (1, 2, 30, 8), (1, 2, 42, 8))
        got = flash_varlen_forward(q, k, v, cu_q, cu_k)
        ref = naive_attention(q, k, v, _block_diag_mask(cu_q, cu_k))
        assert np.max(np.abs(got.out - ref.out)) <= 1e-6
        assert np.max(np.abs(got.lse - ref.lse)) <= 1e-6

    def test_unequal_groups_match_block_diagonal_oracle(self):
        cu_q = np.array([0, 5, 5, 12, 20])
        cu_k = np.array([0, 7, 10, 10, 25])
        q, k, v = _qkv(31, (2, 1, 20, 16), (2, 1, 25, 16), np.float64)
        got = flash_varlen_forward(q, k, v, cu_q, cu_k)
        ref = naive_attention(q, k, v, _block_diag_mask(cu_q, cu_k))
        assert np.max(np.abs(got.out - ref.out)) <= 1e-12
        assert _lse_diff(got.lse, ref.lse) <= 1e-12

    def test_zero_key_group_yields_empty_rows(self):
        cu_q = np.array([0, 2, 4])
        cu_k = np.array([0, 0, 6])  # first group has queries but no keys
        q, k, v = _qkv(37, (1, 1, 4, 8), (1, 1, 6, 8))
        out, lse = flash_varlen_forward(q, k, v, cu_q, cu_k)
        assert np.all(out[0, 0, :2] == 0.0)
        assert np.all(np.isneginf(lse[0, 0, :2]))
        assert np.isfinite(lse[0, 0, 2:]).all()

    def test_sequence_slices_are_read_in_place(self):
        # Slices along the sequence axis of a multi-head tensor are not
        # contiguous, but every (batch, head) row block of them is, so the
        # kernel reads them where they are: a call allocates less than one
        # of its key slices and matches the same call on contiguous copies.
        q, k, v = _qkv(43, (1, 2, 4096, 32), (1, 2, 4096, 32))
        qs, ks, vs = q[:, :, 5:69], k[:, :, 64:4064], v[:, :, 64:4064]
        assert not ks.flags.c_contiguous
        cu_q, cu_k = [0, 30, 64], [0, 1000, 4000]
        got, peak = measure_peak_bytes(lambda: flash_varlen_forward(qs, ks, vs, cu_q, cu_k))
        assert peak < ks.nbytes, (peak, ks.nbytes)
        copied = flash_varlen_forward(*map(np.ascontiguousarray, (qs, ks, vs)), cu_q, cu_k)
        assert got.out.tobytes() == copied.out.tobytes()
        assert got.lse.tobytes() == copied.lse.tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_stacks_equal_per_group_calls(self, dtype, monkeypatch):
        # At 4x3 tiles and head_dim 3 a unit holds at most 12 scores and
        # 12 PV numbers, so 4 rows: nine 2x3 groups stack in twos, the 5x7
        # group between two runs runs as slices of 4 and 1 rows, and 1x2
        # groups stack up to four, cut by a zero-key and a zero-query group
        # but not by an empty one.
        sizes = [(2, 3)] * 9 + [(5, 7)] + [(1, 2)] * 3 + [(2, 0)] + [(1, 2)] * 2 + [(0, 0)]
        sizes += [(1, 2)] + [(0, 2)] + [(1, 2)] * 2
        cu_q, cu_k = (np.cumsum([0] + [sz[i] for sz in sizes]) for i in (0, 1))
        tile = TileConfig(4, 3)
        q, k, v = _qkv(59, (2, 2, cu_q[-1], 3), (2, 2, cu_k[-1], 3), dtype)

        stacks, run_stack = [], kernel._flash_group
        monkeypatch.setattr(kernel, "_flash_group", lambda q_grp, *rest: stacks.append(len(q_grp)) or run_stack(q_grp, *rest))
        got = flash_varlen_forward(q, k, v, cu_q, cu_k, tile)
        monkeypatch.undo()
        assert stacks == [2, 2, 2, 2, 1, 1, 1, 3, 3, 2] * 4  # per (batch, head)

        parts = [
            flash_varlen_forward(q[:, :, q0:q1], k[:, :, k0:k1], v[:, :, k0:k1], [0, q1 - q0], [0, k1 - k0], tile)
            for q0, q1, k0, k1 in zip(cu_q[:-1], cu_q[1:], cu_k[:-1], cu_k[1:])
        ]
        assert got.out.tobytes() == np.concatenate([p.out for p in parts], axis=2).tobytes()
        assert got.lse.tobytes() == np.concatenate([p.lse for p in parts], axis=2).tobytes()

    def test_tiny_groups_stack_within_one_tile(self):
        # 4096 groups of 4x8 at the default tiles stack; besides its result
        # the call holds one default tile's worth of numbers (here the PV
        # product of a stack) plus a few rows of softmax state.
        cu_q, cu_k = per_frame_cu_seqlens(4, 4096), per_frame_cu_seqlens(8, 4096)
        q, k, v = _qkv(61, (1, 1, cu_q[-1], 64), (1, 1, cu_k[-1], 64))
        (out, lse), peak = measure_peak_bytes(lambda: flash_varlen_forward(q, k, v, cu_q, cu_k))
        tile = TileConfig()
        assert peak - out.nbytes - lse.nbytes <= (tile.q_block * tile.k_block + 3 * cu_q[-1]) * q.itemsize

    def test_large_groups_stay_unstacked(self):
        # 264x264 groups (the flat 2D self-attention's) exceed the budget in
        # twos, so 16 of them need no more transient memory than one.
        def transient(groups):
            cu = per_frame_cu_seqlens(264, groups)
            q, k, v = _qkv(67, (1, 1, cu[-1], 64), (1, 1, cu[-1], 64))
            (out, lse), peak = measure_peak_bytes(lambda: flash_varlen_forward(q, k, v, cu, cu))
            return peak - out.nbytes - lse.nbytes

        one, many = transient(1), transient(16)
        assert many <= 1.1 * one, (one, many)

    def test_stacking_rule_matches_the_group_loop(self):
        # The reference: one pass over the groups.  A group whose rows fit the
        # budget grows the last unit while it continues it and the grown
        # unit's rows still fit; a longer group runs as slices of the most
        # rows that fit, at least one, each over all its keys.
        def loop(cu_q, cu_k, d, tile):
            budget = tile.q_block * tile.k_block
            units, run = [], None  # run: the (S_q, S_k) the last unit may take more of
            for q0, q1, k0, k1 in zip(cu_q[:-1].tolist(), cu_q[1:].tolist(), cu_k[:-1].tolist(), cu_k[1:].tolist()):
                sq, sk = q1 - q0, k1 - k0
                if sq == 0 or sk == 0:
                    run = run if sq == sk else None  # a (0, 0) group splits no run
                    continue
                width = max(min(sk, tile.k_block), d)  # numbers per row in the score tile or the PV product
                if sq * width > budget:
                    rows = 1
                    while (rows + 1) * width <= budget:
                        rows += 1
                    units += [(q0 + i, k0, min(rows, sq - i), sk, 1) for i in range(0, sq, rows)]
                    run = None
                elif run == (sq, sk) and (units[-1][4] + 1) * sq * width <= budget:
                    units[-1] = (*units[-1][:4], units[-1][4] + 1)
                else:
                    units.append((q0, k0, sq, sk, 1))
                    run = (sq, sk)
            return units

        rng = np.random.default_rng(5)
        for _ in range(500):
            groups = int(rng.integers(0, 40))
            sizes = rng.integers(0, 12, size=(3, 2))[rng.integers(0, 3, size=groups)]  # three (S_q, S_k): runs
            cu_q, cu_k = (np.concatenate([[0], np.cumsum(sizes[:, i])]) for i in (0, 1))
            tile, d = TileConfig(*map(int, rng.integers(1, 9, size=2))), int(rng.integers(1, 5))
            assert kernel._stacks(cu_q, cu_k, d, tile) == loop(cu_q, cu_k, d, tile)

    def test_long_clip_runs_eight_units_per_head(self, monkeypatch):
        # The benchmark's long_clip layout: the dense 1040-row block as slices
        # of 256, 256, 256, 256 and 16 rows, then each per-frame block's 256
        # equal groups as one stack.
        layout = TokenLayout(frames=256, video_per_frame=4, audio_per_frame=8, others_len=16)
        heads = 2
        q, k, v = _qkv(83, (1, heads, layout.total_len, 64), (1, heads, layout.total_len, 64))
        stacks, run_stack = [], kernel._flash_group
        monkeypatch.setattr(kernel, "_flash_group", lambda q_grp, *rest: stacks.append(len(q_grp)) or run_stack(q_grp, *rest))
        masked3d_forward(q, k, v, layout)
        assert stacks == [1] * 5 * heads + [256] * 3 * heads

    def test_non_integer_boundaries_rejected(self):
        q, k, v = _qkv(43, (1, 1, 3, 8), (1, 1, 3, 8))
        # A boundary past int64, a complex, object or bool array: refused by
        # the same error, not by an OverflowError or a ComplexWarning.
        for bad in ([0, 1.5, 3], [0, np.nan, 3], [0, np.inf, 3], [0, 2**70], np.array([0, 3 + 0j]),
                    np.array([0, 3], object), [False, True]):
            with pytest.raises(ValueError, match="integer boundaries"):
                flash_varlen_forward(q, k, v, bad, bad)
        whole = flash_varlen_forward(q, k, v, [0.0, 1.0, 3.0], [0.0, 2.0, 3.0])
        assert whole.out.tobytes() == flash_varlen_forward(q, k, v, [0, 1, 3], [0, 2, 3]).out.tobytes()

    def test_boundary_validation(self):
        q, k, v = _qkv(41, (1, 1, 6, 8), (1, 1, 6, 8))
        with pytest.raises(ValueError, match="packed length"):
            flash_varlen_forward(q, k, v, np.array([0, 3]), np.array([0, 6]))
        with pytest.raises(ValueError, match="group-count"):
            flash_varlen_forward(q, k, v, np.array([0, 3, 6]), np.array([0, 6]))
        with pytest.raises(ValueError, match="non-decreasing"):
            flash_varlen_forward(q, k, v, np.array([0, 4, 3, 6]), np.array([0, 2, 4, 6]))


def _general_flash_group(q_grp, k_grp, v_grp, out, lse, tile):
    """The kernel's tile loop with one update for every key tile: the first
    tile, too, rescales the empty state (m = -inf, l = 0, acc = 0) and adds
    its PV product to it.  The reference the kernel must match bit for bit."""
    g, s_q, d = q_grp.shape
    scale = q_grp.dtype.type(1.0 / np.sqrt(d))
    l = np.zeros((g, s_q), dtype=q_grp.dtype)
    for j0 in range(0, k_grp.shape[1], tile.k_block):
        s = q_grp @ k_grp[:, j0:j0 + tile.k_block].transpose(0, 2, 1)
        s *= scale
        m_new = np.maximum(lse, s.max(axis=2))
        alpha = np.exp(lse - m_new)
        s -= m_new[..., None]
        np.exp(s, out=s)
        l *= alpha
        l += s.sum(axis=2)
        out *= alpha[..., None]
        out += s @ v_grp[:, j0:j0 + tile.k_block]
        lse[...] = m_new
    out /= l[..., None]
    lse += np.log(l, out=l)


class TestFirstKeyTile:
    """The kernel starts each unit on its first key tile without rescaling,
    writing the PV product straight into the accumulator.  It must give the
    bits of the general update, fresh and folded into a prior partial."""

    # Stacks of four equal groups over two key tiles, a group of one key
    # tile, a 70-row group over three key tiles that runs as slices of 64
    # and 6 rows, and a zero-key group.
    CU_Q = np.cumsum([0, 5, 5, 5, 5, 3, 70, 2])
    CU_K = np.cumsum([0, 20, 20, 20, 20, 7, 40, 0])
    TILE = TileConfig(64, 16)

    def _inputs(self, case, dtype):
        q, k, v = _qkv(81, (2, 2, self.CU_Q[-1], 8), (2, 2, self.CU_K[-1], 8), dtype)
        if case == "extreme_logits":
            q = q * dtype(3000)
            assert 5e3 < _max_score(q, k) < 5e4
        elif case == "near_subnormal":
            tiny = np.finfo(dtype).tiny
            q, k, v = q * np.sqrt(tiny), k * np.sqrt(tiny), v * (4 * tiny)
        elif case == "negative_zero_column":
            v[..., 0] = -0.0
        return q, k, v

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("case", ["random", "extreme_logits", "near_subnormal", "negative_zero_column"])
    def test_matches_the_general_update(self, case, dtype, monkeypatch):
        q, k, v = self._inputs(case, dtype)
        units = kernel._stacks(self.CU_Q, self.CU_K, 8, self.TILE)
        assert [(n, sk) for *_, sk, n in units] == [(4, 20), (1, 7), (1, 40), (1, 40)]
        # A prior over other keys: groups 0, 1 and 5 hold a partial, the rest are empty.
        cu_k2 = np.cumsum([0, 3, 3, 0, 0, 2, 9, 1])
        k2, v2 = (seeded_random_tensor((2, 2, cu_k2[-1], 8), seed, dtype) for seed in (85, 86))
        prior = flash_varlen_forward(q, k2, v2, self.CU_Q, cu_k2, self.TILE)
        results = {}
        for name, group in (("kernel", kernel._flash_group), ("general", _general_flash_group)):
            monkeypatch.setattr(kernel, "_flash_group", group)
            fresh = flash_varlen_forward(q, k, v, self.CU_Q, self.CU_K, self.TILE)
            merged = flash_varlen_forward(q, k, v, self.CU_Q, self.CU_K, self.TILE,
                                          out=AttnPartial(prior.out.copy(), prior.lse.copy()))
            results[name] = [a.tobytes() for p in (fresh, merged) for a in p]
            if case == "negative_zero_column":
                assert not np.signbit(fresh.out[..., 0]).any()
        assert results["kernel"] == results["general"]


class TestFloatRange:
    """Finite inputs whose scores or PV sums leave the float range of their
    precision raise one ValueError, rather than return NaN or inf or blame
    the output rows a block was folding into."""

    LAYOUT = TokenLayout(frames=2, video_per_frame=3, audio_per_frame=2, others_len=2)
    ENTRIES = {
        "flash_varlen_forward": lambda q, k, v: flash_varlen_forward(q, k, v, [0, 6, 12], [0, 6, 12]),
        "masked3d_forward": lambda q, k, v: masked3d_forward(q, k, v, TestFloatRange.LAYOUT),
    }
    # Per precision, the (q, k, v) values of head_dim-2 inputs: "scores"
    # overflows q k^T, "spread" (keys of alternating sign) only a row's
    # largest score minus its smallest, and "pv" the PV sum over two or more
    # keys of scores near 0, though their mean fits.
    VALUES = {np.float32: {"scores": (1.5e19, 1.5e19, 1), "spread": (1e19, 1.4e19, 1), "pv": (1e-3, 1, 3e38)},
              np.float64: {"scores": (1e155, 1e155, 1), "spread": (1e154, 0.8e154, 1), "pv": (1e-3, 1, 1e308)}}

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("case", ["scores", "spread", "pv"])
    @pytest.mark.parametrize("entry", sorted(ENTRIES))
    def test_raises_one_named_error(self, entry, case, dtype):
        q, k, v = (np.full((1, 2, self.LAYOUT.total_len, 2), x, dtype) for x in self.VALUES[dtype][case])
        if case == "spread":
            k[:, :, 1::2] *= -1
        if dtype is np.float32:  # the oracle computes in float64, where these still fit
            assert np.isfinite(naive_attention(q, k, v, build_mask(self.LAYOUT, InjectionConfig.MASKED_3D)).out).all()
        with pytest.raises(ValueError, match=f"the attention of these finite inputs left the float range of {np.dtype(dtype)}"):
            self.ENTRIES[entry](q, k, v)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("case", ["scores", "spread", "pv"])
    def test_masked3d_forward_needs_no_kernel_check(self, unchecked_kernel, case, dtype):
        # The float-range guard, not a per-block rescan, raises each error.
        self.test_raises_one_named_error("masked3d_forward", case, dtype)


class TestVarlenOut:
    """``flash_varlen_forward(..., out=...)`` folds into a given partial."""

    # Runs of equal groups (stacked), a zero-key group and a zero-query group.
    CU_Q = np.cumsum([0, 2, 2, 2, 2, 3, 1, 0])
    CU_K = np.cumsum([0, 3, 3, 3, 3, 0, 5, 2])

    def _inputs(self, dtype):
        return _qkv(71, (2, 2, self.CU_Q[-1], 6), (2, 2, self.CU_K[-1], 6), dtype)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_folding_into_empty_strided_views_gives_the_fresh_result(self, dtype):
        q, k, v = self._inputs(dtype)
        tile = TileConfig(4, 3)
        fresh = flash_varlen_forward(q, k, v, self.CU_Q, self.CU_K, tile)
        # The empty partial on every other row of a NaN buffer, inside a
        # wider head dimension.
        big_out = np.full((2, 2, 2 * q.shape[2] + 3, 8), np.nan, dtype)
        big_lse = np.full((2, 2, 2 * q.shape[2] + 3), np.nan, dtype)
        rows = slice(3, 3 + 2 * q.shape[2], 2)
        dest = AttnPartial(big_out[:, :, rows, 1:7], big_lse[:, :, rows])
        dest.out[...], dest.lse[...] = 0, -np.inf
        assert not dest.out.flags.c_contiguous
        got = flash_varlen_forward(q, k, v, self.CU_Q, self.CU_K, tile, out=dest)
        assert got is dest
        assert np.ascontiguousarray(dest.out).tobytes() == fresh.out.tobytes()
        assert np.ascontiguousarray(dest.lse).tobytes() == fresh.lse.tobytes()
        outside = np.ones(big_out.shape, bool)
        outside[:, :, rows, 1:7] = False
        assert np.isnan(big_out[outside]).all()
        outside_lse = np.ones(big_lse.shape, bool)
        outside_lse[:, :, rows] = False
        assert np.isnan(big_lse[outside_lse]).all()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_folding_into_a_partial_merges(self, dtype):
        q, k, v = self._inputs(dtype)
        tile = TileConfig(4, 3)
        fresh = flash_varlen_forward(q, k, v, self.CU_Q, self.CU_K, tile)
        # A prior partial over other keys: the units of groups 0, 1 and 5
        # (one group each at these tiles) find empty rows, those of groups 2
        # and 3 full rows, and group 2's first row is emptied as well.
        cu_k2 = np.cumsum([0, 0, 0, 4, 2, 3, 0, 1])
        k2, v2 = (seeded_random_tensor((2, 2, cu_k2[-1], 6), seed, dtype) for seed in (75, 76))
        prior = flash_varlen_forward(q, k2, v2, self.CU_Q, cu_k2, tile)
        prior.out[:, :, 4], prior.lse[:, :, 4] = 0, -np.inf
        expected = merge_partials(prior, fresh)
        # The prior on every other row of a NaN buffer, inside a wider head dimension.
        big_out = np.full((2, 2, 2 * q.shape[2], 8), np.nan, dtype)
        big_lse = np.full((2, 2, 2 * q.shape[2]), np.nan, dtype)
        dest = AttnPartial(big_out[:, :, ::2, 1:7], big_lse[:, :, ::2])
        dest.out[...], dest.lse[...] = prior
        got = flash_varlen_forward(q, k, v, self.CU_Q, self.CU_K, tile, out=dest)
        assert got is dest
        assert np.ascontiguousarray(got.out).tobytes() == expected.out.tobytes()
        assert np.ascontiguousarray(got.lse).tobytes() == expected.lse.tobytes()
        zero_key_rows = slice(self.CU_Q[4], self.CU_Q[5])  # the 3-query group with no keys
        assert got.out[:, :, zero_key_rows].tobytes() == prior.out[:, :, zero_key_rows].tobytes()
        assert got.lse[:, :, zero_key_rows].tobytes() == prior.lse[:, :, zero_key_rows].tobytes()
        assert np.isnan(big_out[:, :, 1::2]).all() and np.isnan(big_lse[:, :, 1::2]).all()

    def test_plain_pair_refused(self):
        # The call returns the partial it folds into as is, so a plain pair,
        # which it would have to wrap, is refused and left untouched.
        q, k, v = self._inputs(np.float64)
        fresh = flash_varlen_forward(q, k, v, self.CU_Q, self.CU_K)
        pair = (np.zeros_like(fresh.out), np.full_like(fresh.lse, -np.inf))
        with pytest.raises(ValueError, match="out must be an AttnPartial of arrays to fold into, got tuple"):
            flash_varlen_forward(q, k, v, self.CU_Q, self.CU_K, out=pair)
        assert not pair[0].any() and np.isneginf(pair[1]).all()

    def test_nested_list_pair_rejected(self):
        # A list cannot be written in place, so it is refused by name.
        q, k, v = self._inputs(np.float64)
        p = flash_varlen_forward(q, k, v, self.CU_Q, self.CU_K)
        with pytest.raises(ValueError, match="out must be an AttnPartial of arrays"):
            flash_varlen_forward(q, k, v, self.CU_Q, self.CU_K, out=AttnPartial(p.out.tolist(), p.lse.tolist()))

    def test_wrong_shape_or_dtype_rejected(self):
        q, k, v = self._inputs(np.float32)
        b, h, s, d = q.shape
        bad = [
            AttnPartial(np.zeros((b, h, s - 1, d), np.float32), np.zeros((b, h, s - 1), np.float32)),
            AttnPartial(np.zeros((b, h, s, d), np.float32), np.zeros((b, h, s, 1), np.float32)),
            AttnPartial(np.zeros((b, h, s, d), np.float64), np.zeros((b, h, s), np.float32)),
            AttnPartial(np.zeros((b, h, s, d), np.float32), np.zeros((b, h, s), np.float64)),
        ]
        for dest in bad:
            # A partial unlike q is named as one; an lse unlike its rows names the arrays.
            with pytest.raises(ValueError, match=r"out (arrays )?must be"):
                flash_varlen_forward(q, k, v, self.CU_Q, self.CU_K, out=dest)

    def test_non_finite_rows_rejected(self):
        # Folding scales an empty row by 0, which would keep a NaN there.
        q, k, v = _qkv(73, (1, 1, 6, 4), (1, 1, 6, 4))
        rows = np.zeros((1, 1, 6, 4), np.float32)
        rows[0, 0, 3] = np.nan
        with pytest.raises(ValueError, match=r"out has a non-finite value nan at \(batch, head, row, col\) \(0, 0, 3, 0\)"):
            flash_varlen_forward(q, k, v, [0, 6], [0, 6], out=AttnPartial(rows, np.full((1, 1, 6), -np.inf, np.float32)))

    def test_infinite_rows_with_finite_lse_rejected(self):
        q, k, v = self._inputs(np.float32)
        dest = flash_varlen_forward(q, k, v, self.CU_Q, self.CU_K)
        dest.out[0, 1, 2] = np.inf
        with pytest.raises(ValueError, match=r"out has a non-finite value inf at \(batch, head, row, col\) \(0, 1, 2, 0\)"):
            flash_varlen_forward(q, k, v, self.CU_Q, self.CU_K, out=dest)

    @pytest.mark.parametrize("row", [9, 5], ids=["zero_key_group", "merging_unit"])
    def test_nan_lse_named_along_batch_head_row(self, row):
        # Row 9 is in the group with no keys, which no unit touches; row 5's
        # unit merges into rows that already hold a partial.
        q, k, v = self._inputs(np.float64)
        dest = flash_varlen_forward(q, k, v, self.CU_Q, self.CU_K)
        dest.lse[1, 0, row] = np.nan
        with pytest.raises(ValueError, match=rf"out has lse nan at \(1, 0, {row}\); an lse must be finite or -inf"):
            flash_varlen_forward(q, k, v, self.CU_Q, self.CU_K, out=dest)

    @pytest.mark.parametrize("name", ["q", "k", "v"])
    def test_out_sharing_an_input_refused(self, name):
        # The call writes out's rows while later key tiles still read q, k
        # and v, so an out or lse in their memory would give wrong rows and
        # overwrite the input; either is refused before anything is written.
        q, k, v = _qkv(1, (1, 1, 8, 4), (1, 1, 8, 4), np.float64)
        x = {"q": q, "k": k, "v": v}[name]
        before = x.copy()
        for dest in (AttnPartial(x, np.full((1, 1, 8), -np.inf)), AttnPartial(np.zeros_like(q), x[..., 0])):
            with pytest.raises(ValueError, match=f"out shares memory with {name}, which the call still reads"):
                flash_varlen_forward(q, k, v, [0, 8], [0, 8], TileConfig(8, 2), out=dest)
        assert x.tobytes() == before.tobytes()

    def test_out_and_lse_sharing_elements_refused(self):
        q, k, v = _qkv(1, (1, 1, 8, 4), (1, 1, 8, 4), np.float64)
        rows = np.zeros((1, 1, 8, 4))
        with pytest.raises(ValueError, match="out's out and lse arrays share memory"):
            flash_varlen_forward(q, k, v, [0, 8], [0, 8], TileConfig(8, 2), out=AttnPartial(rows, rows[..., 0]))

    def test_lse_beside_out_in_one_buffer_accepted(self):
        # Interleaved in one buffer but sharing no element, the two arrays
        # are written apart, so the call gives the fresh result.
        q, k, v = _qkv(1, (1, 1, 8, 4), (1, 1, 8, 4), np.float64)
        buf = np.zeros((1, 1, 8, 5))
        dest = AttnPartial(buf[..., :4], buf[..., 4])
        dest.lse[...] = -np.inf
        got = flash_varlen_forward(q, k, v, [0, 8], [0, 8], TileConfig(8, 2), out=dest)
        fresh = flash_varlen_forward(q, k, v, [0, 8], [0, 8], TileConfig(8, 2))
        assert got is dest
        assert np.ascontiguousarray(got.out).tobytes() == fresh.out.tobytes()
        assert np.ascontiguousarray(got.lse).tobytes() == fresh.lse.tobytes()

    def test_merge_partials_takes_no_out(self):
        # The kernel's fold is the only merge in place; merge_partials is pure,
        # so no caller's buffer can change its result's precision.
        p = flash_varlen_forward(*self._inputs(np.float32), self.CU_Q, self.CU_K)
        with pytest.raises(TypeError, match="out"):
            merge_partials(p, p, out=(np.empty_like(p.out), np.empty_like(p.lse, np.float16)))
