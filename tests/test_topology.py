"""Mask construction, the decomposed masked-3D forward, and the 2D wirings."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import syncattn.topology as topology
from syncattn.bench import measure_peak_bytes
from syncattn.core import (
    AttnPartial,
    TokenLayout,
    per_frame_cu_seqlens,
    seeded_random_tensor,
    segment_offsets,
)
from syncattn.kernel import TileConfig, flash_varlen_forward
from syncattn.reference import naive_attention
from syncattn.topology import (
    InjectionConfig,
    block_plan,
    build_mask,
    config_layer_forward,
    masked3d_forward,
    seeded_projection_set,
)


def _qkv(layout, seed, heads=2, head_dim=8, dtype=np.float32, batch=1):
    dims = (batch, heads, layout.total_len, head_dim)
    return (
        seeded_random_tensor(dims, seed, dtype),
        seeded_random_tensor(dims, seed + 1, dtype),
        seeded_random_tensor(dims, seed + 2, dtype),
    )


CROSS = InjectionConfig.CROSS_ATTN_2D
FROZEN = InjectionConfig.SELF_ATTN_2D_FROZEN_AUDIO
SELF = InjectionConfig.SELF_ATTN_2D
WIRINGS_2D = (CROSS, FROZEN, SELF)
SEGMENTS = ("video", "others", "audio")

# Per wiring, the rule of each (query segment, key segment) pair: "any"
# frame pair or the same "frame" only; a pair that is not listed is blocked.
_SELF_RULE = {(a, b): "frame" for a in ("video", "audio") for b in ("video", "audio")}
RULES = {
    InjectionConfig.FULL_3D: {(a, b): "any" for a in SEGMENTS for b in SEGMENTS},
    InjectionConfig.MASKED_3D: {
        **{(a, b): "any" for a in ("video", "others") for b in ("video", "others")},
        **{pair: "frame" for pair in (("video", "audio"), ("audio", "video"), ("audio", "audio"))},
    },
    CROSS: {("video", "audio"): "frame"},
    FROZEN: _SELF_RULE,
    SELF: _SELF_RULE,
}


def _expected_allow(layout, config=InjectionConfig.MASKED_3D):
    """Per-pair application of the wiring's rule table, kept independent of
    block_plan and build_mask."""
    total = layout.total_len
    video, others, audio = segment_offsets(layout)

    def kind_and_frame(i):
        if i in video:
            return "video", i // layout.video_per_frame
        if i in others:
            return "others", None
        return "audio", (i - audio.start) // layout.audio_per_frame

    allow = np.zeros((total, total), dtype=bool)
    for i in range(total):
        ki, fi = kind_and_frame(i)
        for j in range(total):
            kj, fj = kind_and_frame(j)
            rule = RULES[config].get((ki, kj))
            allow[i, j] = rule == "any" or (rule == "frame" and fi == fj)
    return allow


class TestBlockPlan:
    LAYOUTS = [
        TokenLayout(3, 2, 2, 1),
        TokenLayout(2, 4, 0, 3),
        TokenLayout(4, 0, 2, 2),
        TokenLayout(2, 3, 1, 0),
        TokenLayout(1, 3, 2, 2),  # F = 1
        TokenLayout(3, 0, 2, 1),  # N = 0
        TokenLayout(3, 2, 0, 1),  # L = 0
        TokenLayout(3, 2, 2, 0),  # others = 0
        TokenLayout(3, 0, 2, 0),  # audio only
    ]
    # Others tokens between video and audio, which no 2D wiring touches.
    LAYOUTS_2D = [TokenLayout(2, 3, 2, 4), TokenLayout(1, 2, 3, 5), TokenLayout(3, 1, 1, 2)]

    @staticmethod
    def _hits(layout, config):
        """How many plan groups hold each (query, key) pair."""
        hits = np.zeros((layout.total_len, layout.total_len), dtype=np.int64)
        for blk in block_plan(layout, config):
            for g in range(len(blk.cu_q) - 1):
                rows = range(blk.rows.start + blk.cu_q[g], blk.rows.start + blk.cu_q[g + 1])
                cols = range(blk.cols.start + blk.cu_k[g], blk.cols.start + blk.cu_k[g + 1])
                hits[np.ix_(rows, cols)] += 1
        return hits

    def _check_coverage(self, config):
        for layout in self.LAYOUTS + self.LAYOUTS_2D:
            expected = _expected_allow(layout, config).astype(np.int64)
            np.testing.assert_array_equal(self._hits(layout, config), expected, err_msg=str(layout))

    def test_masked3d_covers_each_allowed_pair_exactly_once(self):
        self._check_coverage(InjectionConfig.MASKED_3D)

    @pytest.mark.parametrize("config", [InjectionConfig.FULL_3D, *WIRINGS_2D], ids=lambda c: c.value)
    def test_covers_each_allowed_pair_exactly_once(self, config):
        self._check_coverage(config)

    def test_full3d_is_one_dense_block(self):
        for layout in self.LAYOUTS:
            (blk,) = block_plan(layout, InjectionConfig.FULL_3D)
            whole = slice(0, layout.total_len)
            assert (blk.rows, blk.cols) == (whole, whole)
            assert list(blk.cu_q) == list(blk.cu_k) == [0, layout.total_len]

    def test_masked3d_blocks_in_plan_order(self):
        layout = TokenLayout(3, 2, 2, 1)
        vo, video, audio = slice(0, 7), slice(0, 6), slice(7, 13)
        plan = block_plan(layout, InjectionConfig.MASKED_3D)
        assert [(b.rows, b.cols) for b in plan] == [(vo, vo), (video, audio), (audio, video), (audio, audio)]

    def test_cross_attn_2d_is_per_frame_video_to_audio(self):
        (blk,) = block_plan(TokenLayout(3, 2, 2, 1), CROSS)
        assert (blk.rows, blk.cols) == (slice(0, 6), slice(7, 13))
        assert list(blk.cu_q) == list(blk.cu_k) == [0, 2, 4, 6]

    @pytest.mark.parametrize("config", [FROZEN, SELF], ids=lambda c: c.value)
    def test_self_attn_2d_blocks_in_plan_order(self, config):
        video, audio = slice(0, 6), slice(7, 10)
        plan = block_plan(TokenLayout(3, 2, 1, 1), config)
        assert [(b.rows, b.cols) for b in plan] == [(video, video), (video, audio), (audio, video), (audio, audio)]
        cu_n, cu_l = [0, 2, 4, 6], [0, 1, 2, 3]
        assert [(list(b.cu_q), list(b.cu_k)) for b in plan] == [
            (cu_n, cu_n), (cu_n, cu_l), (cu_l, cu_n), (cu_l, cu_l)
        ]

    @pytest.mark.parametrize("config", [FROZEN, SELF], ids=lambda c: c.value)
    def test_self_attn_2d_of_frame_major_stream_is_one_block(self, config):
        # config_layer_forward packs [video_f, audio_f] per frame as the
        # video segment of TokenLayout(F, N + L): one group per frame.
        (blk,) = block_plan(TokenLayout(3, 2 + 1, 0, 0), config)
        assert (blk.rows, blk.cols) == (slice(0, 9), slice(0, 9))
        assert list(blk.cu_q) == list(blk.cu_k) == [0, 3, 6, 9]


class TestBuildMask:
    def test_full3d_all_true(self):
        layout = TokenLayout(frames=2, video_per_frame=3, audio_per_frame=2, others_len=4)
        allow = build_mask(layout, InjectionConfig.FULL_3D)
        assert allow.all()
        assert allow.shape == (layout.total_len, layout.total_len) and allow.dtype == np.bool_

    def test_masked3d_six_token_enumeration(self):
        # Tokens: v00 v01 v10 v11 a0 a1.
        layout = TokenLayout(frames=2, video_per_frame=2, audio_per_frame=1, others_len=0)
        allow = build_mask(layout, InjectionConfig.MASKED_3D)
        expected = np.array(
            [
                # v00   v01   v10   v11   a0     a1
                [True, True, True, True, True, False],   # v00
                [True, True, True, True, True, False],   # v01
                [True, True, True, True, False, True],   # v10
                [True, True, True, True, False, True],   # v11
                [True, True, False, False, True, False], # a0
                [False, False, True, True, False, True], # a1
            ]
        )
        np.testing.assert_array_equal(allow, expected)

    def test_single_frame_no_others_is_all_true(self):
        layout = TokenLayout(frames=1, video_per_frame=5, audio_per_frame=3, others_len=0)
        assert build_mask(layout, InjectionConfig.MASKED_3D).all()

    def test_matches_per_pair_rule(self):
        for layout in [
            TokenLayout(3, 2, 2, 1),
            TokenLayout(2, 4, 0, 3),
            TokenLayout(4, 0, 2, 2),
            TokenLayout(2, 3, 1, 0),
        ]:
            for config in InjectionConfig:
                got = build_mask(layout, config)
                np.testing.assert_array_equal(got, _expected_allow(layout, config), err_msg=f"{layout} {config}")

    def test_text_bitmap(self):
        layout = TokenLayout(frames=2, video_per_frame=1, audio_per_frame=1, others_len=0)
        expected = np.array([[1, 1, 1, 0], [1, 1, 0, 1], [1, 0, 1, 0], [0, 1, 0, 1]], dtype=bool)
        np.testing.assert_array_equal(build_mask(layout, InjectionConfig.MASKED_3D), expected)


class TestMasked3dForward:
    def test_no_audio_equals_dense_flash(self):
        layout = TokenLayout(frames=3, video_per_frame=4, audio_per_frame=0, others_len=5)
        q, k, v = _qkv(layout, 10)
        got = masked3d_forward(q, k, v, layout)
        ref = flash_varlen_forward(q, k, v, [0, layout.total_len], [0, layout.total_len]).out
        assert np.array_equal(got, ref)

    def test_single_frame_no_others_equals_unmasked(self):
        layout = TokenLayout(frames=1, video_per_frame=6, audio_per_frame=3, others_len=0)
        q, k, v = _qkv(layout, 20)
        got = masked3d_forward(q, k, v, layout)
        dense = flash_varlen_forward(q, k, v, [0, layout.total_len], [0, layout.total_len]).out
        assert np.max(np.abs(got - dense)) <= 1e-5
        assert np.max(np.abs(got - naive_attention(q, k, v).out)) <= 1e-5

    def test_matches_oracle_f32(self):
        layout = TokenLayout(frames=4, video_per_frame=16, audio_per_frame=4, others_len=32)
        q, k, v = _qkv(layout, 30)
        got = masked3d_forward(q, k, v, layout)
        ref = naive_attention(q, k, v, build_mask(layout, InjectionConfig.MASKED_3D))
        assert np.max(np.abs(got - ref.out)) <= 1e-5

    def test_matches_oracle_f64_odd_tiles(self):
        # The dense call runs the video and others rows as one block range,
        # so the first three cases put a query block across the
        # video/others boundary; the last three drop a segment each.
        cases = [
            (TokenLayout(frames=5, video_per_frame=7, audio_per_frame=3, others_len=11), TileConfig(16, 16)),
            (TokenLayout(frames=3, video_per_frame=5, audio_per_frame=2, others_len=7), TileConfig(4, 3)),
            (TokenLayout(frames=1, video_per_frame=3, audio_per_frame=0, others_len=5), TileConfig()),
            (TokenLayout(frames=2, video_per_frame=4, audio_per_frame=2, others_len=0), TileConfig(3, 5)),
            (TokenLayout(frames=4, video_per_frame=0, audio_per_frame=3, others_len=0), TileConfig()),
        ]
        for layout, tile in cases:
            q, k, v = _qkv(layout, 40, heads=1, head_dim=16, dtype=np.float64)
            got = masked3d_forward(q, k, v, layout, tile)
            ref = naive_attention(q, k, v, build_mask(layout, InjectionConfig.MASKED_3D))
            assert np.max(np.abs(got - ref.out)) <= 1e-12, (layout, tile)

    @pytest.mark.parametrize("dtype,tol", [(np.float32, 1e-5), (np.float64, 1e-12)])
    def test_matches_oracle_default_tiles(self, dtype, tol):
        # The dense video+others block spans several query blocks and key
        # tiles at the default tiles, so rows carry softmax state across tiles.
        layout = TokenLayout(frames=3, video_per_frame=200, audio_per_frame=4, others_len=150)
        dense = block_plan(layout, InjectionConfig.MASKED_3D)[0]
        tile = TileConfig()
        assert dense.cu_q[-1] > tile.q_block and dense.cu_k[-1] > tile.k_block
        q, k, v = _qkv(layout, 45, heads=2, head_dim=16, dtype=dtype)
        got = masked3d_forward(q, k, v, layout)
        ref = naive_attention(q, k, v, build_mask(layout, InjectionConfig.MASKED_3D))
        assert np.max(np.abs(got - ref.out)) <= tol

    def test_no_video_at_all(self):
        layout = TokenLayout(frames=2, video_per_frame=0, audio_per_frame=3, others_len=4)
        q, k, v = _qkv(layout, 50, dtype=np.float64)
        got = masked3d_forward(q, k, v, layout)
        ref = naive_attention(q, k, v, build_mask(layout, InjectionConfig.MASKED_3D))
        assert np.max(np.abs(got - ref.out)) <= 1e-12

    @settings(max_examples=50, deadline=None)
    @given(
        frames=st.integers(1, 4),
        video=st.integers(0, 4),
        audio=st.integers(0, 3),
        others=st.integers(0, 5),
        heads=st.integers(1, 2),
        head_dim=st.integers(1, 6),
        q_block=st.integers(1, 7),
        k_block=st.integers(1, 7),
        seed=st.integers(0, 2**16),
    )
    def test_matches_oracle_on_random_layouts(self, frames, video, audio, others, heads, head_dim,
                                              q_block, k_block, seed):
        layout = TokenLayout(frames, video, audio, others)
        q, k, v = _qkv(layout, seed, heads=heads, head_dim=head_dim, dtype=np.float64)
        got = masked3d_forward(q, k, v, layout, TileConfig(q_block, k_block))
        ref = naive_attention(q, k, v, build_mask(layout, InjectionConfig.MASKED_3D)).out
        assert got.shape == ref.shape
        assert np.max(np.abs(got - ref), initial=0.0) <= 1e-12

    def test_packed_length_mismatch_rejected(self):
        layout = TokenLayout(frames=2, video_per_frame=2, audio_per_frame=1, others_len=0)
        q, k, v = _qkv(layout, 60)
        with pytest.raises(ValueError, match="packed length"):
            masked3d_forward(q[:, :, :-1], k[:, :, :-1], v[:, :, :-1], layout)

    def test_key_partition_matches_mask_rows(self):
        # For each query class, the key sets of the decomposition's
        # sub-attentions must be disjoint and union to exactly the allowed
        # columns of the mask.  The sets are rebuilt here from the same
        # cu_seqlens plumbing the forward uses.
        layout = TokenLayout(frames=3, video_per_frame=3, audio_per_frame=2, others_len=4)
        video, others, audio = segment_offsets(layout)
        allow = build_mask(layout, InjectionConfig.MASKED_3D)

        cu_n = per_frame_cu_seqlens(layout.video_per_frame, layout.frames)
        cu_l = per_frame_cu_seqlens(layout.audio_per_frame, layout.frames)
        vo_keys = set(range(video.start, others.stop))

        for i in range(layout.total_len):
            if i in video:
                f = i // layout.video_per_frame
                sets = [vo_keys, {audio.start + j for j in range(cu_l[f], cu_l[f + 1])}]
            elif i in others:
                sets = [vo_keys]
            else:
                f = (i - audio.start) // layout.audio_per_frame
                sets = [
                    {video.start + j for j in range(cu_n[f], cu_n[f + 1])},
                    {audio.start + j for j in range(cu_l[f], cu_l[f + 1])},
                ]
            union = set()
            for s in sets:
                assert not (union & s), f"overlapping key sets for query {i}"
                union |= s
            assert union == set(np.flatnonzero(allow[i])), f"row {i}"

    def test_frame_locality_witness(self):
        layout = TokenLayout(frames=3, video_per_frame=4, audio_per_frame=2, others_len=3)
        video, others, audio = segment_offsets(layout)
        q, k, v = _qkv(layout, 70, dtype=np.float64)
        base = masked3d_forward(q, k, v, layout)

        g = 1  # perturb all audio tokens of frame g (as queries and keys/values)
        sl = slice(
            audio.start + g * layout.audio_per_frame,
            audio.start + (g + 1) * layout.audio_per_frame,
        )
        q2, k2, v2 = q.copy(), k.copy(), v.copy()
        for t in (q2, k2, v2):
            t[:, :, sl] += 0.5
        perturbed = masked3d_forward(q2, k2, v2, layout)

        n = layout.video_per_frame
        for f in range(layout.frames):
            frame_rows = slice(f * n, (f + 1) * n)
            same = np.array_equal(base[:, :, frame_rows], perturbed[:, :, frame_rows])
            assert same == (f != g), f"video frame {f}"
        # others outputs never see audio
        assert np.array_equal(
            base[:, :, others.start : others.stop],
            perturbed[:, :, others.start : others.stop],
        )

        # under the unrestricted topology the perturbation propagates
        full_base = naive_attention(q, k, v).out
        full_pert = naive_attention(q2, k2, v2).out
        other_frames = [f for f in range(layout.frames) if f != g]
        assert any(
            not np.array_equal(
                full_base[:, :, f * n : (f + 1) * n], full_pert[:, :, f * n : (f + 1) * n]
            )
            for f in other_frames
        )


class TestNonFiniteInput:
    """One NaN or inf key is rejected by every entry point, naming where it is."""

    LAYOUT = TokenLayout(frames=4, video_per_frame=16, audio_per_frame=4, others_len=32)
    ENTRIES = {
        "masked3d_forward": lambda q, k, v: masked3d_forward(q, k, v, TestNonFiniteInput.LAYOUT),
        "flash_varlen_forward": lambda q, k, v: flash_varlen_forward(
            q, k, v, [0, q.shape[2]], [0, k.shape[2]]
        ),
        "naive_attention": naive_attention,
    }

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("entry", sorted(ENTRIES))
    def test_non_finite_key_rejected(self, entry, bad):
        q, k, v = _qkv(self.LAYOUT, 70, heads=2, head_dim=16)
        k[0, 1, 70, 5] = bad  # an others key, seen by every video and others query
        with pytest.raises(ValueError, match=r"k has a non-finite value .* \(0, 1, 70, 5\)"):
            self.ENTRIES[entry](q, k, v)


class TestConfigLayerForward:
    def _streams(self, layout, model_dim, seed, dtype=np.float32, b=1):
        xv = seeded_random_tensor((b, 1, layout.frames * layout.video_per_frame, model_dim), seed, dtype)[:, 0]
        ca = seeded_random_tensor((b, 1, layout.frames * layout.audio_per_frame, model_dim), seed + 1, dtype)[:, 0]
        return xv, ca

    @staticmethod
    def _count_query_rows(monkeypatch):
        """The query rows of every kernel call the layer makes, in call order."""
        query_rows = []

        def counting(q, *args, **kwargs):
            query_rows.append(q.shape[2])
            return flash_varlen_forward(q, *args, **kwargs)

        monkeypatch.setattr(topology, "flash_varlen_forward", counting)
        return query_rows

    def test_frozen_audio_vs_updated_audio(self, monkeypatch):
        # Parts of 4 and 5 frames; the frozen wiring still computes its audio rows.
        layout = TokenLayout(frames=9, video_per_frame=60, audio_per_frame=4, others_len=0)
        weights = seeded_projection_set(16, 2, 7)
        xv, ca = self._streams(layout, 16, 100)
        query_rows = self._count_query_rows(monkeypatch)
        v_frozen, a_frozen = config_layer_forward(
            xv, ca, layout, InjectionConfig.SELF_ATTN_2D_FROZEN_AUDIO, weights
        )
        frozen_rows = query_rows.copy()
        query_rows.clear()
        v_updated, a_updated = config_layer_forward(
            xv, ca, layout, InjectionConfig.SELF_ATTN_2D, weights
        )
        assert len(frozen_rows) > 1
        assert sum(frozen_rows) == sum(query_rows) == layout.video_len + layout.audio_len
        assert v_frozen.tobytes() == v_updated.tobytes()
        assert a_frozen.tobytes() == ca.tobytes()
        assert np.any(a_updated != ca)

    def test_cross_attention_single_audio_token(self):
        # With one audio token per frame the softmax weight is 1, so every
        # video token of frame f receives exactly the projected audio value.
        layout = TokenLayout(frames=3, video_per_frame=4, audio_per_frame=1, others_len=0)
        weights = seeded_projection_set(8, 2, 9, np.float64)
        xv, ca = self._streams(layout, 8, 200, np.float64)
        v_out, a_out = config_layer_forward(xv, ca, layout, InjectionConfig.CROSS_ATTN_2D, weights)
        assert a_out.tobytes() == ca.tobytes()
        expected_rows = (ca @ weights.wv) @ weights.wo  # one row per frame
        for f in range(layout.frames):
            for t in range(layout.video_per_frame):
                np.testing.assert_allclose(
                    v_out[0, f * layout.video_per_frame + t], expected_rows[0, f], atol=1e-12
                )

    def test_self_attn_2d_equals_per_frame_restricted_oracle(self):
        # Per-frame 2D self-attention is masked-3D attention with the
        # extra restriction that video only sees its own frame.
        layout = TokenLayout(frames=3, video_per_frame=3, audio_per_frame=2, others_len=0)
        f, n, l = layout.frames, layout.video_per_frame, layout.audio_per_frame
        model_dim, heads = 16, 2
        weights = seeded_projection_set(model_dim, heads, 11)
        xv, ca = self._streams(layout, model_dim, 300)
        v_out, a_out = config_layer_forward(xv, ca, layout, InjectionConfig.SELF_ATTN_2D, weights)

        # same tensors in packed segment order [video..., audio...]
        packed = np.concatenate([xv, ca], axis=1)

        def project(x, w):
            b, s, c = x.shape
            return np.ascontiguousarray(
                (x @ w).reshape(b, s, heads, c // heads).transpose(0, 2, 1, 3)
            )

        allow = build_mask(layout, InjectionConfig.MASKED_3D).copy()
        video_frame = np.arange(f * n) // n
        restrict = video_frame[:, None] == video_frame[None, :]
        allow[: f * n, : f * n] &= restrict

        part = naive_attention(
            project(packed, weights.wq),
            project(packed, weights.wk),
            project(packed, weights.wv),
            allow,
        )
        b, h, s, d = part.out.shape
        joined = np.ascontiguousarray(part.out.transpose(0, 2, 1, 3)).reshape(b, s, h * d)
        expected = joined @ weights.wo

        assert np.max(np.abs(v_out - expected[:, : f * n])) <= 1e-5
        assert np.max(np.abs(a_out - expected[:, f * n :])) <= 1e-5

    @settings(max_examples=50, deadline=None)
    @given(
        frames=st.integers(1, 3),
        video=st.integers(0, 4),
        audio=st.integers(0, 3),
        others=st.integers(0, 3),
        batch=st.integers(1, 2),
        heads=st.integers(1, 2),
        head_dim=st.integers(1, 4),
        seed=st.integers(0, 2**16),
    )
    def test_matches_oracle_on_random_layouts(self, frames, video, audio, others, batch, heads, head_dim, seed):
        layout = TokenLayout(frames, video, audio, others)
        weights = seeded_projection_set(heads * head_dim, heads, seed, np.float64)
        xv, ca = self._streams(layout, heads * head_dim, seed + 1, np.float64, batch)
        outs = {}
        for config in InjectionConfig:
            outs[config] = config_layer_forward(xv, ca, layout, config, weights)
            self._check_oracle(outs[config], xv, ca, layout, config, weights, 1e-12)
        assert outs[FROZEN][0].tobytes() == outs[SELF][0].tobytes()

    @pytest.mark.parametrize("dtype,tol", [(np.float32, 1e-5), (np.float64, 1e-12)])
    @pytest.mark.parametrize("config", InjectionConfig, ids=lambda c: c.value)
    def test_matches_oracle_above_one_tile(self, config, dtype, tol):
        # 656 packed rows: more than one default query block and key tile.
        layout = TokenLayout(frames=4, video_per_frame=160, audio_per_frame=4)
        assert layout.total_len > max(TileConfig().q_block, TileConfig().k_block)
        weights = seeded_projection_set(32, 2, 13, dtype)
        xv, ca = self._streams(layout, 32, 800, dtype, b=2)
        out = config_layer_forward(xv, ca, layout, config, weights)
        self._check_oracle(out, xv, ca, layout, config, weights, tol)

    @pytest.mark.parametrize("dtype,tol", [(np.float32, 1e-5), (np.float64, 1e-12)])
    @pytest.mark.parametrize(
        "layout,part_frames",
        [(TokenLayout(9, 60, 4), [4, 5]), (TokenLayout(3, 200, 1), [1, 1, 1])],
        ids=["remainder", "one_row_audio"],
    )
    @pytest.mark.parametrize("config", WIRINGS_2D, ids=lambda c: c.value)
    def test_matches_oracle_over_parts(self, config, layout, part_frames, dtype, tol, monkeypatch):
        # A part holds q_block // (N + L) whole frames and the last takes the
        # rest; one kernel call per part, as each part's plan is one block.
        n, l = layout.video_per_frame, layout.audio_per_frame
        assert part_frames[0] == max(1, TileConfig().q_block // (n + l))
        weights = seeded_projection_set(16, 2, 17, dtype)
        xv, ca = self._streams(layout, 16, 1100, dtype, b=2)
        query_rows = self._count_query_rows(monkeypatch)
        out = config_layer_forward(xv, ca, layout, config, weights)
        assert query_rows == [fp * (n if config is CROSS else n + l) for fp in part_frames]
        self._check_oracle(out, xv, ca, layout, config, weights, tol)

    @pytest.mark.parametrize("dtype,tol", [(np.float32, 1e-5), (np.float64, 1e-12)])
    def test_masked3d_without_video_runs_in_parts(self, dtype, tol, monkeypatch):
        # Without video the masked 3D plan is per-frame audio -> audio alone,
        # one group per frame, so the layer runs it in parts of q_block // L
        # frames, the last taking the rest: 4 and 5 frames.
        layout = TokenLayout(9, 0, 60)
        part_rows, run_plan = [], topology._run_plan
        monkeypatch.setattr(topology, "_run_plan", lambda q, *args: part_rows.append(q.shape[2]) or run_plan(q, *args))
        weights = seeded_projection_set(16, 2, 21, dtype)
        xv, ca = self._streams(layout, 16, 1400, dtype, b=2)
        out = config_layer_forward(xv, ca, layout, InjectionConfig.MASKED_3D, weights)
        assert part_rows == [4 * 60, 5 * 60]
        self._check_oracle(out, xv, ca, layout, InjectionConfig.MASKED_3D, weights, tol)

    @pytest.mark.parametrize("layout,parts_2d", [
        (TokenLayout(16, 256, 8, 256), 16),
        (TokenLayout(256, 4, 8, 16), 12),
        (TokenLayout(3, 5, 2), 1),
        (TokenLayout(9, 60, 4), 2),
        (TokenLayout(2, 256, 8), 2),
    ], ids=["ref_layout", "long_clip", "wirings", "wirings_parts", "units"])
    def test_part_counts_at_benchmark_and_golden_layouts(self, layout, parts_2d, monkeypatch):
        # The 2D wirings run in parts of max(1, q_block // (N + L)) frames;
        # the 3D wirings, whose video rows see every frame, run as one part.
        plans = []
        monkeypatch.setattr(topology, "_run_plan", lambda q, k, v, plan, tile: plans.append(plan) or np.zeros_like(q))
        weights = seeded_projection_set(8, 1, 19)
        xv, ca = self._streams(layout, 8, 1300)
        for config in InjectionConfig:
            plans.clear()
            config_layer_forward(xv, ca, layout, config, weights)
            assert len(plans) == (parts_2d if config in WIRINGS_2D else 1), config

    @staticmethod
    def _check_oracle(out, xv, ca, layout, config, weights, tol):
        """Float64 projections of [video | audio], then naive attention under
        the wiring's mask of the layout without others tokens."""
        stream = np.concatenate([xv, ca], axis=1).astype(np.float64)
        b, s, c = stream.shape
        h = weights.heads
        wq, wk, wv, wo = (np.asarray(w, np.float64) for w in (weights.wq, weights.wk, weights.wv, weights.wo))
        q, k, v = (np.ascontiguousarray((stream @ w).reshape(b, s, h, c // h).transpose(0, 2, 1, 3))
                   for w in (wq, wk, wv))
        allow = build_mask(TokenLayout(layout.frames, layout.video_per_frame, layout.audio_per_frame), config)
        expected = naive_attention(q, k, v, allow).out.transpose(0, 2, 1, 3).reshape(b, s, c) @ wo
        v_out, a_out = out
        assert (v_out.shape, a_out.shape, v_out.dtype) == (xv.shape, ca.shape, xv.dtype)
        assert np.max(np.abs(v_out - expected[:, : layout.video_len]), initial=0.0) <= tol
        if config in (CROSS, FROZEN):
            assert a_out.tobytes() == ca.tobytes()
        else:
            assert np.max(np.abs(a_out - expected[:, layout.video_len :]), initial=0.0) <= tol

    @pytest.mark.parametrize("config", InjectionConfig, ids=lambda c: c.value)
    def test_others_tokens_change_nothing(self, config):
        weights = seeded_projection_set(8, 2, 3, np.float64)
        xv, ca = self._streams(TokenLayout(3, 4, 2), 8, 600, np.float64, b=2)
        plain = config_layer_forward(xv, ca, TokenLayout(3, 4, 2, 0), config, weights)
        with_others = config_layer_forward(xv, ca, TokenLayout(3, 4, 2, 5), config, weights)
        assert [x.tobytes() for x in plain] == [x.tobytes() for x in with_others]

    @pytest.mark.parametrize("config", InjectionConfig, ids=lambda c: c.value)
    @pytest.mark.parametrize("n,l", [(0, 2), (4, 0)])
    def test_empty_segment_keeps_output_shapes(self, config, n, l):
        layout = TokenLayout(3, n, l)
        weights = seeded_projection_set(8, 2, 4, np.float64)
        xv, ca = self._streams(layout, 8, 700, np.float64, b=2)
        v_out, a_out = config_layer_forward(xv, ca, layout, config, weights)
        assert (v_out.shape, a_out.shape) == (xv.shape, ca.shape) == ((2, 3 * n, 8), (2, 3 * l, 8))
        if config is CROSS and l == 0:  # video queries see no keys
            assert v_out.size and not v_out.any()
        else:
            assert np.all(np.isfinite(v_out)) and np.all(np.isfinite(a_out))

    @pytest.mark.parametrize("frames", [1, 3])
    @pytest.mark.parametrize("config", InjectionConfig, ids=lambda c: c.value)
    def test_outputs_hold_only_their_own_rows(self, config, frames):
        # A returned view of a larger output would keep rows it does not
        # return alive, such as the frozen wiring's dropped audio.
        layout = TokenLayout(frames, 4, 2)
        weights = seeded_projection_set(8, 2, 5)
        xv, ca = self._streams(layout, 8, 900)
        for x in config_layer_forward(xv, ca, layout, config, weights):
            owner = x if x.base is None else x.base
            assert owner.nbytes == x.nbytes

    NON_FINITE_STREAMS = [
        (CROSS, TokenLayout(3, 4, 0), "x_video", (0, 5, 3)),  # no keys: the NaN would vanish
        (SELF, TokenLayout(3, 4, 2), "x_video", (0, 5, 3)),  # folded: not row 5 of q
        (InjectionConfig.MASKED_3D, TokenLayout(3, 4, 2), "c_audio", (1, 2, 0)),
    ]

    @pytest.mark.parametrize("config,layout,stream,where", NON_FINITE_STREAMS,
                             ids=["cross_no_audio", "self_folded", "masked_audio"])
    def test_non_finite_stream_named(self, config, layout, stream, where):
        weights = seeded_projection_set(8, 2, 6)
        streams = dict(zip(("x_video", "c_audio"), self._streams(layout, 8, 1000, b=2)))
        streams[stream][where] = np.nan
        with pytest.raises(ValueError, match=rf"{stream} has a non-finite value nan at \(batch, row, channel\) "
                                             rf"\({where[0]}, {where[1]}, {where[2]}\)"):
            config_layer_forward(streams["x_video"], streams["c_audio"], layout, config, weights)

    @pytest.mark.parametrize("video,audio", [(np.float32, np.float32), (np.float64, np.float32)],
                             ids=["f64_weights", "f32_audio"])
    def test_mixed_precision_rejected(self, video, audio):
        # The set holds one precision (checked when built), which both streams must share.
        layout = TokenLayout(3, 4, 2)
        w = seeded_projection_set(8, 2, 8, np.float64)
        xv, ca = self._streams(layout, 8, 1200, np.float64)
        with pytest.raises(ValueError, match=rf"x_video {np.dtype(video).name} and c_audio {np.dtype(audio).name} "
                                             r"must be the projections' float64"):
            config_layer_forward(xv.astype(video), ca.astype(audio), layout, CROSS, w)

    @pytest.mark.parametrize("odd", ["wq", "wk", "wv", "wo"])
    def test_mixed_weight_precision_rejected_when_built(self, odd):
        # Refused as the set is built, whichever matrix differs from the others.
        w = seeded_projection_set(8, 2, 8, np.float64)
        mats = {n: getattr(w, n).astype(np.float32 if n == odd else np.float64) for n in ("wq", "wk", "wv", "wo")}
        # The first matrix unlike wq is named: wk when wq is the odd one.
        named, want, got = ("wk", "float32", "float64") if odd == "wq" else (odd, "float64", "float32")
        with pytest.raises(ValueError, match=rf"{named} must be \(8, 8\) in wq's precision {want}, got \(8, 8\) {got}"):
            topology.ProjectionSet(**mats, heads=2)

    @pytest.mark.parametrize("dtype", [np.float16, np.int64, np.bool_], ids=["f16", "int", "bool"])
    def test_unsupported_weight_precision_rejected_when_built(self, dtype):
        # Refused as the set is built, not at its first layer call.
        w = seeded_projection_set(8, 2, 8, np.float64)
        with pytest.raises(ValueError, match=rf"wk must be float32 or float64, got {np.dtype(dtype).name}"):
            topology.ProjectionSet(w.wq, w.wk.astype(dtype), w.wv, w.wo, w.heads)

    def test_unsupported_stream_precision_rejected(self):
        layout = TokenLayout(3, 4, 2)
        xv, ca = self._streams(layout, 8, 1200, np.float64)
        with pytest.raises(ValueError, match="c_audio must be float32 or float64, got float16"):
            config_layer_forward(xv, ca.astype(np.float16), layout, CROSS, seeded_projection_set(8, 2, 8, np.float64))

    def test_heads_must_be_a_count(self):
        w = seeded_projection_set(8, 2, 8)
        mats = (w.wq, w.wk, w.wv, w.wo)
        with pytest.raises(ValueError, match="heads must be an integer"):
            topology.ProjectionSet(*mats, 2.0)
        with pytest.raises(ValueError, match="heads must be >= 1"):
            topology.ProjectionSet(*mats, 0)
        with pytest.raises(ValueError, match="must divide"):
            topology.ProjectionSet(*mats, 3)

    def test_list_built_set_matches_array_built(self):
        layout = TokenLayout(frames=2, video_per_frame=3, audio_per_frame=2)
        w = seeded_projection_set(8, 2, 8, np.float64)
        listed = topology.ProjectionSet(*(getattr(w, n).tolist() for n in ("wq", "wk", "wv", "wo")), w.heads)
        xv, ca = self._streams(layout, 8, 700, np.float64)
        for got, want in zip(config_layer_forward(xv, ca, layout, InjectionConfig.MASKED_3D, listed),
                             config_layer_forward(xv, ca, layout, InjectionConfig.MASKED_3D, w)):
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("name,where,bad", [("wo", (0, 0), np.inf), ("wq", (3, 5), np.nan)])
    def test_non_finite_projection_named(self, name, where, bad):
        # Caught where the weight enters, not as a projected q position or
        # as non-finite output values.
        w = seeded_projection_set(8, 2, 8, np.float64)
        mats = {n: getattr(w, n).copy() for n in ("wq", "wk", "wv", "wo")}
        mats[name][where] = bad
        with pytest.raises(ValueError, match=rf"{name} has a non-finite value {bad} at \(row, col\) "
                                             rf"\({where[0]}, {where[1]}\)"):
            topology.ProjectionSet(**mats, heads=2)

    # Per precision: (stream, wq = wk, wv, wo) scales of constant streams and
    # identity weights. "scores": q = k fit, their scores do not; "pv": v
    # fits, its sum over two keys does not; "projection": x @ w does not
    # fit; "output": v summed over the layout's eight keys fits, attn @ wo
    # does not.
    FLOAT_RANGE = {
        np.float32: {"scores": (1e10, 1e9, 1, 1), "pv": (1, 1e-3, 3e38, 1),
                     "projection": (3e19, 3e19, 3e19, 3e19), "output": (1e19, 1e-30, 1e18, 1e19)},
        np.float64: {"scores": (1e100, 1e55, 1, 1), "pv": (1, 1e-3, 1e308, 1),
                     "projection": (1e160, 1e160, 1e160, 1e160), "output": (1e150, 1e-300, 1e150, 1e150)},
    }
    FLOAT_RANGE_ERRORS = {
        "scores": "the attention of these finite inputs left the float range of {}",
        "pv": "the attention of these finite inputs left the float range of {}",
        "projection": "the q, k and v projections left the float range of {}",
        "output": "the output projection left the float range of {}",
    }

    @pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["f32", "f64"])
    @pytest.mark.parametrize("case", ["scores", "pv", "projection", "output"])
    @pytest.mark.parametrize("config", list(InjectionConfig), ids=lambda c: c.name)
    def test_out_of_float_range_raises_one_named_error(self, config, case, dtype):
        # Finite streams and weights whose products leave the float range raise
        # ValueError and leak no RuntimeWarning (tier-1 turns one into an error).
        layout = TokenLayout(frames=2, video_per_frame=2, audio_per_frame=2)
        x, w_qk, w_v, w_o = (dtype(a) for a in self.FLOAT_RANGE[dtype][case])
        eye = np.eye(8, dtype=dtype)
        weights = topology.ProjectionSet(eye * w_qk, eye * w_qk, eye * w_v, eye * w_o, heads=2)
        xv, ca = (np.full((1, 2 * t, 8), x, dtype) for t in (layout.video_per_frame, layout.audio_per_frame))
        with pytest.raises(ValueError, match=self.FLOAT_RANGE_ERRORS[case].format(np.dtype(dtype))):
            config_layer_forward(xv, ca, layout, config, weights)

    def test_shape_validation(self):
        layout = TokenLayout(frames=2, video_per_frame=2, audio_per_frame=1, others_len=0)
        weights = seeded_projection_set(8, 2, 1)
        xv, ca = self._streams(layout, 8, 500)
        with pytest.raises(ValueError):
            config_layer_forward(xv[:, :-1], ca, layout, InjectionConfig.SELF_ATTN_2D, weights)


class TestKernelChecksRedundant:
    """Both callers of ``_run_plan`` hand the kernel only finite q, k and v and
    a fresh output: with the kernel's per-call checks made pass-throughs, every
    non-finite-input and float-range case of ``masked3d_forward`` (with
    ``TestFloatRange`` in test_kernel.py) and of ``config_layer_forward``
    still raises its usual error."""

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_masked3d_forward_non_finite_key(self, unchecked_kernel, bad):
        TestNonFiniteInput().test_non_finite_key_rejected("masked3d_forward", bad)

    @pytest.mark.parametrize("config,layout,stream,where", TestConfigLayerForward.NON_FINITE_STREAMS,
                             ids=["cross_no_audio", "self_folded", "masked_audio"])
    def test_layer_non_finite_stream(self, unchecked_kernel, config, layout, stream, where):
        TestConfigLayerForward().test_non_finite_stream_named(config, layout, stream, where)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["f32", "f64"])
    @pytest.mark.parametrize("case", ["scores", "pv", "projection", "output"])
    @pytest.mark.parametrize("config", list(InjectionConfig), ids=lambda c: c.name)
    def test_layer_out_of_float_range(self, unchecked_kernel, config, case, dtype):
        TestConfigLayerForward().test_out_of_float_range_raises_one_named_error(config, case, dtype)


class TestPeakMemory:
    """Transient-byte laws, measured by tracemalloc on float32 layouts whose
    outputs are large next to the kernel's tiles.

    KERNEL is the kernel's working set: one score tile and one PV product,
    each at most q_block * k_block numbers.  ROW_STATE is 64 bytes (eight
    float64 numbers) per (batch, head, query row), for lse weights and
    row statistics.
    """

    ITEM = 4
    KERNEL = 2 * TileConfig().q_block * TileConfig().k_block * ITEM
    ROW_STATE = 64

    @pytest.mark.parametrize("layout,h", [
        (TokenLayout(frames=16, video_per_frame=256, audio_per_frame=8, others_len=256), 2),
        (TokenLayout(frames=8, video_per_frame=1024, audio_per_frame=8), 1),
    ], ids=["reference", "large_frames"])
    def test_masked3d_holds_output_one_partial_and_one_block(self, layout, h):
        b, d, s = 1, 64, layout.total_len
        q, k, v = _qkv(layout, 90, heads=h, head_dim=d)
        out, peak = measure_peak_bytes(lambda: masked3d_forward(q, k, v, layout))
        # The largest merging unit is a stack of video -> audio frames,
        # capped so that its PV product fits one default tile, however
        # many frames the block has.
        n = layout.video_per_frame
        unit_rows = TileConfig().q_block * TileConfig().k_block // (n * d) * n
        law = (
            b * h * s * (d + 1) * self.ITEM  # out and lse
            + unit_rows * (d + 1) * self.ITEM  # one unit's scratch partial, for one (batch, head)
            + self.KERNEL
            + self.ROW_STATE * b * h * s
        )
        assert out.nbytes == b * h * s * d * self.ITEM
        assert peak <= law, (peak, law)

    def test_merging_call_holds_one_scratch_partial(self):
        # The video -> audio block of the layout above, folded into rows that
        # already hold the dense block's partial: the kernel weights its
        # scratch in place and writes the first PV product into it, so
        # nothing else of (rows, D) is alive beside it.
        layout = TokenLayout(frames=16, video_per_frame=256, audio_per_frame=8, others_len=256)
        d = 64
        q, k, v = _qkv(layout, 90, heads=2, head_dim=d)
        dense, video_audio = block_plan(layout, InjectionConfig.MASKED_3D)[:2]
        assert dense.rows.start == video_audio.rows.start == 0 and video_audio.rows.stop <= dense.rows.stop
        prior = flash_varlen_forward(q[:, :, dense.rows], k[:, :, dense.cols], v[:, :, dense.cols],
                                     dense.cu_q, dense.cu_k)
        rows, cols = np.s_[:, :, video_audio.rows], np.s_[:, :, video_audio.cols]
        dest = AttnPartial(prior.out[rows], prior.lse[rows])
        _, peak = measure_peak_bytes(
            lambda: flash_varlen_forward(q[rows], k[cols], v[cols], video_audio.cu_q, video_audio.cu_k, out=dest)
        )
        n, l = layout.video_per_frame, layout.audio_per_frame
        unit_rows = TileConfig().q_block * TileConfig().k_block // (n * d) * n
        law = (
            unit_rows * (d + 1) * self.ITEM  # the unit's scratch partial
            + unit_rows * l * self.ITEM  # its score tile: each row scores its frame's L keys
            + self.ROW_STATE * unit_rows
        )
        assert peak <= law, (peak, law)

    def test_writing_block_holds_no_partial(self):
        # Without audio the plan is one dense block, which the kernel folds
        # straight into the empty output rows.
        layout = TokenLayout(frames=16, video_per_frame=256, audio_per_frame=0, others_len=256)
        b, h, d, s = 1, 2, 64, layout.total_len
        q, k, v = _qkv(layout, 94, heads=h, head_dim=d)
        _, peak = measure_peak_bytes(lambda: masked3d_forward(q, k, v, layout))
        law = b * h * s * (d + 1) * self.ITEM + self.KERNEL + self.ROW_STATE * b * h * s
        assert peak <= law, (peak, law)

    def test_masked3d_layer_holds_four_projections_and_one_partial(self):
        layout = TokenLayout(frames=16, video_per_frame=256, audio_per_frame=8)
        s, n, c, h = layout.total_len, layout.video_per_frame, 128, 2
        d = c // h
        weights = seeded_projection_set(c, h, 95)
        xv = seeded_random_tensor((1, layout.video_len, c), 96, np.float32)
        ca = seeded_random_tensor((1, layout.audio_len, c), 97, np.float32)
        _, peak = measure_peak_bytes(
            lambda: config_layer_forward(xv, ca, layout, InjectionConfig.MASKED_3D, weights)
        )
        unit_rows = TileConfig().q_block * TileConfig().k_block // (n * d) * n  # as in masked3d_forward
        law = (
            4 * s * c * self.ITEM  # q, k, v and the output
            + h * s * self.ITEM  # lse
            + unit_rows * (d + 1) * self.ITEM  # one unit's scratch partial
            + self.KERNEL
            + self.ROW_STATE * h * s
        )
        assert peak <= law, (peak, law)

    def _check_layer_2d_law(self, config, output_rows_per_frame):
        """Peak of a 2D wiring's layer: its outputs, and one part's four packed
        projections (its stream, q, k and v, or q, k, v and the attention output),
        kernel tiles and row state."""
        layout = TokenLayout(frames=8, video_per_frame=512, audio_per_frame=16, others_len=0)
        f, n, l, c, h = layout.frames, layout.video_per_frame, layout.audio_per_frame, 256, 4
        weights = seeded_projection_set(c, h, 91)
        xv = seeded_random_tensor((1, f * n, c), 92, np.float32)
        ca = seeded_random_tensor((1, f * l, c), 93, np.float32)
        _, peak = measure_peak_bytes(lambda: config_layer_forward(xv, ca, layout, config, weights))
        part_rows = max(1, TileConfig().q_block // (n + l)) * (n + l)  # whole frames, about one query tile
        law = (
            f * output_rows_per_frame * c * self.ITEM
            + 4 * part_rows * c * self.ITEM
            + self.KERNEL
            + self.ROW_STATE * h * part_rows
        )
        assert peak <= law, (peak, law)

    def test_self_attn_2d_holds_four_projections(self):
        self._check_layer_2d_law(InjectionConfig.SELF_ATTN_2D, 512 + 16)  # video and audio out

    def test_cross_attn_2d_holds_four_part_projections(self):
        self._check_layer_2d_law(InjectionConfig.CROSS_ATTN_2D, 512)  # video out; the audio is the input
