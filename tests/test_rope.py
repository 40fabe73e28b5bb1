"""Rotary coordinate assignment and rotation laws."""

import numpy as np
import pytest

from syncattn import rope
from syncattn.bench import measure_peak_bytes
from syncattn.core import TokenLayout, seeded_random_tensor, segment_offsets
from syncattn.rope import (
    DIAGONAL_TOL,
    apply_rope,
    assign_coords,
    default_axis_split,
    diagonal_1d_equivalence,
    frequencies,
)


def _coords_of(layout, grid, token):
    return tuple(assign_coords(layout, grid)[token])


class TestAssignCoords:
    def test_audio_token_on_diagonal(self):
        # audio token at frame 2, 1-D position 3 -> (2, 3, 3)
        layout = TokenLayout(frames=3, video_per_frame=4, audio_per_frame=5, others_len=0)
        _, _, audio = segment_offsets(layout)
        assert _coords_of(layout, (2, 2), audio.start + 2 * 5 + 3) == (2, 3, 3)

    def test_video_token_grid_position(self):
        # video token at frame 0, grid row 1, column 2 -> (0, 1, 2)
        layout = TokenLayout(frames=2, video_per_frame=8, audio_per_frame=1, others_len=0)
        assert _coords_of(layout, (2, 4), 1 * 4 + 2) == (0, 1, 2)

    def test_single_token_streams_share_coords(self):
        layout = TokenLayout(frames=4, video_per_frame=1, audio_per_frame=1, others_len=0)
        coords = assign_coords(layout, (1, 1))
        video, _, audio = segment_offsets(layout)
        for f in range(layout.frames):
            assert tuple(coords[video.start + f]) == (f, 0, 0)
            assert tuple(coords[audio.start + f]) == (f, 0, 0)

    def test_others_defaults(self):
        layout = TokenLayout(frames=2, video_per_frame=4, audio_per_frame=1, others_len=5)
        coords = assign_coords(layout, (2, 2))
        _, others, _ = segment_offsets(layout)
        block = coords[others.start : others.stop]
        # frame index one past the last video frame, wrapped at video cols
        assert np.all(block[:, 0] == layout.frames)
        np.testing.assert_array_equal(block[:, 1], [0, 0, 1, 1, 2])
        np.testing.assert_array_equal(block[:, 2], [0, 1, 0, 1, 0])

    def test_grid_mismatch_rejected(self):
        layout = TokenLayout(frames=1, video_per_frame=4, audio_per_frame=0, others_len=2)
        with pytest.raises(ValueError, match="video_grid"):
            assign_coords(layout, (1, 3))
        # (-2) * (-2) has the right cell count but would give negative coordinates.
        with pytest.raises(ValueError, match="non-negative"):
            assign_coords(layout, (-2, -2))
        # A grid that is not a pair is refused by name, not by a failed unpacking.
        for grid in (4, (2, 2, 1)):
            with pytest.raises(ValueError, match=r"video_grid must be a \(rows, cols\) pair"):
                assign_coords(layout, grid)
        # An entry that is not an integer is refused by name before any comparison.
        for grid in (("2", 2), (None, 2)):
            with pytest.raises(ValueError, match="video_grid rows must be an integer"):
                assign_coords(layout, grid)

    @pytest.mark.parametrize("grid,cells", [((2.0, 2.0), 4), ((True, True), 1)])
    def test_non_integer_grid_rejected(self, grid, cells):
        layout = TokenLayout(frames=1, video_per_frame=cells, audio_per_frame=0)
        with pytest.raises(ValueError, match="video_grid rows must be an integer"):
            assign_coords(layout, grid)


class TestFrequencies:
    def test_default_split_shapes(self):
        assert default_axis_split(64) == (16, 24, 24)
        assert default_axis_split(16) == (4, 6, 6)
        assert default_axis_split(8) == (4, 2, 2)

    def test_frequencies_strictly_decreasing(self):
        for freqs in frequencies(32):
            assert freqs[0] == 1.0
            assert np.all(np.diff(freqs) < 0) or freqs.size == 1

    def test_bad_splits_rejected(self):
        with pytest.raises(ValueError):
            default_axis_split(7)


class TestApplyRope:
    def test_zero_coords_identity(self):
        x = seeded_random_tensor((1, 2, 6, 16), 5, np.float32)
        rotated = apply_rope(x, np.zeros((6, 3), dtype=np.int64))
        assert rotated.tobytes() == x.tobytes()

    @pytest.mark.parametrize("dtype,tol", [(np.float32, 1e-6), (np.float64, 1e-12)])
    def test_isometry(self, dtype, tol):
        layout = TokenLayout(frames=3, video_per_frame=6, audio_per_frame=2, others_len=4)
        coords = assign_coords(layout, (2, 3))
        x = seeded_random_tensor((1, 2, layout.total_len, 16), 6, dtype)
        rotated = apply_rope(x, coords)
        norms_in = np.linalg.norm(x.astype(np.float64), axis=-1)
        norms_out = np.linalg.norm(rotated.astype(np.float64), axis=-1)
        assert np.max(np.abs(norms_in - norms_out)) <= tol

    def test_relative_position_law_pairwise(self):
        # <rot(q, p), rot(k, p + delta)> == <rot(q, 0), rot(k, delta)>
        gen = np.random.Generator(np.random.Philox(7))
        for _ in range(50):
            q = gen.standard_normal((1, 1, 1, 16))
            k = gen.standard_normal((1, 1, 1, 16))
            p = gen.integers(0, 20, size=3)
            delta = gen.integers(-10, 10, size=3)
            lhs = np.sum(
                apply_rope(q, p[None, :]) * apply_rope(k, (p + delta)[None, :])
            )
            rhs = np.sum(
                apply_rope(q, np.zeros((1, 3), np.int64))
                * apply_rope(k, delta[None, :])
            )
            assert abs(lhs - rhs) <= 1e-5

    def test_translation_leaves_all_scores_unchanged(self):
        layout = TokenLayout(frames=2, video_per_frame=4, audio_per_frame=2, others_len=3)
        coords = assign_coords(layout, (2, 2))
        q = seeded_random_tensor((1, 1, layout.total_len, 16), 8, np.float32)
        k = seeded_random_tensor((1, 1, layout.total_len, 16), 9, np.float32)

        def scores(shift):
            c = coords + np.asarray(shift)[None, :]
            rq = apply_rope(q, c).astype(np.float64)
            rk = apply_rope(k, c).astype(np.float64)
            return np.einsum("bhid,bhjd->bhij", rq, rk)

        base = scores((0, 0, 0))
        shifted = scores((5, 3, 7))
        assert np.max(np.abs(base - shifted)) <= 1e-5

    def test_audio_scores_depend_only_on_offsets(self):
        # Diagonal tokens: the score depends on (frame delta, position
        # delta), not on absolute placement.
        q = seeded_random_tensor((1, 1, 1, 16), 10, np.float64)
        k = seeded_random_tensor((1, 1, 1, 16), 11, np.float64)

        def score(f, n, df, dn):
            cq = np.array([[f, n, n]], dtype=np.int64)
            ck = np.array([[f + df, n + dn, n + dn]], dtype=np.int64)
            return float(np.sum(apply_rope(q, cq) * apply_rope(k, ck)))

        for df, dn in [(0, 1), (2, 3), (1, 0), (3, -2)]:
            reference = score(0, 0, df, dn)
            for f, n in [(1, 2), (4, 7), (2, 11)]:
                assert abs(score(f, n, df, dn) - reference) <= 1e-12

    def test_shape_validation(self):
        x = seeded_random_tensor((1, 1, 4, 16), 12)
        with pytest.raises(ValueError, match="token count"):
            apply_rope(x, np.zeros((3, 3), np.int64))
        with pytest.raises(ValueError, match="head_dim must be even"):
            apply_rope(seeded_random_tensor((1, 1, 4, 7), 13), np.zeros((4, 3), np.int64))

    @pytest.mark.parametrize("bad,dtype", [
        (np.nan, "float64"), (np.inf, "float64"), (0.5, "float64"), (True, "bool"), (1, "object"),
    ], ids=["nan", "inf", "fractional", "bool", "object"])
    def test_non_integer_coords_rejected(self, bad, dtype):
        # A NaN or inf angle would make NaN outputs, a fractional one rotate
        # between positions; coords are integer positions only.
        coords = np.zeros((4, 3), dtype)
        coords[2, 1] = bad
        with pytest.raises(ValueError, match=f"coords must be integers, got {dtype}"):
            apply_rope(seeded_random_tensor((1, 1, 4, 16), 14), coords)


    def test_out_of_float_range_raises_one_named_error(self):
        # A rotation by a non-zero angle mixes 3e38 with 3e38 into a value
        # past float32's range, computed in float64 and cast back.
        with pytest.raises(ValueError, match=r"the rotation left the float range of float32 "
                                             r"\(overflow encountered in cast\)"):
            apply_rope(np.full((1, 1, 2, 6), 3e38, np.float32), [[0, 1, 1], [0, 2, 2]])


class TestDiagonal1dEquivalence:
    def test_zero_position_zero_deviation(self):
        assert diagonal_1d_equivalence(16, positions=(0,), cases=5) == 0.0

    def test_non_integer_head_dim_rejected(self):
        with pytest.raises(ValueError, match="head_dim must be an integer"):
            diagonal_1d_equivalence(16.0)

    @pytest.mark.parametrize("kwargs,message", [
        ({"cases": 0}, "cases must be >= 1"), ({"cases": True}, "cases must be an integer"),
        ({"cases": 2.0}, "cases must be an integer"), ({"positions": (0.5,)}, "positions must be an integer"),
        ({"positions": ("3",)}, "positions must be an integer"), ({"positions": (1, -2)}, "positions must be >= 0"),
        ({"positions": (2**70,)}, "positions must fit in int64"),
        ({"seed": True}, "seed must be an integer"), ({"seed": 1.5}, "seed must be an integer"),
    ], ids=["zero", "bool", "float", "position-fraction", "position-string", "position-negative",
            "position-past-int64", "seed-bool", "seed-float"])
    def test_bad_case_count_rejected(self, kwargs, message):
        # cases=0 would return 0.0, a pass that checked nothing; a position
        # of 0.5 would run at 0 and a seed of True as 1.
        with pytest.raises(ValueError, match=message):
            diagonal_1d_equivalence(16, **kwargs)

    def test_empty_positions_rejected(self):
        with pytest.raises(ValueError, match="number of positions must be >= 1"):
            diagonal_1d_equivalence(16, positions=())

    def test_random_positions_match(self):
        dev = diagonal_1d_equivalence(32, cases=60)
        assert dev <= DIAGONAL_TOL
        assert dev <= 1e-6

    def test_exact_at_every_head_dim(self):
        for head_dim in range(6, 130, 2):
            assert diagonal_1d_equivalence(head_dim) == 0.0, head_dim

    def test_runs_the_shipped_rotation(self, monkeypatch):
        # A check that compared two private copies of the rotation would
        # still return 0.0 with apply_rope broken.
        monkeypatch.setattr(rope, "apply_rope", lambda tensor, coords: tensor)
        assert diagonal_1d_equivalence(16) > DIAGONAL_TOL

    def test_far_positions_build_no_large_layout(self):
        # Coordinates are built for the drawn positions only, not for a
        # layout as long as the largest one.
        dev, peak = measure_peak_bytes(lambda: diagonal_1d_equivalence(16, positions=(0, 10**9, 2**40)))
        assert dev <= DIAGONAL_TOL
        assert peak < 4 * 1024 * 1024, peak
