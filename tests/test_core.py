"""Layout arithmetic, seeded generation, and golden-vector I/O."""

import re

import numpy as np
import pytest

from syncattn.bench import measure_peak_bytes
from syncattn.core import (
    TokenLayout,
    check_count,
    check_cu_seqlens,
    check_qkv,
    check_tensor,
    per_frame_cu_seqlens,
    read_golden,
    seeded_random_tensor,
    segment_offsets,
    write_golden,
)
from syncattn.reference import naive_backward
from syncattn.rope import apply_rope


class TestSegmentOffsets:
    def test_mixed_layout(self):
        layout = TokenLayout(frames=2, video_per_frame=3, audio_per_frame=1, others_len=4)
        video, others, audio = segment_offsets(layout)
        assert (video.start, video.stop) == (0, 6)
        assert (others.start, others.stop) == (6, 10)
        assert (audio.start, audio.stop) == (10, 12)

    def test_degenerate_all_empty(self):
        layout = TokenLayout(frames=1, video_per_frame=0, audio_per_frame=0, others_len=0)
        for rng in segment_offsets(layout):
            assert len(rng) == 0

    def test_small_others(self):
        layout = TokenLayout(frames=3, video_per_frame=2, audio_per_frame=2, others_len=1)
        video, others, audio = segment_offsets(layout)
        assert (video.start, video.stop) == (0, 6)
        assert (others.start, others.stop) == (6, 7)
        assert (audio.start, audio.stop) == (7, 13)

    def test_partition_law_exhaustive_small_domain(self):
        # The three ranges are disjoint and cover [0, total) for every
        # layout with components in [0, 8].
        for f in range(1, 9):
            for n in range(9):
                for l in range(9):
                    for o in range(9):
                        layout = TokenLayout(f, n, l, o)
                        video, others, audio = segment_offsets(layout)
                        combined = list(video) + list(others) + list(audio)
                        assert combined == list(range(layout.total_len))

    def test_invalid_layouts_rejected(self):
        with pytest.raises(ValueError):
            TokenLayout(frames=0, video_per_frame=1, audio_per_frame=1)
        with pytest.raises(ValueError):
            TokenLayout(frames=1, video_per_frame=-1, audio_per_frame=0)

    @pytest.mark.parametrize("sizes", [(2.5, 2, 1), (2, 2.0, 1), (True, 1, 1), (1, 1, 1, np.float64(3))])
    def test_non_integer_sizes_rejected(self, sizes):
        with pytest.raises(ValueError, match="must be an integer"):
            TokenLayout(*sizes)

    def test_numpy_sizes_stored_as_int(self):
        layout = TokenLayout(np.int64(2), np.int32(3), 1)
        assert type(layout.frames) is int and type(layout.video_per_frame) is int
        assert layout == TokenLayout(2, 3, 1)


class TestCheckCount:
    def test_accepts_python_and_numpy_ints(self):
        for value in (3, np.int64(3), np.uint8(3)):
            assert check_count(value, "n") == 3 and type(check_count(value, "n")) is int

    @pytest.mark.parametrize("value", [True, np.bool_(True), 2.0, 2.5, np.float32(2), "2", None])
    def test_rejects_non_integers(self, value):
        with pytest.raises(ValueError, match="n must be an integer"):
            check_count(value, "n")


class TestCuSeqlens:
    def test_examples(self):
        np.testing.assert_array_equal(per_frame_cu_seqlens(2, 3), [0, 2, 4, 6])
        np.testing.assert_array_equal(per_frame_cu_seqlens(0, 2), [0, 0, 0])
        np.testing.assert_array_equal(per_frame_cu_seqlens(4, 1), [0, 4])

    def test_last_boundary_property(self):
        for count in range(6):
            for frames in range(1, 7):
                cu = per_frame_cu_seqlens(count, frames)
                assert cu[-1] == count * frames
                assert cu[0] == 0
                assert np.all(np.diff(cu) >= 0)

    def test_validation(self):
        check_cu_seqlens(np.array([0, 2, 2, 5]), 5)
        with pytest.raises(ValueError):
            check_cu_seqlens(np.array([1, 2]), 2)
        with pytest.raises(ValueError):
            check_cu_seqlens(np.array([0, 3, 2]), 2)
        with pytest.raises(ValueError):
            check_cu_seqlens(np.array([0, 2]), 3)

    def test_per_frame_sizes_must_be_integers(self):
        with pytest.raises(ValueError, match="count_per_frame must be an integer"):
            per_frame_cu_seqlens(2.5, 3)
        with pytest.raises(ValueError, match="frames must be an integer"):
            per_frame_cu_seqlens(2, 3.0)
        with pytest.raises(ValueError, match="frames must be >= 1"):
            per_frame_cu_seqlens(2, 0)


class TestEntryPointsCheckFinite:
    @pytest.mark.parametrize(
        "name,bad,call",
        [
            ("dout", np.nan, lambda x, bad, path: naive_backward(x, x, x, bad)),
            ("tensor", np.inf, lambda x, bad, path: apply_rope(bad, np.zeros((5, 3), np.int64))),
            ("golden tensor", np.nan, lambda x, bad, path: write_golden(path, bad)),
        ],
        ids=["naive_backward", "apply_rope", "write_golden"],
    )
    def test_entry_points_name_non_finite_tensor(self, tmp_path, name, bad, call):
        x = seeded_random_tensor((1, 2, 5, 8), 70, np.float64)
        y = x.copy()
        y[0, 1, 3, 6] = bad
        path = tmp_path / "bad.gv"
        with pytest.raises(ValueError, match=rf"{name} has a non-finite value {bad} at "
                                             rf"\(batch, head, row, col\) \(0, 1, 3, 6\)"):
            call(x, y, path)
        assert not path.exists()


class TestCheckTensor:
    def test_rank_named_by_axes(self):
        with pytest.raises(ValueError, match=r"w must have 2 axes \(row, col\), got 3"):
            check_tensor(np.zeros((2, 2, 2)), "w", ("row", "col"))

    def test_returns_the_array_uncopied(self):
        x = seeded_random_tensor((1, 2, 3, 4), 5)
        assert check_tensor(x, "x", ("batch", "head", "row", "col")) is x
        listed = check_tensor([[1.0, 2.0]], "x", ("row", "col"))
        assert isinstance(listed, np.ndarray) and listed.shape == (1, 2)

    @pytest.mark.parametrize("shape,dtype", [((2, 3), np.float32), ((3, 2), np.float64), ((2, 2), np.float64)],
                             ids=["precision", "shape", "both"])
    def test_unlike_its_pair_rejected(self, shape, dtype):
        like = np.zeros((2, 3), np.float64)
        other = np.zeros(shape, dtype)
        with pytest.raises(ValueError, match=rf"x must be \(2, 3\) float64, got {re.escape(str(shape))} "
                                             rf"{np.dtype(dtype).name}$"):
            check_tensor(other, "x", ("row", "col"), like)
        assert check_tensor(like.tolist(), "x", ("row", "col"), like).dtype == np.float64

    def test_pairing_checked_before_the_finite_scan(self):
        # A tensor unlike its pair is refused as such, whatever it holds.
        with pytest.raises(ValueError, match=r"x must be \(2,\) float64, got \(2,\) float32"):
            check_tensor(np.array([np.nan, 1.0], np.float32), "x", ("axis0",), np.zeros(2))


class TestCheckQkv:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("name", ["q", "k", "v"])
    def test_non_finite_value_named(self, name, bad):
        # +inf is only the max and -inf only the min of its tensor.
        qkv = {n: seeded_random_tensor((2, 3, 5, 4), i) for i, n in enumerate("qkv")}
        qkv[name][1, 2, 3, 0] = bad
        with pytest.raises(ValueError, match=rf"{name} has a non-finite value .* \(1, 2, 3, 0\)"):
            check_qkv(qkv["q"], qkv["k"], qkv["v"])

    def test_v_checked_like_k(self):
        # tests/test_exports.py gives v in the other precision; this pins the shape.
        q, k = (seeded_random_tensor((2, 3, 5, 4), i, np.float64) for i in range(2))
        with pytest.raises(ValueError, match=r"v must be \(2, 3, 5, 4\) float64, got \(2, 3, 6, 4\) float64"):
            check_qkv(q, k, np.zeros((2, 3, 6, 4)))

    def test_finite_check_allocates_no_mask(self):
        # A reference-layout-sized tensor is scanned without a boolean mask
        # of its size (2.3 MB here).
        x = seeded_random_tensor((1, 8, 4480, 64), 3)
        _, peak = measure_peak_bytes(lambda: check_qkv(x, x, x))
        assert peak < 64 * 1024, peak


class TestSeededRandomTensor:
    def test_same_seed_bit_identical(self):
        a = seeded_random_tensor((2, 3, 5, 4), 42, np.float64)
        b = seeded_random_tensor((2, 3, 5, 4), 42, np.float64)
        assert a.tobytes() == b.tobytes()

    def test_different_seeds_differ(self):
        a = seeded_random_tensor((1, 2, 8, 4), 1, np.float32)
        b = seeded_random_tensor((1, 2, 8, 4), 2, np.float32)
        assert np.any(a != b)

    def test_single_element_finite(self):
        x = seeded_random_tensor((1, 1, 1, 1), 977, np.float32)
        assert x.shape == (1, 1, 1, 1)
        assert np.isfinite(x).all()

    def test_overflow_rejected(self):
        with pytest.raises(ValueError):
            seeded_random_tensor((2**20, 2**20, 2**20, 2), 0)

    def test_bad_precision_rejected(self):
        with pytest.raises(ValueError):
            seeded_random_tensor((1, 1, 2, 2), 0, np.int32)

    @pytest.mark.parametrize("seed,message", [(True, "seed must be an integer"), (1.5, "seed must be an integer"),
                                              (-1, "seed must be >= 0")], ids=["bool", "float", "negative"])
    def test_bad_seed_rejected(self, seed, message):
        # True would silently generate seed 1's tensor.
        with pytest.raises(ValueError, match=message):
            seeded_random_tensor((1, 1, 2, 2), seed)

    def test_numpy_integer_seed_keeps_its_bits(self):
        a = seeded_random_tensor((1, 2, 3, 4), np.int64(9), np.float64)
        assert a.tobytes() == seeded_random_tensor((1, 2, 3, 4), 9, np.float64).tobytes()

    def test_non_integer_dims_rejected(self):
        # Truncating 2.9 to 2 would silently return a smaller tensor.
        with pytest.raises(ValueError, match="dims must be an integer"):
            seeded_random_tensor((1, 1, 2.9, 1), 1)
        with pytest.raises(ValueError, match="dims must be >= 0"):
            seeded_random_tensor((1, 1, -1, 1), 1)


class TestGoldenIO:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_roundtrip_bit_identical(self, tmp_path, dtype):
        tensor = seeded_random_tensor((2, 2, 7, 3), 5, dtype)
        path = tmp_path / "t.gv"
        write_golden(path, tensor)
        back = read_golden(path)
        assert back.dtype == tensor.dtype
        assert back.shape == tensor.shape
        assert back.tobytes() == tensor.tobytes()

    def test_nan_rejected(self, tmp_path):
        # The first bad word is named by its (batch, head, row, col).
        path = tmp_path / "nan.gv"
        nan_word = f"{np.frombuffer(np.float32(np.nan).tobytes(), np.uint32)[0]:08x}"
        path.write_text(f"GV1 1 2 1 2 f32\n3f800000 3f800000 3f800000 {nan_word}\n")
        with pytest.raises(ValueError, match=r"non-finite value nan at \(batch, head, row, col\) \(0, 1, 0, 1\)"):
            read_golden(path)

    def test_shape_mismatch_rejected(self, tmp_path):
        path = tmp_path / "short.gv"
        path.write_text("GV1 1 1 2 2 f32\n3f800000 3f800000 3f800000\n")
        with pytest.raises(ValueError, match="words"):
            read_golden(path)

    def test_malformed_header_rejected(self, tmp_path):
        path = tmp_path / "hdr.gv"
        path.write_text("GV2 1 1 1 1 f32\n3f800000\n")
        with pytest.raises(ValueError, match="header"):
            read_golden(path)

    @pytest.mark.parametrize("header", ["GV1 -1 1 1 1 f64", "GV1 -1 -1 1 1 f64"])
    def test_negative_dims_rejected(self, tmp_path, header):
        # (-1) * (-1) * 1 * 1 declares one word, and reshape would take -1 as "infer".
        path = tmp_path / "neg.gv"
        path.write_text(f"{header}\n3ff0000000000000\n")
        with pytest.raises(ValueError, match="negative dims"):
            read_golden(path)

    def test_wrong_word_width_rejected(self, tmp_path):
        path = tmp_path / "width.gv"
        path.write_text("GV1 1 1 1 1 f64\n3f800000\n")
        with pytest.raises(ValueError, match="hex chars"):
            read_golden(path)

    def test_non_hex_word_rejected(self, tmp_path):
        path = tmp_path / "hex.gv"
        path.write_text("GV1 1 1 1 1 f32\nzf800000\n")
        with pytest.raises(ValueError, match="hexadecimal"):
            read_golden(path)

    @pytest.mark.parametrize("word", ["0x3f8000", "+3f80000", "3f8_0000"])
    def test_only_plain_hex_digits_accepted(self, tmp_path, word):
        # int(word, 16) would take a prefix, a sign or an underscore.
        path = tmp_path / "plain.gv"
        path.write_text(f"GV1 1 1 1 1 f32\n{word}\n")
        with pytest.raises(ValueError, match="not hexadecimal"):
            read_golden(path)
