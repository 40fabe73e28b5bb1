"""Layout arithmetic, seeded generation, and golden-vector I/O."""

import numpy as np
import pytest

from syncattn.bench import measure_peak_bytes
from syncattn.core import (
    GoldenFileError,
    TokenLayout,
    check_count,
    check_cu_seqlens,
    check_qkv,
    per_frame_cu_seqlens,
    read_golden,
    seeded_random_tensor,
    segment_offsets,
    write_golden,
)


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


class TestCheckQkv:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("name", ["q", "k", "v"])
    def test_non_finite_value_named(self, name, bad):
        # +inf is only the max and -inf only the min of its tensor.
        qkv = {n: seeded_random_tensor((2, 3, 5, 4), i) for i, n in enumerate("qkv")}
        qkv[name][1, 2, 3, 0] = bad
        with pytest.raises(ValueError, match=rf"{name} has a non-finite value .* \(1, 2, 3, 0\)"):
            check_qkv(qkv["q"], qkv["k"], qkv["v"])

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
        path = tmp_path / "nan.gv"
        nan_word = f"{np.frombuffer(np.float32(np.nan).tobytes(), np.uint32)[0]:08x}"
        path.write_text(f"GV1 1 1 1 1 f32\n{nan_word}\n")
        with pytest.raises(GoldenFileError, match="non-finite"):
            read_golden(path)

    def test_shape_mismatch_rejected(self, tmp_path):
        path = tmp_path / "short.gv"
        path.write_text("GV1 1 1 2 2 f32\n3f800000 3f800000 3f800000\n")
        with pytest.raises(GoldenFileError, match="words"):
            read_golden(path)

    def test_malformed_header_rejected(self, tmp_path):
        path = tmp_path / "hdr.gv"
        path.write_text("GV2 1 1 1 1 f32\n3f800000\n")
        with pytest.raises(GoldenFileError, match="header"):
            read_golden(path)

    @pytest.mark.parametrize("header", ["GV1 -1 1 1 1 f64", "GV1 -1 -1 1 1 f64"])
    def test_negative_dims_rejected(self, tmp_path, header):
        # (-1) * (-1) * 1 * 1 declares one word, and reshape would take -1 as "infer".
        path = tmp_path / "neg.gv"
        path.write_text(f"{header}\n3ff0000000000000\n")
        with pytest.raises(GoldenFileError, match="negative dims"):
            read_golden(path)

    def test_wrong_word_width_rejected(self, tmp_path):
        path = tmp_path / "width.gv"
        path.write_text("GV1 1 1 1 1 f64\n3f800000\n")
        with pytest.raises(GoldenFileError, match="hex chars"):
            read_golden(path)

    def test_non_hex_word_rejected(self, tmp_path):
        path = tmp_path / "hex.gv"
        path.write_text("GV1 1 1 1 1 f32\nzf800000\n")
        with pytest.raises(GoldenFileError, match="hexadecimal"):
            read_golden(path)

    @pytest.mark.parametrize("word", ["0x3f8000", "+3f80000", "3f8_0000"])
    def test_only_plain_hex_digits_accepted(self, tmp_path, word):
        # int(word, 16) would take a prefix, a sign or an underscore.
        path = tmp_path / "plain.gv"
        path.write_text(f"GV1 1 1 1 1 f32\n{word}\n")
        with pytest.raises(GoldenFileError, match="not hexadecimal"):
            read_golden(path)
