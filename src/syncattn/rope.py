"""Unified multi-axis rotary position embedding for interleaved token streams.

Every token gets an integer coordinate triple (frame t, spatial x, spatial y):

* a video token at frame f, grid row i, grid column j sits at (f, i, j);
* an audio token at frame f, 1-D position n sits on the spatial diagonal,
  (f, n, n), sharing the frame axis with video;
* asynchronous image ("others") tokens keep their own 2-D grid coordinates
  and a fixed frame index one past the last video frame, so they never
  collide with a synchronized frame.

The head dimension is split into a (t, x, y) segment per axis; each
segment is rotated pairwise using the paired-half convention (element m
pairs with element m + d_axis/2) by angle coordinate * 10000**(-2m/d_axis).
Scores between rotated queries and keys therefore depend only on
coordinate differences, and a diagonal (n, n) placement behaves exactly
like a 1-D rotary embedding whose frequency vector is the concatenation
of the x and y frequencies.
"""

from __future__ import annotations

import numpy as np

from .core import QKV_AXES, TokenLayout, check_count, check_tensor, float_range, segment_offsets

__all__ = ["apply_rope", "assign_coords", "diagonal_1d_equivalence"]

DIAGONAL_TOL = 1e-6  # diagonal_1d_equivalence's bound on the score deviation

# RopeCoords convention: int64 array of shape (tokens, 3) holding (t, x, y)
# per token in packed segment order.


def default_axis_split(head_dim: int) -> tuple[int, int, int]:
    """Default (d_t, d_x, d_y) split: roughly 2:3:3, every width even, x == y."""
    if check_count(head_dim, "head_dim", 6) % 2 != 0:
        raise ValueError(f"head_dim must be even and >= 6, got {head_dim}")
    d_xy = max(2 * ((3 * head_dim) // 16), 2)
    return head_dim - 2 * d_xy, d_xy, d_xy


def frequencies(head_dim: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rotary frequency vectors of the (t, x, y) axes of ``default_axis_split``.

    An axis of width d rotates its pairs by ``10000 ** (-2*i/d)`` for
    i = 0 .. d/2 - 1 (RoFormer's base), a strictly decreasing sequence.
    """
    return tuple(10000.0 ** (-2.0 * np.arange(d // 2, dtype=np.float64) / d)
                 for d in default_axis_split(head_dim))


def assign_coords(layout: TokenLayout, video_grid: tuple[int, int]) -> np.ndarray:
    """Coordinate triples for every token of a packed layout.

    ``video_grid`` is the (rows, cols) of the per-frame video patch grid:
    two non-negative sizes whose product is layout.video_per_frame.  Others
    tokens sit at frame layout.frames, one past the last synchronized
    frame, on their flat block wrapped at the grid's column count (a single
    row when there is no video).

    Returns an int64 array of shape (layout.total_len, 3).
    """
    rows, cols = video_grid
    if min(rows, cols) < 0 or rows * cols != layout.video_per_frame:
        raise ValueError(
            f"video_grid {video_grid} must be non-negative with {layout.video_per_frame} cells"
        )
    rows, cols = check_count(rows, "video_grid rows"), check_count(cols, "video_grid cols")
    video, others, audio = segment_offsets(layout)
    coords = np.zeros((layout.total_len, 3), dtype=np.int64)

    if layout.video_len > 0:
        idx = np.arange(layout.video_len)
        within = idx % layout.video_per_frame
        coords[video.start : video.stop, 0] = idx // layout.video_per_frame
        coords[video.start : video.stop, 1] = within // cols
        coords[video.start : video.stop, 2] = within % cols

    if layout.others_len > 0:
        ocols = cols if cols > 0 else layout.others_len
        idx = np.arange(layout.others_len)
        coords[others.start : others.stop, 0] = layout.frames
        coords[others.start : others.stop, 1] = idx // ocols
        coords[others.start : others.stop, 2] = idx % ocols

    if layout.audio_len > 0:
        idx = np.arange(layout.audio_len)
        pos = idx % layout.audio_per_frame
        coords[audio.start : audio.stop, 0] = idx // layout.audio_per_frame
        coords[audio.start : audio.stop, 1] = pos
        coords[audio.start : audio.stop, 2] = pos

    return coords


def _rotate_segment(seg64: np.ndarray, angles: np.ndarray) -> np.ndarray:
    """Paired-half rotation of the last axis; angles is (d/2,) or (tokens, d/2)."""
    half = seg64.shape[-1] // 2
    cos = np.cos(angles)
    sin = np.sin(angles)
    u1 = seg64[..., :half]
    u2 = seg64[..., half:]
    return np.concatenate([u1 * cos - u2 * sin, u1 * sin + u2 * cos], axis=-1)


def apply_rope(tensor: np.ndarray, coords: np.ndarray) -> np.ndarray:
    """Rotate a (B, H, S, D) tensor by its per-token (t, x, y) coordinates.

    ``coords`` is an integer (tokens, 3) array, as ``assign_coords`` returns;
    S must equal the coordinate count, and D is split by
    ``default_axis_split`` (even and >= 6).  The rotation is an isometry
    per token; all-zero coordinates are the identity.  Arithmetic runs in
    float64 and is cast back to the input precision under ``core.float_range``.
    """
    tensor = check_tensor(tensor, "tensor", QKV_AXES)
    coords = np.asarray(coords)
    if coords.dtype.kind not in "iu":  # a float, bool or object coordinate is not a RopeCoords entry
        raise ValueError(f"coords must be integers, got {coords.dtype}")
    if coords.ndim != 2 or coords.shape[1] != 3:
        raise ValueError(f"coords must be (tokens, 3), got {coords.shape}")
    if tensor.shape[2] != coords.shape[0]:
        raise ValueError(f"token count mismatch: tensor has {tensor.shape[2]}, coords {coords.shape[0]}")

    x64 = np.asarray(tensor, dtype=np.float64)
    pieces = []
    offset = 0
    with float_range(tensor.dtype, "the rotation"):
        for axis, freqs in enumerate(frequencies(tensor.shape[3])):
            d = 2 * freqs.size
            angles = coords[:, axis, None].astype(np.float64) * freqs[None, :]
            pieces.append(_rotate_segment(x64[..., offset : offset + d], angles))
            offset += d
        return np.concatenate(pieces, axis=-1).astype(tensor.dtype)


def diagonal_1d_equivalence(
    head_dim: int,
    positions: tuple[int, ...] = (0, 1, 2, 3, 5, 7, 11, 16),
    seed: int = 0,
    cases: int = 50,
) -> float:
    """Largest score deviation between diagonal (n, n) placement and 1-D rotary embedding.

    For tokens on the spatial diagonal, the (x, y) rotation rotates the
    same set of 2-planes, by the same angles, as a 1-D rotary embedding at
    position n whose frequency vector is concat(freqs_x, freqs_y) -- the
    dimensions are merely indexed in a different order.  This check builds
    that 1-D embedding, applies the fixed dimension permutation that
    aligns its planes with the 2-D ones, and compares the attention scores
    q . k produced by both schemes for random float64 vectors at random
    diagonal positions over ``cases`` pairs; it passes when the returned
    largest absolute deviation is <= DIAGONAL_TOL.
    """
    _, freqs_x, freqs_y = frequencies(head_dim)
    cases = check_count(cases, "cases", 1)
    check_count(len(positions), "the number of positions", 1)
    d_xy = 2 * freqs_x.size  # default_axis_split gives d_x == d_y
    half = d_xy // 2
    combined = np.concatenate([freqs_x, freqs_y])

    # 1-D plane i pairs (i, i + d_xy); map both ends onto the 2-D dims
    # carrying the same frequency: x-plane (i, i + half) for i < half,
    # then y-plane (d_xy + j, d_xy + j + half).
    x_lo, y_lo = np.arange(half), d_xy + np.arange(half)
    perm = np.concatenate([x_lo, y_lo, x_lo + half, y_lo + half])

    def rot2d(vec: np.ndarray, n: int) -> np.ndarray:
        x_part = _rotate_segment(vec[:d_xy], n * freqs_x)
        y_part = _rotate_segment(vec[d_xy:], n * freqs_y)
        return np.concatenate([x_part, y_part])

    def rot1d(vec: np.ndarray, n: int) -> np.ndarray:
        # rotate in the 1-D dimension order, then scatter back to the 2-D
        # order so both schemes' scores sum their terms identically
        natural = np.empty(2 * d_xy)
        natural[perm] = _rotate_segment(vec[perm], n * combined)
        return natural

    gen = np.random.Generator(np.random.Philox(seed))
    max_dev = 0.0
    for _ in range(cases):
        q = gen.standard_normal(2 * d_xy)
        k = gen.standard_normal(2 * d_xy)
        n_q = int(gen.choice(positions))
        n_k = int(gen.choice(positions))
        score_2d = float(rot2d(q, n_q) @ rot2d(k, n_k))
        score_1d = float(rot1d(q, n_q) @ rot1d(k, n_k))
        max_dev = max(max_dev, abs(score_2d - score_1d))
    return max_dev
