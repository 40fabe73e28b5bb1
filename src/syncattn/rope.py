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

from .core import QKV_AXES, TokenLayout, check_count, check_tensor, float_range

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
    try:
        rows, cols = video_grid
    except (TypeError, ValueError):
        raise ValueError(f"video_grid must be a (rows, cols) pair, got {video_grid!r}") from None
    # Integers first, so a str or None entry is refused by name, not by a failed comparison.
    rows, cols = check_count(rows, "video_grid rows", -np.inf), check_count(cols, "video_grid cols", -np.inf)
    if min(rows, cols) < 0 or rows * cols != layout.video_per_frame:
        raise ValueError(f"video_grid {video_grid} must be non-negative with {layout.video_per_frame} cells")
    others = np.arange(layout.others_len)
    frame, n = np.indices((layout.frames, layout.audio_per_frame)).reshape(2, -1)
    return np.concatenate([
        np.column_stack(np.indices((layout.frames, rows, cols)).reshape(3, -1)),  # (frame, cell // cols, cell % cols)
        np.column_stack([np.full_like(others, layout.frames), *np.divmod(others, cols or layout.others_len)]),
        np.column_stack([frame, n, n]),
    ])


def _rotate_segment(seg64: np.ndarray, angles: np.ndarray) -> np.ndarray:
    """Paired-half rotation of the last axis; angles is (d/2,) or (tokens, d/2)."""
    u1, u2 = np.split(seg64, 2, axis=-1)
    cos, sin = np.cos(angles), np.sin(angles)
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
    bounds = np.cumsum([0, *default_axis_split(tensor.shape[3])])
    with float_range(tensor.dtype, "the rotation"):
        return np.concatenate([
            _rotate_segment(x64[..., lo:hi], t[:, None] * freqs)
            for t, lo, hi, freqs in zip(coords.T, bounds, bounds[1:], frequencies(tensor.shape[3]))
        ], axis=-1).astype(tensor.dtype)


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
    dimensions are merely indexed in a different order.  Over ``cases``
    pairs of random float64 vectors at positions drawn from ``positions``
    (integers >= 0), this check compares the attention score q . k of
    ``apply_rope`` at coordinates (0, n, n) with that of the 1-D embedding;
    it passes when the returned largest absolute deviation is <= DIAGONAL_TOL.
    """
    _, freqs_x, freqs_y = frequencies(head_dim)
    cases, seed = check_count(cases, "cases", 1), check_count(seed, "seed")
    positions = [check_count(n, "positions") for n in positions]
    check_count(len(positions), "the number of positions", 1)
    if max(positions) > np.iinfo(np.int64).max:  # apply_rope takes int64 coordinates
        raise ValueError(f"positions must fit in int64, got {max(positions)}")
    combined = np.concatenate([freqs_x, freqs_y])

    # 1-D plane i pairs (i, i + d_xy); map both ends onto the 2-D dims
    # carrying the same frequency: x-plane (i, i + half) for i < half, then
    # y-plane (d_xy + j, d_xy + j + half), past the unrotated t dims.  The
    # 1-D rotation runs in its own order and is scattered back to the 2-D
    # order, so both schemes' scores sum their terms identically.
    half = freqs_x.size
    x_lo = head_dim - 4 * half + np.arange(half)
    perm = np.concatenate([x_lo, x_lo + 2 * half, x_lo + half, x_lo + 3 * half])

    gen = np.random.Generator(np.random.Philox(seed))
    max_dev = 0.0
    for _ in range(cases):
        qk = gen.standard_normal((2, head_dim))  # a query and a key token
        n = gen.choice(positions, size=2)[:, None]
        q2d, k2d = apply_rope(qk[None, None], n * [0, 1, 1])[0, 0]
        one_d = qk.copy()
        one_d[:, perm] = _rotate_segment(qk[:, perm], n * combined)
        max_dev = max(max_dev, abs(float(q2d @ k2d) - float(one_d[0] @ one_d[1])))
    return max_dev
