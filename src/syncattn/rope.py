"""Unified multi-axis rotary position embedding for interleaved token streams.

Every token gets an integer coordinate triple (frame t, spatial x, spatial y):

* a video token at frame f, grid row i, grid column j sits at (f, i, j);
* an audio token at frame f, 1-D position n sits on the spatial diagonal,
  (f, n, n), sharing the frame axis with video;
* asynchronous image ("others") tokens keep their own 2-D grid coordinates
  and a fixed frame index one past the last video frame (configurable), so
  they never collide with a synchronized frame.

The head dimension is split into a (t, x, y) segment per axis; each
segment is rotated pairwise using the paired-half convention (element m
pairs with element m + d_axis/2) by angle coordinate * theta**(-2m/d_axis).
Scores between rotated queries and keys therefore depend only on
coordinate differences, and a diagonal (n, n) placement behaves exactly
like a 1-D rotary embedding whose frequency vector is the concatenation
of the x and y frequencies.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import TokenLayout, check_attn_tensor, segment_offsets

__all__ = [
    "FreqSchedule",
    "Rope1dEquivalenceReport",
    "apply_rope",
    "assign_coords",
    "diagonal_1d_equivalence",
]

# RopeCoords convention: int64 array of shape (tokens, 3) holding (t, x, y)
# per token in packed segment order.


def default_axis_split(head_dim: int) -> tuple[int, int, int]:
    """Default (d_t, d_x, d_y) split: roughly 2:3:3, every width even, x == y."""
    if head_dim < 6 or head_dim % 2 != 0:
        raise ValueError(f"head_dim must be even and >= 6, got {head_dim}")
    d_xy = max(2 * ((3 * head_dim) // 16), 2)
    return head_dim - 2 * d_xy, d_xy, d_xy


@dataclass(frozen=True)
class FreqSchedule:
    """Per-axis rotary frequency vectors over a split head dimension.

    Axis m rotates its pairs by ``base ** (-2*i/d_axis)`` for
    i = 0 .. d_axis/2 - 1, a strictly decreasing sequence.
    """

    freqs_t: np.ndarray
    freqs_x: np.ndarray
    freqs_y: np.ndarray
    base: float = 10000.0

    @classmethod
    def for_head_dim(cls, head_dim: int, base: float = 10000.0, dims: tuple[int, int, int] | None = None) -> "FreqSchedule":
        """Build a schedule for ``head_dim``, optionally with explicit axis widths."""
        if dims is None:
            dims = default_axis_split(head_dim)
        d_t, d_x, d_y = dims
        if d_t + d_x + d_y != head_dim:
            raise ValueError(f"axis split {dims} does not sum to head_dim {head_dim}")
        if any(d % 2 != 0 or d < 2 for d in dims):
            raise ValueError(f"axis widths must be even and >= 2, got {dims}")

        def axis(d: int) -> np.ndarray:
            return base ** (-2.0 * np.arange(d // 2, dtype=np.float64) / d)

        return cls(axis(d_t), axis(d_x), axis(d_y), base)

    @property
    def dims(self) -> tuple[int, int, int]:
        return (2 * self.freqs_t.size, 2 * self.freqs_x.size, 2 * self.freqs_y.size)

    @property
    def head_dim(self) -> int:
        return sum(self.dims)


def assign_coords(
    layout: TokenLayout,
    video_grid: tuple[int, int],
    others_grid: tuple[int, int] | None = None,
    others_frame: int | None = None,
) -> np.ndarray:
    """Coordinate triples for every token of a packed layout.

    Args:
        layout: the packed sequence description.
        video_grid: (rows, cols) of the per-frame video patch grid;
            rows * cols must equal layout.video_per_frame.
        others_grid: optional (rows, cols) for the others block; defaults
            to wrapping the flat block at the video grid's column count
            (a single row when there is no video).
        others_frame: frame index assigned to others tokens; defaults to
            layout.frames, one past the last synchronized frame.

    Returns an int64 array of shape (layout.total_len, 3).
    """
    rows, cols = video_grid
    if rows * cols != layout.video_per_frame:
        raise ValueError(
            f"video_grid {video_grid} has {rows * cols} cells, expected {layout.video_per_frame}"
        )
    video, others, audio = segment_offsets(layout)
    coords = np.zeros((layout.total_len, 3), dtype=np.int64)

    if layout.video_len > 0:
        idx = np.arange(layout.video_len)
        within = idx % layout.video_per_frame
        coords[video.start : video.stop, 0] = idx // layout.video_per_frame
        coords[video.start : video.stop, 1] = within // cols
        coords[video.start : video.stop, 2] = within % cols

    if layout.others_len > 0:
        t_others = layout.frames if others_frame is None else others_frame
        if others_grid is not None:
            orows, ocols = others_grid
            if orows * ocols != layout.others_len:
                raise ValueError(
                    f"others_grid {others_grid} has {orows * ocols} cells, expected {layout.others_len}"
                )
        else:
            ocols = cols if cols > 0 else layout.others_len
        idx = np.arange(layout.others_len)
        coords[others.start : others.stop, 0] = t_others
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


def apply_rope(tensor: np.ndarray, coords: np.ndarray, sched: FreqSchedule) -> np.ndarray:
    """Rotate a (B, H, S, D) tensor by its per-token (t, x, y) coordinates.

    D must equal the schedule's head_dim and S the coordinate count.  The
    rotation is an isometry per token; all-zero coordinates are the
    identity.  Arithmetic runs in float64 and is cast back to the input
    precision.
    """
    tensor = check_attn_tensor(tensor, "tensor")
    coords = np.asarray(coords)
    if coords.ndim != 2 or coords.shape[1] != 3:
        raise ValueError(f"coords must be (tokens, 3), got {coords.shape}")
    if tensor.shape[2] != coords.shape[0]:
        raise ValueError(f"token count mismatch: tensor has {tensor.shape[2]}, coords {coords.shape[0]}")
    if tensor.shape[3] != sched.head_dim:
        raise ValueError(
            f"head_dim {tensor.shape[3]} does not match schedule split {sched.dims}"
        )

    x64 = np.asarray(tensor, dtype=np.float64)
    pieces = []
    offset = 0
    for axis, freqs in enumerate((sched.freqs_t, sched.freqs_x, sched.freqs_y)):
        d = 2 * freqs.size
        angles = coords[:, axis, None].astype(np.float64) * freqs[None, :]
        pieces.append(_rotate_segment(x64[..., offset : offset + d], angles))
        offset += d
    return np.concatenate(pieces, axis=-1).astype(tensor.dtype)


@dataclass(frozen=True)
class Rope1dEquivalenceReport:
    max_abs_deviation: float
    cases: int
    tol: float

    @property
    def passed(self) -> bool:
        return self.max_abs_deviation <= self.tol


def diagonal_1d_equivalence(
    sched: FreqSchedule,
    positions: tuple[int, ...] = (0, 1, 2, 3, 5, 7, 11, 16),
    seed: int = 0,
    cases: int = 50,
    tol: float = 1e-6,
) -> Rope1dEquivalenceReport:
    """Verify that diagonal (n, n) placement reduces to 1-D rotary embedding.

    For tokens on the spatial diagonal, the (x, y) rotation rotates the
    same set of 2-planes, by the same angles, as a 1-D rotary embedding at
    position n whose frequency vector is concat(freqs_x, freqs_y) -- the
    dimensions are merely indexed in a different order.  This check builds
    that 1-D embedding, applies the fixed dimension permutation that
    aligns its planes with the 2-D ones, and compares the attention scores
    q . k produced by both schemes for random float64 vectors at random
    diagonal positions.  Requires d_x == d_y.
    """
    d_t, d_x, d_y = sched.dims
    if d_x != d_y:
        raise ValueError(f"diagonal equivalence requires d_x == d_y, got {sched.dims}")
    width = d_x + d_y
    half_x = d_x // 2
    combined = np.concatenate([sched.freqs_x, sched.freqs_y])

    # 1-D plane i pairs (i, i + width/2); map both ends onto the 2-D dims
    # carrying the same frequency: x-plane (i, i + d_x/2) for i < d_x/2,
    # then y-plane (d_x + j, d_x + j + d_y/2).
    perm = np.empty(width, dtype=np.int64)
    for i in range(half_x):
        perm[i] = i
        perm[i + width // 2] = i + half_x
    for j in range(d_y // 2):
        perm[half_x + j] = d_x + j
        perm[half_x + j + width // 2] = d_x + j + d_y // 2

    def rot2d(vec: np.ndarray, n: int) -> np.ndarray:
        x_part = _rotate_segment(vec[:d_x], n * sched.freqs_x)
        y_part = _rotate_segment(vec[d_x:], n * sched.freqs_y)
        return np.concatenate([x_part, y_part])

    def rot1d(vec: np.ndarray, n: int) -> np.ndarray:
        # rotate in the 1-D dimension order, then scatter back to the 2-D
        # order so both schemes' scores sum their terms identically
        natural = np.empty(width)
        natural[perm] = _rotate_segment(vec[perm], n * combined)
        return natural

    gen = np.random.Generator(np.random.Philox(seed))
    max_dev = 0.0
    for _ in range(cases):
        q = gen.standard_normal(width)
        k = gen.standard_normal(width)
        n_q = int(gen.choice(positions))
        n_k = int(gen.choice(positions))
        score_2d = float(rot2d(q, n_q) @ rot2d(k, n_k))
        score_1d = float(rot1d(q, n_q) @ rot1d(k, n_k))
        max_dev = max(max_dev, abs(score_2d - score_1d))
    return Rope1dEquivalenceReport(max_dev, cases, tol)
