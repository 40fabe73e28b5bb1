"""Attention topologies over a packed video/others/audio sequence.

Which query segment may see which key segment, per wiring ("any": every
frame pair, "frame": the same frame only, "-": blocked):

    query  -> key      FULL_3D  MASKED_3D  CROSS_ATTN_2D  SELF_ATTN_2D*
    video  -> video    any      any        -              frame
    video  -> others   any      any        -              -
    video  -> audio    any      frame      frame          frame
    others -> video    any      any        -              -
    others -> others   any      any        -              -
    others -> audio    any      -          -              -
    audio  -> video    any      frame      -              frame
    audio  -> others   any      -          -              -
    audio  -> audio    any      frame      -              frame

MASKED_3D is the frame-synchronized ("masked 3D") topology; the flat 2D
wirings never touch others tokens, and SELF_ATTN_2D* is both
self-attention wirings (frozen or updated audio).  ``block_plan`` states
this rule once, as blocks of query rows and per-group key columns.
``build_mask`` materializes it; the forward paths never do: ``_run_plan``
runs the streaming kernel once per block, and each call folds its partial
result into the output exactly through the LogSumExp statistics.  Its
callers are ``masked3d_forward`` and the layer of any wiring.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

from .core import (
    AttnPartial,
    TokenLayout,
    check_finite,
    check_qkv,
    per_frame_cu_seqlens,
    seeded_random_tensor,
    segment_offsets,
)
# Unused flash_forward and merge_partials stay: benchmark/spans.py wraps both names here.
from .kernel import TileConfig, flash_forward, flash_varlen_forward  # noqa: F401
from .merge import merge_partials  # noqa: F401

__all__ = [
    "Block",
    "InjectionConfig",
    "ProjectionSet",
    "block_plan",
    "build_mask",
    "config_layer_forward",
    "mask_to_text",
    "masked3d_forward",
    "seeded_projection_set",
]


class InjectionConfig(Enum):
    """How the synchronized audio stream is wired into attention."""

    CROSS_ATTN_2D = "cross_attn_2d"
    SELF_ATTN_2D_FROZEN_AUDIO = "self_attn_2d_frozen_audio"
    SELF_ATTN_2D = "self_attn_2d"
    FULL_3D = "full_3d"
    MASKED_3D = "masked_3d"


class Block(NamedTuple):
    """Query rows and key columns of a plan block, split into groups.

    Group ``g`` lets ``rows[cu_q[g]:cu_q[g+1]]`` see ``cols[cu_k[g]:cu_k[g+1]]``.
    """

    rows: slice
    cols: slice
    cu_q: np.ndarray
    cu_k: np.ndarray


def block_plan(layout: TokenLayout, config: InjectionConfig) -> list[Block]:
    """Blocks whose groups hold every allowed (query, key) pair exactly once.

    FULL_3D is one dense block.  MASKED_3D is, in order: video+others ->
    video+others dense, then per frame video -> audio, audio -> video and
    audio -> audio.  CROSS_ATTN_2D is per frame video -> audio.  Both
    SELF_ATTN_2D wirings are per frame video -> video, then MASKED_3D's
    three per-frame blocks; the frozen-audio wiring computes its audio rows
    too and drops them afterwards.  Blocks with no rows or no columns are
    left out.
    """
    video, others, audio = (slice(r.start, r.stop) for r in segment_offsets(layout))
    cu_n = per_frame_cu_seqlens(layout.video_per_frame, layout.frames)
    cu_l = per_frame_cu_seqlens(layout.audio_per_frame, layout.frames)
    synced = [Block(video, audio, cu_n, cu_l), Block(audio, video, cu_l, cu_n), Block(audio, audio, cu_l, cu_l)]
    if config is InjectionConfig.FULL_3D:
        whole, dense = slice(0, layout.total_len), np.array([0, layout.total_len])
        blocks = [Block(whole, whole, dense, dense)]
    elif config is InjectionConfig.MASKED_3D:
        vo, dense = slice(0, others.stop), np.array([0, others.stop])  # video then others
        blocks = [Block(vo, vo, dense, dense), *synced]
    elif config is InjectionConfig.CROSS_ATTN_2D:
        blocks = synced[:1]
    else:  # both SELF_ATTN_2D wirings
        blocks = [Block(video, video, cu_n, cu_n), *synced]
    return [blk for blk in blocks if blk.cu_q[-1] > 0 and blk.cu_k[-1] > 0]


def build_mask(layout: TokenLayout, config: InjectionConfig) -> np.ndarray:
    """Permission matrix of any wiring: the union of its plan's groups.

    Returns a (total_len, total_len) bool matrix ``allow``: ``allow[i, j]``
    is True when query token i may attend to key token j.  It depends only
    on token positions, never on batch or head.
    """
    allow = np.zeros((layout.total_len, layout.total_len), dtype=bool)
    for blk in block_plan(layout, config):
        sub = allow[blk.rows, blk.cols]
        for q0, q1, k0, k1 in zip(blk.cu_q[:-1], blk.cu_q[1:], blk.cu_k[:-1], blk.cu_k[1:]):
            sub[q0:q1, k0:k1] = True
    return allow


def mask_to_text(allow: np.ndarray) -> str:
    """Textual bitmap of a mask: '#' for allowed, '.' for blocked, row per line."""
    rows = ["".join("#" if a else "." for a in row) for row in allow]
    return "\n".join(rows)


def masked3d_forward(q, k, v, layout: TokenLayout, tile: TileConfig = TileConfig()) -> np.ndarray:
    """Frame-synchronized masked attention via decomposition and LSE merging.

    Inputs are packed in the fixed segment order of ``layout`` and the
    sequence axis must equal ``layout.total_len``.  Runs the MASKED_3D
    ``block_plan``.  Equals naive attention under the MASKED_3D
    permission matrix.
    """
    q, k, v = check_qkv(q, k, v)
    if q.shape != k.shape:
        raise ValueError(f"q/k/v must share one shape, got {q.shape} {k.shape} {v.shape}")
    if q.shape[2] != layout.total_len:
        raise ValueError(f"packed length {q.shape[2]} != layout total_len {layout.total_len}")
    return _run_plan(q, k, v, block_plan(layout, InjectionConfig.MASKED_3D), tile)


def _run_plan(q, k, v, plan: list[Block], tile: TileConfig) -> np.ndarray:
    """Attention output of q's rows under ``plan``, one kernel call per block.

    q holds the packed rows from the first, k and v the packed columns from
    the first the plan reads.  One rule for every block: in plan order, its
    kernel call over views of q's rows and k's and v's columns folds its
    keys into the output and lse rows, which start as the empty partial;
    the merge is exact as blocks hold disjoint keys.  Rows no block covers
    stay zero.  Peak transient memory is the output and lse, one kernel
    unit's scratch partial and (rows, D) merge temporary, the kernel's
    score tile and PV product (each at most ``q_block * k_block``
    numbers), and O(rows) lse weights.
    """
    out, lse = np.zeros(q.shape, q.dtype), np.full(q.shape[:3], -np.inf, q.dtype)
    k0 = min((blk.cols.start for blk in plan), default=0)
    for blk in plan:
        rows, cols = np.s_[:, :, blk.rows], np.s_[:, :, blk.cols.start - k0:blk.cols.stop - k0]
        flash_varlen_forward(q[rows], k[cols], v[cols], blk.cu_q, blk.cu_k, tile,
                             out=AttnPartial(out[rows], lse[rows]))
    return out


@dataclass(frozen=True)
class ProjectionSet:
    """Query/key/value/output projection matrices for one attention layer.

    Each matrix is (model_dim, model_dim); ``heads`` splits model_dim into
    per-head slices of width model_dim // heads.
    """

    wq: np.ndarray
    wk: np.ndarray
    wv: np.ndarray
    wo: np.ndarray
    heads: int

    def __post_init__(self) -> None:
        c = self.wq.shape[0]
        for name in ("wq", "wk", "wv", "wo"):
            w = getattr(self, name)
            if w.shape != (c, c):
                raise ValueError(f"{name} must be square ({c}, {c}), got {w.shape}")
        if self.heads < 1 or c % self.heads != 0:
            raise ValueError(f"heads={self.heads} must divide model_dim={c}")

    @property
    def model_dim(self) -> int:
        return self.wq.shape[0]

    @property
    def head_dim(self) -> int:
        return self.model_dim // self.heads


def seeded_projection_set(model_dim: int, heads: int, seed: int, precision: type = np.float32) -> ProjectionSet:
    """Deterministic random projections, scaled like typical init (1/sqrt(C))."""
    mats = seeded_random_tensor((4, 1, model_dim, model_dim), seed, precision)
    scale = np.asarray(1.0 / np.sqrt(model_dim), dtype=precision)
    wq, wk, wv, wo = (mats[i, 0] * scale for i in range(4))
    return ProjectionSet(wq, wk, wv, wo, heads)


def _split_heads(x: np.ndarray, heads: int) -> np.ndarray:
    """(B, S, H*d) -> a strided (B, H, S, d) view; the kernel reads it uncopied."""
    b, s, c = x.shape
    return x.reshape(b, s, heads, c // heads).transpose(0, 2, 1, 3)


def _join_heads(x: np.ndarray) -> np.ndarray:
    b, h, s, d = x.shape
    return np.ascontiguousarray(x.transpose(0, 2, 1, 3)).reshape(b, s, h * d)


def config_layer_forward(x_video, c_audio, layout: TokenLayout, config: InjectionConfig, weights: ProjectionSet):
    """One attention layer over a video and an audio stream, in any wiring.

    Args:
        x_video: (B, F*N, model_dim) video stream, frame-major.
        c_audio: (B, F*L, model_dim) audio stream, frame-major.
        layout: token layout; its others tokens take no part in the layer.
        config: the wiring.
        weights: projections applied to queries, keys, values, and output.

    One rule for every wiring: pack the streams as [video | audio], project
    queries over the rows the plan of ``TokenLayout(F, N, L)`` writes (and
    every video row) and keys and values from the first column it reads,
    run the plan, and unpack.  The self-attention wirings pack each frame's
    [video_f, audio_f] instead and run the plan of ``TokenLayout(F, N + L)``:
    one block group, so one softmax, per frame and no merge.  CROSS_ATTN_2D
    and the frozen-audio wiring return the input audio.  A NaN or inf in
    either stream is rejected, named by stream and (batch, row, channel).

    Returns the updated (x_video, c_audio), of the input shapes and each in
    its own memory: the attention wiring alone, with no residual, norm or MLP.
    """
    x_video, c_audio = np.asarray(x_video), np.asarray(c_audio)
    f, n, l, c = layout.frames, layout.video_per_frame, layout.audio_per_frame, weights.model_dim
    if x_video.ndim != 3 or x_video.shape[1:] != (f * n, c):
        raise ValueError(f"x_video must be (B, {f * n}, {c}), got {x_video.shape}")
    if c_audio.ndim != 3 or c_audio.shape[1:] != (f * l, c) or c_audio.shape[0] != x_video.shape[0]:
        raise ValueError(f"c_audio must be ({x_video.shape[0]}, {f * l}, {c}), got {c_audio.shape}")
    check_finite(x_video, "x_video", "(batch, row, channel)")
    check_finite(c_audio, "c_audio", "(batch, row, channel)")
    b, h = x_video.shape[0], weights.heads
    fold = config in (InjectionConfig.SELF_ATTN_2D_FROZEN_AUDIO, InjectionConfig.SELF_ATTN_2D)
    g, nv, na = (f, n, l) if fold else (1, f * n, f * l)  # g groups of [nv video | na audio] rows
    stream = np.concatenate([x_video.reshape(b, g, nv, c), c_audio.reshape(b, g, na, c)], axis=2)
    stream = stream.reshape(b, g * (nv + na), c)
    plan = block_plan(TokenLayout(f, n + l, 0) if fold else TokenLayout(f, n, l), config)
    rows = max([f * n, *(blk.rows.stop for blk in plan)])
    k0 = min([stream.shape[1], *(blk.cols.start for blk in plan)])
    q = _split_heads(stream[:, :rows] @ weights.wq, h)
    k, v = (_split_heads(stream[:, k0:] @ w, h) for w in (weights.wk, weights.wv))
    del stream
    attn = _run_plan(q, k, v, plan, TileConfig())
    del q, k, v
    y = (_join_heads(attn) @ weights.wo).reshape(b, g, rows // g, c)
    video = (y if rows == f * n else y[:, :, :nv].copy()).reshape(b, f * n, c)
    if config in (InjectionConfig.CROSS_ATTN_2D, InjectionConfig.SELF_ATTN_2D_FROZEN_AUDIO):
        return video, c_audio
    return video, y[:, :, nv:].copy().reshape(b, f * l, c)
