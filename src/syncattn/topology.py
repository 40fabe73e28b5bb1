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
result into the output exactly through the LogSumExp statistics.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

from .core import (
    AttnPartial,
    TokenLayout,
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

    One rule for every block: in plan order, its kernel call over views of
    q's rows and k's and v's columns folds its keys into the output and lse
    rows, which start as the empty partial; the merge is exact as blocks
    hold disjoint keys.  Rows no block covers stay zero.  Peak transient
    memory is the output and lse, one kernel unit's scratch partial and
    (rows, D) merge temporary, the kernel's score tile and PV product (each
    at most ``q_block * k_block`` numbers), and O(rows) lse weights.
    """
    out, lse = np.zeros(q.shape, q.dtype), np.full(q.shape[:3], -np.inf, q.dtype)
    for blk in plan:
        rows, cols = np.s_[:, :, blk.rows], np.s_[:, :, blk.cols]
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
    """One per-frame attention layer in a flat 2D wiring.

    Args:
        x_video: (B, F*N, model_dim) video stream, frame-major.
        c_audio: (B, F*L, model_dim) audio stream, frame-major.
        layout: token layout (others tokens take no part in 2D wirings).
        config: CROSS_ATTN_2D, SELF_ATTN_2D_FROZEN_AUDIO, or SELF_ATTN_2D.
        weights: projections applied to queries, keys, values, and output.

    Runs the wiring's ``block_plan``.  CROSS_ATTN_2D projects queries from
    the video stream and keys and values from the audio stream, onto which
    the plan's key columns are shifted; audio passes through unchanged.
    The self-attention wirings project the stream packed frame-major as
    [video_f, audio_f] and run the plan of ``TokenLayout(F, N + L)``, whose
    one per-frame block holds the four per-frame blocks of video and audio:
    one softmax per frame, no merge.  The frozen-audio wiring then drops
    the updated audio for the original.

    Returns the updated (x_video, c_audio) pair, of the input shapes.  No
    residual, norm, or MLP: this is the attention wiring alone.
    """
    x_video = np.asarray(x_video)
    c_audio = np.asarray(c_audio)
    f, n, l = layout.frames, layout.video_per_frame, layout.audio_per_frame
    c = weights.model_dim
    if x_video.ndim != 3 or x_video.shape[1:] != (f * n, c):
        raise ValueError(f"x_video must be (B, {f * n}, {c}), got {x_video.shape}")
    if c_audio.ndim != 3 or c_audio.shape[1:] != (f * l, c) or c_audio.shape[0] != x_video.shape[0]:
        raise ValueError(f"c_audio must be ({x_video.shape[0]}, {f * l}, {c}), got {c_audio.shape}")
    if config in (InjectionConfig.FULL_3D, InjectionConfig.MASKED_3D):
        raise ValueError(f"config_layer_forward does not execute {config}; use masked3d_forward")
    b, h = x_video.shape[0], weights.heads

    if config is InjectionConfig.CROSS_ATTN_2D:
        a0 = segment_offsets(layout)[2].start  # the plan's key columns, moved onto c_audio
        plan = [blk._replace(cols=slice(blk.cols.start - a0, blk.cols.stop - a0))
                for blk in block_plan(layout, config)]
        attn = _run_plan(_split_heads(x_video @ weights.wq, h), _split_heads(c_audio @ weights.wk, h),
                         _split_heads(c_audio @ weights.wv, h), plan, TileConfig())
        return _join_heads(attn) @ weights.wo, c_audio

    packed = np.concatenate(
        [x_video.reshape(b, f, n, c), c_audio.reshape(b, f, l, c)], axis=2
    ).reshape(b, f * (n + l), c)
    qkv = [_split_heads(packed @ w, h) for w in (weights.wq, weights.wk, weights.wv)]
    del packed
    attn = _run_plan(*qkv, block_plan(TokenLayout(f, n + l, 0), config), TileConfig())
    del qkv
    updated = (_join_heads(attn) @ weights.wo).reshape(b, f, n + l, c)
    video_out = np.ascontiguousarray(updated[:, :, :n]).reshape(b, f * n, c)
    if config is InjectionConfig.SELF_ATTN_2D_FROZEN_AUDIO:
        return video_out, c_audio
    return video_out, np.ascontiguousarray(updated[:, :, n:]).reshape(b, f * l, c)
