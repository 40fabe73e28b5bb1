"""Attention topologies over a packed video/others/audio sequence.

Masking rule of the frame-synchronized ("masked 3D") topology, per
query-segment x key-segment pair:

    video  -> video    allowed, any frame pair
    video  -> others   allowed
    others -> video    allowed
    others -> others   allowed
    video  -> audio    allowed only within the same frame
    audio  -> video    allowed only within the same frame
    audio  -> audio    allowed only within the same frame
    others -> audio    blocked
    audio  -> others   blocked

``block_plan`` states this rule once, as blocks of query rows and per-group
key columns.  ``build_mask`` materializes it; ``masked3d_forward`` never
does: it runs the streaming kernel once per block and recombines the
partial results exactly through their LogSumExp statistics.

The three flat 2D wirings (cross-attention, self-attention with frozen
audio, self-attention) are executed structurally per frame instead of via
a global mask.
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
# Unused flash_forward stays: benchmark/spans.py wraps that name in this module.
from .kernel import TileConfig, flash_forward, flash_varlen_forward  # noqa: F401
from .merge import merge_partials

__all__ = [
    "Block",
    "InjectionConfig",
    "MaskSpec",
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


@dataclass(frozen=True)
class MaskSpec:
    """Boolean attention-permission matrix over a packed layout.

    ``allow[i, j]`` is True when query token i may attend to key token j.
    The matrix depends only on token positions, never on batch or head.
    """

    layout: TokenLayout
    allow: np.ndarray  # (total_len, total_len) bool


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
    audio -> audio.  Blocks with no rows or no columns are left out.
    """
    if config not in (InjectionConfig.FULL_3D, InjectionConfig.MASKED_3D):
        raise ValueError(f"block_plan only supports FULL_3D and MASKED_3D, got {config}")
    if config is InjectionConfig.FULL_3D:
        whole, dense = slice(0, layout.total_len), np.array([0, layout.total_len])
        blocks = [Block(whole, whole, dense, dense)]
    else:
        video, others, audio = (slice(r.start, r.stop) for r in segment_offsets(layout))
        vo, dense = slice(0, others.stop), np.array([0, others.stop])  # video then others
        cu_n = per_frame_cu_seqlens(layout.video_per_frame, layout.frames)
        cu_l = per_frame_cu_seqlens(layout.audio_per_frame, layout.frames)
        blocks = [
            Block(vo, vo, dense, dense),
            Block(video, audio, cu_n, cu_l),
            Block(audio, video, cu_l, cu_n),
            Block(audio, audio, cu_l, cu_l),
        ]
    return [blk for blk in blocks if blk.cu_q[-1] > 0 and blk.cu_k[-1] > 0]


def build_mask(layout: TokenLayout, config: InjectionConfig) -> MaskSpec:
    """Permission matrix for the FULL_3D or MASKED_3D topology: its plan's groups."""
    allow = np.zeros((layout.total_len, layout.total_len), dtype=bool)
    for blk in block_plan(layout, config):
        sub = allow[blk.rows, blk.cols]
        for q0, q1, k0, k1 in zip(blk.cu_q[:-1], blk.cu_q[1:], blk.cu_k[:-1], blk.cu_k[1:]):
            sub[q0:q1, k0:k1] = True
    return MaskSpec(layout, allow)


def mask_to_text(spec: MaskSpec) -> str:
    """Textual bitmap of a mask: '#' for allowed, '.' for blocked, row per line."""
    rows = ["".join("#" if a else "." for a in row) for row in spec.allow]
    return "\n".join(rows)


def masked3d_forward(q, k, v, layout: TokenLayout, tile: TileConfig = TileConfig()) -> np.ndarray:
    """Frame-synchronized masked attention via decomposition and LSE merging.

    Inputs are packed in the fixed segment order of ``layout`` and the
    sequence axis must equal ``layout.total_len``.  The MASKED_3D
    ``block_plan`` runs in order, one ``flash_varlen_forward`` call per
    block over views of q, k and v.  A block writes the output and lse of
    its rows, or merges through the lse into rows an earlier block wrote
    (finite lse), which is exact as blocks hold disjoint keys.  The dense
    video+others block writes, video->audio merges into its video rows,
    audio->video writes the audio rows and audio->audio merges into them.
    Equals naive attention under the MASKED_3D permission matrix.

    A merging block merges in place into the output rows, and each block's
    partial is freed before the next kernel call, so peak transient memory
    is at most: the output and lse, the largest block's partial, one
    (S_q, D) merge temporary, the kernel's score tile and PV product (each
    at most ``q_block * k_block`` numbers), and O(rows) lse weights.
    """
    q, k, v = check_qkv(q, k, v)
    if q.shape != k.shape:
        raise ValueError(f"q/k/v must share one shape, got {q.shape} {k.shape} {v.shape}")
    if q.shape[2] != layout.total_len:
        raise ValueError(f"packed length {q.shape[2]} != layout total_len {layout.total_len}")

    out, lse = np.zeros(q.shape, q.dtype), np.full(q.shape[:3], -np.inf, q.dtype)
    for blk in block_plan(layout, InjectionConfig.MASKED_3D):
        rows, cols = np.s_[:, :, blk.rows], np.s_[:, :, blk.cols]
        part = flash_varlen_forward(q[rows], k[cols], v[cols], blk.cu_q, blk.cu_k, tile)
        if np.isfinite(lse[rows]).any():  # an earlier block wrote these rows
            here = AttnPartial(out[rows], lse[rows])
            merge_partials(here, part, out=here)
        else:
            out[rows], lse[rows] = part
        del part  # free this block's partial before the next kernel call
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

    CROSS_ATTN_2D: frame f's video tokens query frame f's audio tokens;
    the audio stream passes through unchanged.  The two self-attention
    wirings run per-frame self-attention over concat(video_f, audio_f)
    and differ only in whether the updated audio tokens are returned or
    dropped in favor of the originals.

    Returns the updated (x_video, c_audio) pair.  No residual, norm, or
    MLP: this is the attention wiring alone.
    """
    x_video = np.asarray(x_video)
    c_audio = np.asarray(c_audio)
    f, n, l = layout.frames, layout.video_per_frame, layout.audio_per_frame
    c = weights.model_dim
    if x_video.ndim != 3 or x_video.shape[1:] != (f * n, c):
        raise ValueError(f"x_video must be (B, {f * n}, {c}), got {x_video.shape}")
    if c_audio.ndim != 3 or c_audio.shape[1:] != (f * l, c) or c_audio.shape[0] != x_video.shape[0]:
        raise ValueError(f"c_audio must be ({x_video.shape[0]}, {f * l}, {c}), got {c_audio.shape}")
    b = x_video.shape[0]
    h = weights.heads

    if config is InjectionConfig.CROSS_ATTN_2D:
        part = flash_varlen_forward(
            _split_heads(x_video @ weights.wq, h),
            _split_heads(c_audio @ weights.wk, h),
            _split_heads(c_audio @ weights.wv, h),
            per_frame_cu_seqlens(n, f),
            per_frame_cu_seqlens(l, f),
        )
        return _join_heads(part.out) @ weights.wo, c_audio

    if config in (InjectionConfig.SELF_ATTN_2D_FROZEN_AUDIO, InjectionConfig.SELF_ATTN_2D):
        # Pack [video_f, audio_f] per frame so each group is one frame.
        packed = np.concatenate(
            [x_video.reshape(b, f, n, c), c_audio.reshape(b, f, l, c)], axis=2
        ).reshape(b, f * (n + l), c)
        qkv = [_split_heads(packed @ w, h) for w in (weights.wq, weights.wk, weights.wv)]
        del packed
        cu = per_frame_cu_seqlens(n + l, f)
        attn = flash_varlen_forward(*qkv, cu, cu).out
        del qkv
        updated = (_join_heads(attn) @ weights.wo).reshape(b, f, n + l, c)
        video_out = np.ascontiguousarray(updated[:, :, :n]).reshape(b, f * n, c)
        if config is InjectionConfig.SELF_ATTN_2D_FROZEN_AUDIO:
            return video_out, c_audio
        audio_out = np.ascontiguousarray(updated[:, :, n:]).reshape(b, f * l, c)
        return video_out, audio_out

    raise ValueError(f"config_layer_forward does not execute {config}; use masked3d_forward")
