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

``masked3d_forward`` realizes this pattern without ever materializing the
mask: the sparse problem is decomposed into dense and block-diagonal
sub-attentions computed by the streaming kernel, whose partial results
are recombined exactly through their LogSumExp statistics.

The three flat 2D wirings (cross-attention, self-attention with frozen
audio, self-attention) are executed structurally per frame instead of via
a global mask.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .core import (
    AttnPartial,
    TokenLayout,
    check_qkv,
    per_frame_cu_seqlens,
    seeded_random_tensor,
    segment_offsets,
)
from .kernel import TileConfig, flash_forward, flash_varlen_forward
from .merge import merge_partials

__all__ = [
    "InjectionConfig",
    "MaskSpec",
    "ProjectionSet",
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


def _frame_index(layout: TokenLayout) -> np.ndarray:
    """Per-token frame index in packed order; others tokens get -1."""
    frame = np.full(layout.total_len, -1, dtype=np.int64)
    video, _, audio = segment_offsets(layout)
    if layout.video_per_frame > 0:
        frame[video.start : video.stop] = (
            np.arange(layout.video_len) // layout.video_per_frame
        )
    if layout.audio_per_frame > 0:
        frame[audio.start : audio.stop] = (
            np.arange(layout.audio_len) // layout.audio_per_frame
        )
    return frame


def build_mask(layout: TokenLayout, config: InjectionConfig) -> MaskSpec:
    """Permission matrix for the FULL_3D or MASKED_3D topology."""
    if config not in (InjectionConfig.FULL_3D, InjectionConfig.MASKED_3D):
        raise ValueError(f"build_mask only supports FULL_3D and MASKED_3D, got {config}")
    total = layout.total_len
    if config is InjectionConfig.FULL_3D:
        return MaskSpec(layout, np.ones((total, total), dtype=bool))

    # A pair is restricted iff audio is involved on either side; then it is
    # allowed only on an exact frame match.  Others tokens carry frame -1
    # and audio frames are >= 0, so audio<->others never matches.
    _, others, audio = segment_offsets(layout)
    is_audio = np.zeros(total, dtype=bool)
    is_audio[audio.start : audio.stop] = True
    frame = _frame_index(layout)
    same_frame = frame[:, None] == frame[None, :]
    audio_involved = is_audio[:, None] | is_audio[None, :]
    return MaskSpec(layout, same_frame | ~audio_involved)


def mask_to_text(spec: MaskSpec) -> str:
    """Textual bitmap of a mask: '#' for allowed, '.' for blocked, row per line."""
    rows = ["".join("#" if a else "." for a in row) for row in spec.allow]
    return "\n".join(rows)


def masked3d_forward(q, k, v, layout: TokenLayout, tile: TileConfig = TileConfig()) -> np.ndarray:
    """Frame-synchronized masked attention via decomposition and LSE merging.

    Inputs are packed in the fixed segment order of ``layout`` and the
    sequence axis must equal ``layout.total_len``.  The computation:

    1. video and others queries, which are contiguous: one dense call
       over the video+others keys;
    2. video queries: that call's rows merged with block-diagonal
       per-frame attention over audio keys;
    3. audio queries: per-frame attention over video keys merged with
       per-frame attention over audio keys;
    4. audio rows concatenated after the video and others rows.

    Equals naive attention under the MASKED_3D permission matrix.  When
    the layout carries no audio, the audio branches are skipped and the
    result is plain streaming attention over video+others.
    """
    q, k, v = check_qkv(q, k, v)
    if q.shape != k.shape:
        raise ValueError(f"q/k/v must share one shape, got {q.shape} {k.shape} {v.shape}")
    if q.shape[2] != layout.total_len:
        raise ValueError(f"packed length {q.shape[2]} != layout total_len {layout.total_len}")

    video, others, audio = segment_offsets(layout)
    f = layout.frames
    n, l = layout.video_per_frame, layout.audio_per_frame
    vo = slice(video.start, others.stop)  # video block followed by others block
    vid = slice(video.start, video.stop)
    a = slice(audio.start, audio.stop)

    dense = flash_forward(q[:, :, vo], k[:, :, vo], v[:, :, vo], tile)
    if layout.audio_len == 0:
        return dense.out

    out = dense.out
    part_va = flash_varlen_forward(
        q[:, :, vid], k[:, :, a], v[:, :, a],
        per_frame_cu_seqlens(n, f), per_frame_cu_seqlens(l, f), tile,
    )
    out[:, :, vid] = merge_partials(AttnPartial(out[:, :, vid], dense.lse[:, :, vid]), part_va).out

    part_av = flash_varlen_forward(
        q[:, :, a], k[:, :, vid], v[:, :, vid],
        per_frame_cu_seqlens(l, f), per_frame_cu_seqlens(n, f), tile,
    )
    part_aa = flash_varlen_forward(
        q[:, :, a], k[:, :, a], v[:, :, a],
        per_frame_cu_seqlens(l, f), per_frame_cu_seqlens(l, f), tile,
    )
    return np.concatenate([out, merge_partials(part_av, part_aa).out], axis=2)


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
    b, s, c = x.shape
    return np.ascontiguousarray(x.reshape(b, s, heads, c // heads).transpose(0, 2, 1, 3))


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
        cu = per_frame_cu_seqlens(n + l, f)
        part = flash_varlen_forward(
            _split_heads(packed @ weights.wq, h),
            _split_heads(packed @ weights.wk, h),
            _split_heads(packed @ weights.wv, h),
            cu, cu,
        )
        updated = (_join_heads(part.out) @ weights.wo).reshape(b, f, n + l, c)
        video_out = np.ascontiguousarray(updated[:, :, :n]).reshape(b, f * n, c)
        if config is InjectionConfig.SELF_ATTN_2D_FROZEN_AUDIO:
            return video_out, c_audio
        audio_out = np.ascontiguousarray(updated[:, :, n:]).reshape(b, f * l, c)
        return video_out, audio_out

    raise ValueError(f"config_layer_forward does not execute {config}; use masked3d_forward")
