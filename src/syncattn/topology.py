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
callers are ``masked3d_forward`` and the layer of any wiring, which reads
its part rule from the plan: a plan whose every block has one group per
frame lets no row see another frame, so the layer runs it over parts of
whole frames, about one query tile of rows each, and only one part's
projections are alive at a time.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

from .core import (
    AttnPartial,
    TokenLayout,
    check_count,
    check_qkv,
    check_tensor,
    float_range,
    per_frame_cu_seqlens,
    seeded_random_tensor,
    segment_offsets,
)
from .kernel import TileConfig, flash_varlen_forward, merge_partials  # noqa: F401

# benchmark/spans.py wraps this name, flash_varlen_forward and merge_partials here until ROADMAP item 2.
flash_forward = flash_varlen_forward

__all__ = [
    "Block",
    "InjectionConfig",
    "ProjectionSet",
    "block_plan",
    "build_mask",
    "config_layer_forward",
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


_SELF_ATTN = (InjectionConfig.SELF_ATTN_2D_FROZEN_AUDIO, InjectionConfig.SELF_ATTN_2D)


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
    left out.  Any other value, a member's string included, raises ValueError.
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
    elif any(config is c for c in _SELF_ATTN):  # by identity: == lets an array or a permissive __eq__ in
        blocks = [Block(video, video, cu_n, cu_n), *synced]
    else:
        members = ", ".join(c.name for c in InjectionConfig)
        raise ValueError(f"config must be an InjectionConfig member ({members}), got {config!r}")
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


def masked3d_forward(q, k, v, layout: TokenLayout) -> np.ndarray:
    """Frame-synchronized masked attention via decomposition and LSE merging.

    Inputs are packed in the fixed segment order of ``layout`` and the
    sequence axis must equal ``layout.total_len``.  Runs the MASKED_3D
    ``block_plan`` at the kernel's default tiles, as the layer does.  Equals
    naive attention under the MASKED_3D permission matrix.
    """
    q, k, v = check_qkv(q, k, v)
    if q.shape != k.shape:
        raise ValueError(f"q/k/v must share one shape, got {q.shape} {k.shape} {v.shape}")
    if q.shape[2] != layout.total_len:
        raise ValueError(f"packed length {q.shape[2]} != layout total_len {layout.total_len}")
    return _run_plan(q, k, v, block_plan(layout, InjectionConfig.MASKED_3D), TileConfig())


def _run_plan(q, k, v, plan: list[Block], tile: TileConfig) -> np.ndarray:
    """Attention output of q's rows under ``plan``, one kernel call per block.

    q holds the packed rows from the first, k and v the packed columns from
    the first the plan reads.  One rule for every block: in plan order, its
    kernel call over views of q's rows and k's and v's columns folds its
    keys into the output and lse rows, which start as the empty partial;
    the merge is exact as blocks hold disjoint keys.  Rows no block covers
    stay zero.  Peak transient memory is the output and lse, one kernel
    unit's scratch partial, score tile and PV product (each at most
    ``q_block * k_block`` numbers at any frame size), and O(rows) lse weights.
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

    wq is (model_dim, model_dim), float32 or float64, and wk, wv and wo are
    checked like it; all four are finite: checked once here, not on every layer
    call.  ``heads`` splits model_dim into per-head slices of model_dim // heads.
    """

    wq: np.ndarray
    wk: np.ndarray
    wv: np.ndarray
    wo: np.ndarray
    heads: int

    def __post_init__(self) -> None:
        wq = check_tensor(self.wq, "wq", ("row", "col"))
        if wq.shape[0] != wq.shape[1]:
            raise ValueError(f"wq must be square, got {wq.shape}")
        object.__setattr__(self, "wq", wq)  # the checked arrays, also when built from nested lists
        for name in ("wk", "wv", "wo"):
            object.__setattr__(self, name, check_tensor(getattr(self, name), name, ("row", "col"), wq))
        object.__setattr__(self, "heads", check_count(self.heads, "heads", 1))
        if self.model_dim % self.heads != 0:
            raise ValueError(f"heads={self.heads} must divide model_dim={self.model_dim}")

    @property
    def model_dim(self) -> int:
        return self.wq.shape[0]


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
        layout: token layout; one with others tokens is refused (no others stream).
        config: the wiring; a value that is not a member is refused before any projection.
        weights: projections applied to queries, keys, values, and output.

    One rule for every wiring, run over parts of whole frames: pack a
    part's streams as [video | audio], project queries over the rows the
    plan of ``TokenLayout(frames, N, L)`` writes (and every video row) and
    keys and values from the first column it reads, run the plan, project
    the output and write the part's rows.  The self-attention wirings pack
    each frame's [video_f, audio_f] instead and run the plan of
    ``TokenLayout(frames, N + L)``: one block group, so one softmax, per
    frame and no merge.  The plan of all F frames sets the parts: if each
    of its blocks has one group per frame (the 2D wirings, MASKED_3D with
    N = 0), no row sees another frame, so a part holds ``q_block // (N + L)``
    frames, at least one, and the last takes the remainder: about one query
    tile of rows, whose projections alone are alive at a time.  Otherwise
    all F frames are one part.  CROSS_ATTN_2D and the frozen-audio wiring
    return the input audio.  A NaN or inf in either stream is rejected,
    named by stream and (batch, row, channel), as is a stream whose
    precision is not the projections'.  The q, k and v projections and the
    output projection run under ``core.float_range``, as the kernel does, so
    one that leaves the float range raises ValueError naming it, and no
    kernel call relies on its own check of q, k and v.

    Returns the updated (x_video, c_audio), of the input shapes and each in
    its own memory: the attention wiring alone, with no residual, norm or MLP.
    """
    axes = ("batch", "row", "channel")
    x_video, c_audio = check_tensor(x_video, "x_video", axes), check_tensor(c_audio, "c_audio", axes)
    if layout.others_len:
        raise ValueError(f"others_len={layout.others_len}: the layer has no others stream, so it takes no others tokens")
    f, n, l, c = layout.frames, layout.video_per_frame, layout.audio_per_frame, weights.model_dim
    if x_video.shape[1:] != (f * n, c):
        raise ValueError(f"x_video must be (B, {f * n}, {c}), got {x_video.shape}")
    if c_audio.shape[1:] != (f * l, c) or c_audio.shape[0] != x_video.shape[0]:
        raise ValueError(f"c_audio must be ({x_video.shape[0]}, {f * l}, {c}), got {c_audio.shape}")
    if not x_video.dtype == c_audio.dtype == weights.wq.dtype:
        raise ValueError(f"x_video {x_video.dtype} and c_audio {c_audio.dtype} must be the projections' {weights.wq.dtype}")
    b, h, tile = x_video.shape[0], weights.heads, TileConfig()
    fold = any(config is c for c in _SELF_ATTN)  # identity, as in block_plan, which refuses a non-member below
    keep_audio = all(config is not c for c in (InjectionConfig.CROSS_ATTN_2D, InjectionConfig.SELF_ATTN_2D_FROZEN_AUDIO))
    per_frame = (n + l, 0) if fold else (n, l)  # the plan's video and audio tokens per frame
    local = all(blk.cu_q.size == f + 1 for blk in block_plan(TokenLayout(f, *per_frame), config))  # one group per frame
    fs = min(f, max(1, tile.q_block // max(n + l, 1))) if local else f  # frames per part; the last takes the rest
    video = audio = None
    for f0, f1 in itertools.pairwise([*range(0, f - fs + 1, fs), f]):
        fp = f1 - f0
        g, nv, na = (fp, n, l) if fold else (1, fp * n, fp * l)  # g groups of [nv video | na audio] rows
        stream = np.concatenate([x_video[:, f0 * n:f1 * n].reshape(b, g, nv, c),
                                 c_audio[:, f0 * l:f1 * l].reshape(b, g, na, c)], axis=2)
        stream = stream.reshape(b, g * (nv + na), c)
        plan = block_plan(TokenLayout(fp, *per_frame), config)
        rows = max([fp * n, *(blk.rows.stop for blk in plan)])
        k0 = min([stream.shape[1], *(blk.cols.start for blk in plan)])
        with float_range(x_video.dtype, "the q, k and v projections"):  # every kernel call gets finite q, k, v
            q = _split_heads(stream[:, :rows] @ weights.wq, h)
            k, v = (_split_heads(stream[:, k0:] @ w, h) for w in (weights.wk, weights.wv))
        del stream
        attn = _run_plan(q, k, v, plan, tile)
        del q, k, v
        if video is None:  # allocated once the first part's projections are freed
            video = np.empty((b, f, n, c), x_video.dtype)
            audio = np.empty((b, f, l, c), x_video.dtype) if keep_audio else None
        with float_range(x_video.dtype, "the output projection"):
            y = (_join_heads(attn) @ weights.wo).reshape(b, g, rows // g, c)
        video[:, f0:f1] = y[:, :, :nv].reshape(b, fp, n, c)
        if keep_audio:
            audio[:, f0:f1] = y[:, :, nv:].reshape(b, fp, l, c)
        del attn, y  # so the next part projects beside the outputs alone
    return video.reshape(b, f * n, c), audio.reshape(b, f * l, c) if keep_audio else c_audio
