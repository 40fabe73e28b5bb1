"""The benchmark's workloads: seeded inputs, one operation, output checks.

Every workload is float32 with batch 1.  Inputs come from the benchmark's
own seeded generator, never from ``syncattn``, so the program receives
only generated arrays.  A workload's check takes the output of one
operation and returns a list of failures (empty when correct); the
references it compares against live in ``oracle``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

import oracle
from syncattn import (
    InjectionConfig,
    ProjectionSet,
    TokenLayout,
    config_layer_forward,
    masked3d_forward,
)

# The float32 tolerance of the repository: max |decomposed - float64 oracle|.
TOL_F32 = 1e-5

WIRINGS_2D = (
    InjectionConfig.CROSS_ATTN_2D,
    InjectionConfig.SELF_ATTN_2D_FROZEN_AUDIO,
    InjectionConfig.SELF_ATTN_2D,
)


@dataclass
class Workload:
    name: str
    run: Callable[[], object]  # one operation
    check: Callable[[object], list[str]]  # failures of one operation's output
    batch_heads: int  # B*H, the multiplier of the pair-count law
    allowed_pairs: int  # allowed (query, key) pairs of one operation, per (batch, head)


def _normal(rng, shape) -> np.ndarray:
    return rng.standard_normal(shape, dtype=np.float32)


def _sample_rows(rng, toks: oracle.Tokens, frames: int) -> list[int]:
    """Query rows covering every segment, its first and last frames, and seeded picks."""
    rows = []
    for name in ("video", "others", "audio"):
        seg = toks.rows_of(name)
        if seg.size == 0:
            continue
        rows += [int(seg[0]), int(seg[-1])]
        if name != "others":
            first_of_last = seg[toks.frame[seg] == frames - 1][0]
            last_of_first = seg[toks.frame[seg] == 0][-1]
            rows += [int(first_of_last), int(last_of_first)]
        rows += rng.choice(seg, size=min(4, seg.size), replace=False).tolist()
    return sorted(set(rows))


def masked3d(name: str, seed: int, frames: int, video: int, audio: int, others: int,
             heads: int, head_dim: int) -> Workload:
    """``masked3d_forward`` on one packed video/others/audio sequence."""
    layout = TokenLayout(frames, video, audio, others)
    rng = np.random.default_rng(seed)
    q, k, v = (_normal(rng, (1, heads, layout.total_len, head_dim)) for _ in range(3))
    toks = oracle.tokens(frames, [("video", video, True), ("others", others, False),
                                  ("audio", audio, True)])
    rows = _sample_rows(np.random.default_rng([seed, 1]), toks, frames)
    expected = oracle.attention_rows64(q, k, v, toks, oracle.MASKED_3D, rows)

    def check(out) -> list[str]:
        if out.shape != q.shape or out.dtype != np.float32:
            return [f"output {out.shape} {out.dtype}, expected {q.shape} float32"]
        err = np.nan_to_num(np.abs(out[0][:, rows] - expected).max(axis=2), nan=np.inf)
        worst = float(err.max()) if err.size else 0.0
        if worst > TOL_F32:
            h, r = np.unravel_index(int(np.argmax(err)), err.shape)
            return [f"max |out - float64 reference| = {worst:.3g} > {TOL_F32} "
                    f"(head {h}, row {rows[r]}, {toks.segment[rows[r]]} frame {toks.frame[rows[r]]})"]
        return []

    return Workload(name, lambda: masked3d_forward(q, k, v, layout), check,
                    heads, oracle.allowed_pairs(toks, oracle.MASKED_3D))


def ref_layout(seed: int, frames=16, video=256, audio=8, others=256, heads=8, head_dim=64) -> Workload:
    return masked3d("ref_layout", seed, frames, video, audio, others, heads, head_dim)


def long_clip(seed: int, frames=256, video=4, audio=8, others=16, heads=8, head_dim=64) -> Workload:
    return masked3d("long_clip", seed, frames, video, audio, others, heads, head_dim)


def wirings_2d(seed: int, frames=16, video=256, audio=8, model_dim=512, heads=8) -> Workload:
    """``config_layer_forward`` once per flat 2D wiring, on shared inputs."""
    layout = TokenLayout(frames, video, audio, 0)
    rng = np.random.default_rng(seed)
    x_video = _normal(rng, (1, frames * video, model_dim))
    c_audio = _normal(rng, (1, frames * audio, model_dim))
    scale = np.float32(1.0 / np.sqrt(model_dim))
    weights = ProjectionSet(*(_normal(rng, (model_dim, model_dim)) * scale for _ in range(4)), heads)
    x_audio_bits = c_audio.tobytes()

    toks = oracle.tokens(frames, [("video", video, True), ("audio", audio, True)])
    stream = np.concatenate([x_video, c_audio], axis=1)
    picked = [0, frames - 1, *np.random.default_rng([seed, 1]).integers(0, frames, size=1).tolist()]
    rows = np.flatnonzero(np.isin(toks.frame, picked)).tolist()
    w = (weights.wq, weights.wk, weights.wv, weights.wo, heads)
    video_rows = [r for r in rows if toks.segment[r] == "video"]
    expected_cross = oracle.projected_rows64(stream, toks, oracle.CROSS_2D, video_rows, *w)
    expected_self = oracle.projected_rows64(stream, toks, oracle.SELF_2D, rows, *w)

    def run():
        return [config_layer_forward(x_video, c_audio, layout, cfg, weights) for cfg in WIRINGS_2D]

    def compare(what, got, expected) -> list[str]:
        worst = float(np.max(np.abs(got - expected))) if expected.size else 0.0
        return [] if worst <= TOL_F32 else [f"{what}: max |out - float64 reference| = {worst:.3g} > {TOL_F32}"]

    def check(outs) -> list[str]:
        (cross_v, cross_a), (frozen_v, frozen_a), (self_v, self_a) = outs
        failures = []
        for cfg, a in ((WIRINGS_2D[0], cross_a), (WIRINGS_2D[1], frozen_a)):
            if a.dtype != c_audio.dtype or a.shape != c_audio.shape or a.tobytes() != x_audio_bits:
                failures.append(f"{cfg.value}: audio is not bit-identical to its input")
        if frozen_v.tobytes() != self_v.tobytes():
            failures.append("the two self-attention wirings return different video outputs")
        both = np.concatenate([self_v, self_a], axis=1)[0]
        failures += compare("cross_attn_2d video", cross_v[0][video_rows], expected_cross)
        failures += compare("self_attn_2d video+audio", both[rows], expected_self)
        return failures

    pairs = oracle.allowed_pairs(toks, oracle.CROSS_2D) + 2 * oracle.allowed_pairs(toks, oracle.SELF_2D)
    return Workload("wirings_2d", run, check, heads, pairs)


WORKLOADS = {"ref_layout": ref_layout, "long_clip": long_clip, "wirings_2d": wirings_2d}
