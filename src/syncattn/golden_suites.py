"""Seeded golden-vector suites for cross-run and cross-implementation checks.

Each suite is a fixed list of named cases; generating a suite writes one
golden file per produced tensor, checking recomputes everything and
compares against the stored files.  float64 cases must match bit for bit
on a given platform; float32 cases are compared at a small absolute
tolerance (F32_TOL) to allow for build-to-build variation in vectorized
math libraries.

Scalar and per-row outputs (LSE vectors, loss values) are stored as
(B, H, S, 1) or (1, 1, 1, 1) tensors so everything shares one format.
Suite cases deliberately avoid all-masked rows: golden files hold finite
values only.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .core import (
    TokenLayout,
    per_frame_cu_seqlens,
    precision_name,
    read_golden,
    seeded_random_tensor,
    write_golden,
)
from .flow import euler_sample, fm_loss, interpolate
from .kernel import TileConfig, flash_varlen_forward, merge_partials
from .reference import naive_attention
from .rope import apply_rope, assign_coords
from .topology import InjectionConfig, config_layer_forward, masked3d_forward, seeded_projection_set

__all__ = ["F32_TOL", "SUITES", "check_suite", "generate_suite"]

F32_TOL = 1e-6


def _lse4(lse: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(lse[..., None])


def _scalar4(x: float, dtype) -> np.ndarray:
    return np.full((1, 1, 1, 1), x, dtype=dtype)


def _attention_cases(dtype):
    def dense():
        q = seeded_random_tensor((1, 2, 97, 16), 11, dtype)
        k = seeded_random_tensor((1, 2, 203, 16), 12, dtype)
        v = seeded_random_tensor((1, 2, 203, 16), 13, dtype)
        part = flash_varlen_forward(q, k, v, [0, 97], [0, 203], TileConfig(32, 48))
        return {"out": part.out, "lse": _lse4(part.lse)}

    def varlen():
        cu_q = per_frame_cu_seqlens(17, 4)
        cu_k = per_frame_cu_seqlens(29, 4)
        q = seeded_random_tensor((2, 1, 68, 8), 21, dtype)
        k = seeded_random_tensor((2, 1, 116, 8), 22, dtype)
        v = seeded_random_tensor((2, 1, 116, 8), 23, dtype)
        part = flash_varlen_forward(q, k, v, cu_q, cu_k)
        return {"out": part.out, "lse": _lse4(part.lse)}

    return [("dense", dense), ("varlen", varlen)]


def _merge_cases(dtype):
    def three_way():
        q = seeded_random_tensor((1, 2, 31, 8), 31, dtype)
        k = seeded_random_tensor((1, 2, 90, 8), 32, dtype)
        v = seeded_random_tensor((1, 2, 90, 8), 33, dtype)
        parts = [
            naive_attention(q, k[:, :, a:b], v[:, :, a:b])
            for a, b in ((0, 30), (30, 55), (55, 90))
        ]
        merged = merge_partials(merge_partials(parts[0], parts[1]), parts[2])
        return {"out": merged.out, "lse": _lse4(merged.lse)}

    return [("three_way", three_way)]


def _rope_cases(dtype):
    def rotated():
        layout = TokenLayout(frames=3, video_per_frame=12, audio_per_frame=4, others_len=6)
        coords = assign_coords(layout, video_grid=(3, 4))
        x = seeded_random_tensor((1, 2, layout.total_len, 16), 41, dtype)
        return {"out": apply_rope(x, coords)}

    return [("rotated", rotated)]


def _flow_cases(dtype):
    def path():
        x0 = seeded_random_tensor((1, 1, 24, 8), 51, dtype)
        x1 = seeded_random_tensor((1, 1, 24, 8), 52, dtype)
        mid = interpolate(x0, x1, 0.25)
        sampled = euler_sample(lambda x, t: x1 - x0, x0, steps=10)
        loss = fm_loss(mid, x0, x1)
        return {"mid": mid, "sampled": sampled, "loss": _scalar4(loss, dtype)}

    return [("path", path)]


def _masked3d_cases(dtype):
    def decomposed():
        layout = TokenLayout(frames=4, video_per_frame=10, audio_per_frame=3, others_len=7)
        dims = (1, 2, layout.total_len, 16)
        q = seeded_random_tensor(dims, 61, dtype)
        k = seeded_random_tensor(dims, 62, dtype)
        v = seeded_random_tensor(dims, 63, dtype)
        return {"out": masked3d_forward(q, k, v, layout, TileConfig(16, 16))}

    return [("decomposed", decomposed)]


def _wirings_cases(configs, layout=TokenLayout(frames=3, video_per_frame=5, audio_per_frame=2)):
    """Cases of ``config_layer_forward`` under each of ``configs`` on ``layout``, one suite."""

    def wiring(config, dtype):
        def build():
            weights = seeded_projection_set(16, 2, 71, dtype)
            x_video = seeded_random_tensor((2, 1, layout.video_len, 16), 72, dtype)[:, 0]
            c_audio = seeded_random_tensor((2, 1, layout.audio_len, 16), 73, dtype)[:, 0]
            video, audio = config_layer_forward(x_video, c_audio, layout, config, weights)
            return {"video": video[:, None], "audio": audio[:, None]}  # (B, 1, S, C)

        return build

    return lambda dtype: [(config.value, wiring(config, dtype)) for config in configs]


def _units_cases(dtype):
    """The self-attention layer at F=2 N=256 L=8 and ``masked3d_forward`` at F=2 N=8 L=300, default tiles."""

    def audio_groups():
        layout = TokenLayout(frames=2, video_per_frame=8, audio_per_frame=300)
        q, k, v = (seeded_random_tensor((1, 1, layout.total_len, 16), seed, dtype) for seed in (81, 82, 83))
        return {"out": masked3d_forward(q, k, v, layout)}

    layer = _wirings_cases((InjectionConfig.SELF_ATTN_2D,), TokenLayout(frames=2, video_per_frame=256, audio_per_frame=8))
    return [*layer(dtype), ("masked3d", audio_groups)]


def _both(cases):
    """A suite's cases in float64, then float32, named ``<case>_f64`` / ``<case>_f32``."""
    return lambda: [(f"{name}_{precision_name(dt)}", build) for dt in (np.float64, np.float32)
                    for name, build in cases(dt)]


_WIRINGS_2D = (InjectionConfig.CROSS_ATTN_2D, InjectionConfig.SELF_ATTN_2D_FROZEN_AUDIO, InjectionConfig.SELF_ATTN_2D)

SUITES = {
    "attention": _both(_attention_cases),
    "merge": _both(_merge_cases),
    "rope": _both(_rope_cases),
    "flow": _both(_flow_cases),
    "masked3d": _both(_masked3d_cases),
    "wirings": _both(_wirings_cases(_WIRINGS_2D)),
    # Each its own suite, not new cases in "wirings": a suite's goldens from
    # an older commit, which had no such cases, must still check clean.
    "wirings_3d": _both(_wirings_cases((InjectionConfig.FULL_3D, InjectionConfig.MASKED_3D))),
    # The 2D wirings' layer in parts of 4 and 5 frames.
    "wirings_parts": _both(_wirings_cases(_WIRINGS_2D, TokenLayout(frames=9, video_per_frame=60, audio_per_frame=4))),
    # Kernel units taller than q_block over keys narrower than k_block, whose
    # matmul row counts only the unit rule sets.  By _flash_group's shapes
    # (a CLI test holds them): the layer runs each frame as one 264-row unit
    # over 264 keys; masked3d_forward runs audio -> video as 300-row groups
    # over 8 keys (both frames in one unit) and audio -> audio as one
    # 300 x 300 unit per frame.
    "units": _both(_units_cases),
}


def _suite_cases(suite: str):
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; choose from {sorted(SUITES)}")
    return SUITES[suite]()


def generate_suite(suite: str, root) -> list[Path]:
    """Compute and write every golden file of a suite; returns the paths."""
    root = Path(root) / suite
    root.mkdir(parents=True, exist_ok=True)
    written = []
    for name, build in _suite_cases(suite):
        for key, tensor in build().items():
            path = root / f"{name}__{key}.gv"
            write_golden(path, tensor)
            written.append(path)
    return written


def check_suite(suite: str, root) -> list[str]:
    """Recompute a suite and compare against stored goldens.

    Returns a list of human-readable failure strings (empty means pass).
    float64 tensors must be bit-identical; float32 tensors must agree
    within F32_TOL.
    """
    root = Path(root) / suite
    failures = []
    for name, build in _suite_cases(suite):
        for key, tensor in build().items():
            path = root / f"{name}__{key}.gv"
            case_id = f"{suite}/{name}__{key}"
            if not path.exists():
                failures.append(f"{case_id}: missing golden file {path}")
                continue
            try:
                stored = read_golden(path)
            except ValueError as exc:
                failures.append(f"{case_id}: unreadable golden file ({exc})")
                continue
            if stored.shape != tensor.shape or stored.dtype != tensor.dtype:
                failures.append(
                    f"{case_id}: stored {stored.dtype}{stored.shape} vs recomputed "
                    f"{tensor.dtype}{tensor.shape}"
                )
                continue
            if tensor.dtype == np.float64:
                if stored.tobytes() != tensor.tobytes():
                    diff = float(np.max(np.abs(stored - tensor)))
                    failures.append(f"{case_id}: float64 mismatch, max abs diff {diff:.3e}")
            else:
                diff = float(np.max(np.abs(stored - tensor)))
                if diff > F32_TOL:
                    failures.append(f"{case_id}: float32 diff {diff:.3e} exceeds {F32_TOL}")
    return failures
