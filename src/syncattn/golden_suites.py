"""Seeded golden-vector suites for cross-run and cross-implementation checks.

``SUITES`` maps each suite to its cases, ``{case name: builder}``, where a
builder ``case(dtype)`` returns ``{key: tensor}``.  Every case runs in
float64, then float32, and each tensor is one golden file
``<suite>/<case>_<f64|f32>__<key>.gv``.  Generating a suite writes those
files; checking recomputes them and compares: float64 tensors must match
bit for bit on a given platform, float32 ones within F32_TOL, which allows
for build-to-build variation in vectorized math libraries.  A stored
``.gv`` file in the suite's directory that no case produces fails the
check too, so a dropped or renamed case cannot leave its bits unpinned.

Scalar and per-row outputs (LSE vectors, loss values) are stored as
(B, H, S, 1) or (1, 1, 1, 1) tensors so everything shares one format.
Cases avoid all-masked rows: golden files hold finite values only.

To add a case, write a top-level builder and list it under a new
``SUITES`` entry, not an existing one: CI checks goldens generated by the
base commit, and a case the base lacks would be a missing file there.
The CLI's ``--suite`` choices and the tests read the suites from ``SUITES``.
"""

from __future__ import annotations

import functools
from pathlib import Path

import numpy as np

from .core import TokenLayout, per_frame_cu_seqlens, precision_name, read_golden, seeded_random_tensor, write_golden
from .flow import euler_sample, fm_loss, interpolate
from .kernel import TileConfig, flash_varlen_forward, merge_partials
from .reference import naive_attention
from .rope import apply_rope, assign_coords
from .topology import InjectionConfig, _run_plan, block_plan, config_layer_forward, masked3d_forward, seeded_projection_set

__all__ = ["F32_TOL", "SUITES", "check_suite", "generate_suite"]

F32_TOL = 1e-6


def _lse4(lse: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(lse[..., None])


def _attention_dense(dtype):
    q = seeded_random_tensor((1, 2, 97, 16), 11, dtype)
    k = seeded_random_tensor((1, 2, 203, 16), 12, dtype)
    v = seeded_random_tensor((1, 2, 203, 16), 13, dtype)
    part = flash_varlen_forward(q, k, v, [0, 97], [0, 203], TileConfig(32, 48))
    return {"out": part.out, "lse": _lse4(part.lse)}


def _attention_varlen(dtype):
    q = seeded_random_tensor((2, 1, 68, 8), 21, dtype)
    k = seeded_random_tensor((2, 1, 116, 8), 22, dtype)
    v = seeded_random_tensor((2, 1, 116, 8), 23, dtype)
    part = flash_varlen_forward(q, k, v, per_frame_cu_seqlens(17, 4), per_frame_cu_seqlens(29, 4))
    return {"out": part.out, "lse": _lse4(part.lse)}


def _merge_three_way(dtype):
    q = seeded_random_tensor((1, 2, 31, 8), 31, dtype)
    k = seeded_random_tensor((1, 2, 90, 8), 32, dtype)
    v = seeded_random_tensor((1, 2, 90, 8), 33, dtype)
    parts = [naive_attention(q, k[:, :, a:b], v[:, :, a:b]) for a, b in ((0, 30), (30, 55), (55, 90))]
    merged = merge_partials(merge_partials(parts[0], parts[1]), parts[2])
    return {"out": merged.out, "lse": _lse4(merged.lse)}


def _rope_rotated(dtype):
    layout = TokenLayout(frames=3, video_per_frame=12, audio_per_frame=4, others_len=6)
    x = seeded_random_tensor((1, 2, layout.total_len, 16), 41, dtype)
    return {"out": apply_rope(x, assign_coords(layout, video_grid=(3, 4)))}


def _flow_path(dtype):
    x0 = seeded_random_tensor((1, 1, 24, 8), 51, dtype)
    x1 = seeded_random_tensor((1, 1, 24, 8), 52, dtype)
    mid = interpolate(x0, x1, 0.25)
    sampled = euler_sample(lambda x, t: x1 - x0, x0, steps=10)
    return {"mid": mid, "sampled": sampled, "loss": np.full((1, 1, 1, 1), fm_loss(mid, x0, x1), dtype)}


def _masked3d_plan(layout: TokenLayout, heads: int, seeds, dtype):
    """``_run_plan`` over the MASKED_3D plan of ``layout`` at 16 x 16 tiles, head_dim 16."""
    q, k, v = (seeded_random_tensor((1, heads, layout.total_len, 16), seed, dtype) for seed in seeds)
    return {"out": _run_plan(q, k, v, block_plan(layout, InjectionConfig.MASKED_3D), TileConfig(16, 16))}


def _units_masked3d(dtype):
    layout = TokenLayout(frames=2, video_per_frame=8, audio_per_frame=300)
    q, k, v = (seeded_random_tensor((1, 1, layout.total_len, 16), seed, dtype) for seed in (81, 82, 83))
    return {"out": masked3d_forward(q, k, v, layout)}


def _layer(config: InjectionConfig, layout: TokenLayout, dtype):
    weights = seeded_projection_set(16, 2, 71, dtype)
    x_video = seeded_random_tensor((2, 1, layout.video_len, 16), 72, dtype)[:, 0]
    c_audio = seeded_random_tensor((2, 1, layout.audio_len, 16), 73, dtype)[:, 0]
    video, audio = config_layer_forward(x_video, c_audio, layout, config, weights)
    return {"video": video[:, None], "audio": audio[:, None]}  # (B, 1, S, C)


def _layers(configs, layout=TokenLayout(frames=3, video_per_frame=5, audio_per_frame=2)):
    """Cases of ``config_layer_forward`` under each of ``configs`` on ``layout``, named by wiring."""
    return {config.value: functools.partial(_layer, config, layout) for config in configs}


_WIRINGS_2D = (InjectionConfig.CROSS_ATTN_2D, InjectionConfig.SELF_ATTN_2D_FROZEN_AUDIO, InjectionConfig.SELF_ATTN_2D)

SUITES = {
    "attention": {"dense": _attention_dense, "varlen": _attention_varlen},
    "merge": {"three_way": _merge_three_way},
    "rope": {"rotated": _rope_rotated},
    "flow": {"path": _flow_path},
    "masked3d": {"decomposed": functools.partial(
        _masked3d_plan, TokenLayout(frames=4, video_per_frame=10, audio_per_frame=3, others_len=7), 2, (61, 62, 63))},
    "wirings": _layers(_WIRINGS_2D),
    "wirings_3d": _layers((InjectionConfig.FULL_3D, InjectionConfig.MASKED_3D)),
    # The 2D wirings' layer in parts of 4 and 5 frames.
    "wirings_parts": _layers(_WIRINGS_2D, TokenLayout(frames=9, video_per_frame=60, audio_per_frame=4)),
    # Kernel units taller than q_block over keys narrower than k_block, whose
    # matmul row counts only the unit rule sets (a CLI test holds the shapes):
    # the layer runs each frame as one 264 x 264 unit; masked3d_forward runs
    # audio -> video as one unit of both frames' 300 x 8 groups and audio ->
    # audio as one 300 x 300 unit per frame.
    "units": {**_layers((InjectionConfig.SELF_ATTN_2D,), TokenLayout(frames=2, video_per_frame=256, audio_per_frame=8)),
              "masked3d": _units_masked3d},
    # Merging row slices: each 40-row video -> audio group (3 keys, so R = 16
    # rows) runs as slices of 16, 16 and 8 rows that fold into video rows
    # already holding the dense block's partial (a CLI test holds the shapes).
    "slices": {"merging": functools.partial(
        _masked3d_plan, TokenLayout(frames=2, video_per_frame=40, audio_per_frame=3, others_len=5), 2, (91, 92, 93))},
}


def _goldens(suite: str, root):
    """Yield ``(case id, path, tensor)`` for every tensor of a suite, float64 cases first."""
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; choose from {sorted(SUITES)}")
    for dtype in (np.float64, np.float32):
        for name, case in SUITES[suite].items():
            for key, tensor in case(dtype).items():
                stem = f"{name}_{precision_name(dtype)}__{key}"
                yield f"{suite}/{stem}", Path(root) / suite / f"{stem}.gv", tensor


def generate_suite(suite: str, root) -> list[Path]:
    """Compute and write every golden file of a suite; returns the paths."""
    written = []
    for _, path, tensor in _goldens(suite, root):
        path.parent.mkdir(parents=True, exist_ok=True)
        write_golden(path, tensor)
        written.append(path)
    return written


def check_suite(suite: str, root) -> list[str]:
    """Recompute a suite and compare against stored goldens.

    Returns a list of human-readable failure strings (empty means pass).
    float64 tensors must be bit-identical; float32 tensors must agree
    within F32_TOL.  A stored ``.gv`` file no case produces is a failure.
    """
    failures, expected = [], set()
    for case_id, path, tensor in _goldens(suite, root):
        expected.add(path)
        if not path.exists():
            failures.append(f"{case_id}: missing golden file {path}")
            continue
        try:
            stored = read_golden(path)
        except ValueError as exc:
            failures.append(f"{case_id}: unreadable golden file ({exc})")
            continue
        if stored.shape != tensor.shape or stored.dtype != tensor.dtype:
            failures.append(f"{case_id}: stored {stored.dtype}{stored.shape} vs recomputed {tensor.dtype}{tensor.shape}")
            continue
        if tensor.dtype == np.float64:
            if stored.tobytes() != tensor.tobytes():
                diff = float(np.max(np.abs(stored - tensor)))
                failures.append(f"{case_id}: float64 mismatch, max abs diff {diff:.3e}")
        else:
            diff = float(np.max(np.abs(stored - tensor)))
            if diff > F32_TOL:
                failures.append(f"{case_id}: float32 diff {diff:.3e} exceeds {F32_TOL}")
    for path in sorted(set((Path(root) / suite).glob("*.gv")) - expected):
        failures.append(f"{suite}/{path.stem}: stored golden file {path} that no case produces")
    return failures
